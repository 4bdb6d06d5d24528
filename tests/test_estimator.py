"""Strategy samplers against their analytic densities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2 as chi2_dist

from qguess.bloch import BlochVector, EnsembleDecomposition, QubitKet, Z_AXIS
from qguess.ensembles import BipartiteState
from qguess.errors import InvalidFormError, QGuessError
from qguess.estimator import (
    ABFormStrategy,
    DensityHistogram,
    GuessingForm,
    MASSAR_POPESCU_FORM,
    MassarPopescuStrategy,
    TabulatedStrategy,
    _ab_inverse_cdf,
    ab_bin_probabilities,
    cap_probability,
    chi2_threshold_999,
    collect_histogram,
    guessing_density,
    histogram_chi2,
    histogram_csv,
)
from qguess.merit import MonotoneTabulatedMerit
from qguess.nosignal import constraint_residual, cos4_density, cos4_strategy
from qguess.streams import substream

TWO_PI = 2.0 * math.pi
A_GRID = np.linspace(0.0, 1.0, 11)


# ---------------------------------------------------------------------------
# the two-parameter form

def test_form_rejects_negative_parameters():
    with pytest.raises(InvalidFormError):
        GuessingForm(-0.1, 0.2)
    with pytest.raises(InvalidFormError):
        GuessingForm(0.1, -0.2)


UNIFORM_GRID = np.linspace(0.0, math.pi, 2001)
UNIFORM_VALUES = np.full(2001, 1.0 / (4.0 * math.pi))
UNIFORM = GuessingForm(1.0 / (4.0 * math.pi), 1.0 / (4.0 * math.pi))


@pytest.mark.parametrize(
    "construct",
    [
        lambda: GuessingForm(math.nan, 0.0),
        lambda: GuessingForm(0.1, math.inf),
        lambda: BlochVector(math.nan, 0.0, 1.0),
        lambda: TabulatedStrategy(UNIFORM_GRID, np.where(np.arange(2001) == 1000, math.nan, UNIFORM_VALUES)),
        lambda: TabulatedStrategy(np.where(np.arange(2001) == 1000, math.nan, UNIFORM_GRID), UNIFORM_VALUES),
        lambda: MonotoneTabulatedMerit(np.linspace(0.0, math.pi, 5), [1.0, 0.8, math.nan, 0.4, 0.2]),
        lambda: QubitKet(math.nan, 1.0),
        lambda: EnsembleDecomposition(((math.nan, Z_AXIS),)),
        lambda: BipartiteState(np.array([[math.nan, 0.0], [0.0, 1.0]])),
        lambda: constraint_residual(cos4_density, 0.5, [[math.nan, 0.0, 1.0]]),
    ],
    ids=[
        "form-nan", "form-inf", "bloch-nan", "tabulated-nan-value", "tabulated-nan-theta", "merit-nan",
        "ket-nan", "ensemble-nan", "bipartite-nan", "direction-grid-nan",
    ],
)
def test_constructors_reject_non_finite_input(construct):
    with pytest.raises(QGuessError):
        construct()


def test_form_alpha_beta_identities():
    form = GuessingForm(0.11, 0.05)
    assert form.alpha == pytest.approx((0.11 + 0.05) / 2.0, abs=1e-15)
    assert form.beta == pytest.approx((0.11 - 0.05) / 2.0, abs=1e-15)


def test_from_a_fraction_normalization():
    for a in A_GRID:
        form = GuessingForm.from_a_fraction(a)
        assert form.is_normalized
        assert TWO_PI * (form.A + form.B) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidFormError):
        GuessingForm.from_a_fraction(1.5)
    with pytest.raises(InvalidFormError):
        GuessingForm(1.0, 1.0).require_normalized()


def test_density_endpoints_and_affine_form():
    form = GuessingForm(0.2, 0.05)
    assert guessing_density(form, 0.0) == pytest.approx(0.2, abs=1e-12)
    assert guessing_density(form, math.pi) == pytest.approx(0.05, abs=1e-12)
    t = np.linspace(0.0, math.pi, 101)
    affine = form.alpha + form.beta * np.cos(t)
    assert np.max(np.abs(guessing_density(form, t) - affine)) <= 1e-12


def test_cap_probability_closed_form_matches_quadrature():
    for form in (MASSAR_POPESCU_FORM, UNIFORM, GuessingForm(0.03, 0.21)):
        for cap in (0.2, 1.0, math.pi / 2.0, math.pi):
            ref, _ = quad(
                lambda t: guessing_density(form, t) * TWO_PI * math.sin(t), 0.0, cap,
                epsabs=1e-13, epsrel=1e-13,
            )
            assert cap_probability(form, cap) == pytest.approx(ref, abs=1e-10)


def test_cap_probability_full_sphere_is_one_for_normalized_forms():
    for a in A_GRID:
        assert cap_probability(GuessingForm.from_a_fraction(a), math.pi) == pytest.approx(
            1.0, abs=1e-12
        )
    with pytest.raises(InvalidFormError):
        cap_probability(MASSAR_POPESCU_FORM, 0.0)


def test_bin_probabilities_sum_to_one():
    edges = np.linspace(0.0, math.pi, 51)
    for a in A_GRID:
        probs = ab_bin_probabilities(GuessingForm.from_a_fraction(a), edges)
        assert probs.min() >= 0.0
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_inverse_cdf_round_trip():
    u = np.linspace(0.0, 1.0, 1001)
    for a in A_GRID:
        form = GuessingForm.from_a_fraction(a)
        t = _ab_inverse_cdf(form, u)
        cdf = (t + 1.0) / 2.0 + math.pi * form.beta * (t * t - 1.0)
        assert np.max(np.abs(cdf - u)) <= 1e-10
        assert t.min() >= -1.0 and t.max() <= 1.0


# ---------------------------------------------------------------------------
# tabulated densities

def test_tabulated_validation():
    grid = np.linspace(0.0, math.pi, 11)
    with pytest.raises(InvalidFormError):
        TabulatedStrategy(grid, -np.ones(11))
    with pytest.raises(InvalidFormError):
        TabulatedStrategy(grid[1:], np.ones(10))  # does not start at 0
    with pytest.raises(InvalidFormError):
        TabulatedStrategy(grid, np.full(11, 1.0))  # integrates to 4 pi, not 1


def test_tabulated_uniform_matches_closed_form():
    grid = np.linspace(0.0, math.pi, 2001)
    tab = TabulatedStrategy(grid, np.full(2001, 1.0 / (4.0 * math.pi)))
    assert tab.sphere_integral == pytest.approx(1.0, abs=1e-9)
    edges = np.linspace(0.0, math.pi, 51)
    closed = ab_bin_probabilities(UNIFORM, edges)
    assert np.max(np.abs(tab.bin_probabilities(edges) - closed)) <= 1e-12
    assert tab.polar_uniform(0.0) == pytest.approx(0.0, abs=1e-15)
    assert tab.polar_uniform(math.pi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bins", [25, 50])
def test_cos4_bin_probabilities_are_a_distribution(bins):
    probs = cos4_strategy().bin_probabilities(np.linspace(0.0, math.pi, bins + 1))
    assert probs.min() >= 0.0
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_cos4_polar_cos_has_the_cos4_law():
    # cos t of cos^4(t/2) has the CDF ((1 + c)/2)^3; the Kolmogorov-Smirnov
    # distance of 2^22 draws stays below its 0.999 quantile, 1.95 / sqrt(n)
    n = 1 << 22
    u = substream(5).random(n)
    c = np.sort(np.concatenate([cos4_strategy().polar_cos(part) for part in np.split(u, 16)]))
    law = ((1.0 + c) / 2.0) ** 3
    distance = max(np.max(np.arange(1, n + 1) / n - law), np.max(law - np.arange(n) / n))
    assert distance < 1.95 / math.sqrt(n)


def test_tabulated_sphere_expectation():
    grid = np.linspace(0.0, math.pi, 2001)
    tab = TabulatedStrategy(grid, np.full(2001, 1.0 / (4.0 * math.pi)))
    score = lambda t: (1.0 + np.cos(t)) / 2.0
    assert tab.sphere_expectation(score) == pytest.approx(0.5, abs=1e-9)


def test_tabulation_keeps_its_maps_finite_where_node_cosines_round_equal():
    # cos(1e-9) and cos(2e-9) round to 1: the first two cells have no width
    # in cos t, so no mass, and the density, the CDF and its inverse stay
    # finite and in range on them and on either side
    thetas = np.concatenate([[0.0, 1e-9, 2e-9], np.linspace(0.5, math.pi, 5)])
    assert np.cos(thetas[2]) == 1.0
    s = TabulatedStrategy(thetas, np.full(len(thetas), 1.0 / (4.0 * math.pi)))
    theta = np.array([0.0, 5e-10, 1e-9, 1.5e-9, 2e-9, 0.25, math.pi])
    for values in (s.density(theta), s.polar_uniform(theta)):
        assert np.all(np.isfinite(values))
    assert np.array_equal(s.polar_uniform(theta[:5]), np.zeros(5))
    u = np.concatenate([[0.0, 1e-300, 0.5], substream(6).random(200)])
    c = s.polar_cos(u)
    assert np.all(np.isfinite(c)) and c.min() >= -1.0 and c.max() <= 1.0
    assert c[0] == 1.0


# ---------------------------------------------------------------------------
# histograms

def test_histogram_validation():
    edges = np.linspace(0.0, math.pi, 6)
    with pytest.raises(ValueError):
        DensityHistogram(edges, np.array([1, 2, 3]), 6)  # wrong bin count
    with pytest.raises(ValueError):
        DensityHistogram(edges, np.array([1, 2, 3, 4, 5]), 16)  # counts do not sum
    with pytest.raises(ValueError):
        DensityHistogram(edges + 0.1, np.array([1, 2, 3, 4, 5]), 15)  # wrong span
    # integer-valued float counts are counts
    hist = DensityHistogram(edges, [1.0, 2.0, 3.0, 4.0, 5.0], np.int64(15))
    assert hist.counts.dtype == np.int64 and hist.counts.tolist() == [1, 2, 3, 4, 5]


def test_histogram_solid_angles_sum_to_sphere():
    hist = DensityHistogram(np.linspace(0.0, math.pi, 51), np.zeros(50, dtype=int), 0)
    assert float(hist.solid_angles.sum()) == pytest.approx(4.0 * math.pi, abs=1e-9)


def test_collect_histogram_deterministic_and_complete():
    mp = MassarPopescuStrategy()
    h1 = collect_histogram(mp, trials=30_000, bins=20, seed=9, workers=3)
    h2 = collect_histogram(mp, trials=30_000, bins=20, seed=9, workers=3)
    assert np.array_equal(h1.counts, h2.counts)
    assert int(h1.counts.sum()) == 30_000
    h3 = collect_histogram(mp, trials=30_000, bins=20, seed=9, workers=1)
    assert int(h3.counts.sum()) == 30_000  # different split, same coverage


@pytest.mark.parametrize(
    "strategy, seed",
    [
        (MassarPopescuStrategy(), 0),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.0)), 3),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.5)), 6),
    ],
)
def test_sampler_matches_analytic_density(strategy, seed):
    hist = collect_histogram(strategy, trials=200_000, seed=seed)
    chi2, dof = histogram_chi2(hist, strategy.bin_probabilities(hist.theta_edges))
    assert dof == 49
    assert chi2 < float(chi2_dist.ppf(0.999, dof))


def test_cos4_tabulated_sampler_matches_density():
    s4 = cos4_strategy()
    hist = collect_histogram(s4, trials=200_000, seed=4)
    chi2, dof = histogram_chi2(hist, s4.bin_probabilities(hist.theta_edges))
    assert chi2 < float(chi2_dist.ppf(0.999, dof))


def test_histogram_chi2_flags_impossible_counts():
    edges = np.linspace(0.0, math.pi, 4)
    hist = DensityHistogram(edges, np.array([1, 1, 1]), 3)
    chi2, _ = histogram_chi2(hist, np.array([0.5, 0.5, 0.0]))
    assert math.isinf(chi2)


def test_chi2_threshold_matches_scipy_quantile():
    # scipy is a test-only oracle: the package takes the quantile from math alone
    dofs = [*range(1, 2001), 10**4, 10**5, 10**6]
    thresholds = [chi2_threshold_999(dof) for dof in dofs]
    np.testing.assert_allclose(thresholds, chi2_dist.ppf(0.999, dofs), rtol=1e-13, atol=0.0)


def test_histogram_csv_round_trips():
    mp = MassarPopescuStrategy()
    hist = collect_histogram(mp, trials=5_000, bins=10, seed=2)
    probs = mp.bin_probabilities(hist.theta_edges)
    text = histogram_csv(hist, probs / hist.solid_angles)
    lines = text.strip().split("\n")
    assert lines[0] == "theta_lo,theta_hi,solid_angle,count,empirical_density,analytic_density"
    assert len(lines) == 11
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        # shortest round-trip decimals: parsing back reproduces the float exactly
        assert float(cells[0]) == hist.theta_edges[i]
        assert float(cells[2]) == hist.solid_angles[i]
        assert int(cells[3]) == hist.counts[i]
        assert float(cells[4]) == hist.empirical_density[i]
