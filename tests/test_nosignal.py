"""Decomposition indistinguishability: identity checks, the exact cap
frequencies against quadrature oracles, and the counting experiment."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from qguess.errors import QGuessError, UnfittableHistogramError
from qguess.estimator import (
    ABFormStrategy,
    DensityHistogram,
    GuessingForm,
    MASSAR_POPESCU_FORM,
    MassarPopescuStrategy,
    collect_histogram,
    composite_gauss_legendre,
    guessing_density,
)
from qguess.nosignal import (
    DEFAULT_P_GRID,
    VERDICT_DETECTABLE,
    VERDICT_INDETERMINATE,
    VERDICT_NOT_DETECTABLE,
    _lens,
    cap_frequency,
    constraint_residual,
    constraint_residual_grid,
    cos4_density,
    cos4_strategy,
    derive_ab_form,
    expected_cap_frequencies,
    fibonacci_directions,
    fit_ab_least_squares,
    required_trials,
    run_discrimination_experiment,
    tilt_angle,
    verdict_for,
)

TWO_PI = 2.0 * math.pi


def _ab_density(a_frac):
    form = GuessingForm.from_a_fraction(a_frac)
    return lambda t: guessing_density(form, t)


# ---------------------------------------------------------------------------
# direction grids

def test_fibonacci_directions_quasi_uniform():
    dirs = fibonacci_directions(200)
    assert dirs.shape == (200, 3)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(dirs.mean(axis=0))) < 0.02
    with pytest.raises(ValueError):
        fibonacci_directions(0)


# ---------------------------------------------------------------------------
# the decomposition identity

def test_ab_forms_satisfy_the_identity():
    dirs = fibonacci_directions(200)
    for a in np.linspace(0.0, 1.0, 5):
        density = _ab_density(a)
        for p in (0.0, 0.25, 0.5, 0.77, 1.0):
            res = constraint_residual(density, p, dirs)
            assert res.max_residual <= 1e-12


def test_cos4_violates_the_identity():
    dirs = fibonacci_directions(200)
    for p, floor in ((0.5, 1e-3), (0.9, 1e-3)):
        res = constraint_residual(cos4_density, p, dirs)
        assert res.max_residual > floor
    # degenerate mixtures give identical decompositions, so no violation
    assert constraint_residual(cos4_density, 0.0, dirs).max_residual <= 1e-15
    assert constraint_residual(cos4_density, 1.0, dirs).max_residual <= 1e-15


def test_cos4_residual_matches_moment_formula():
    # curvature term: residual = (3/16pi) * 4p(1-p) * |y^2 - z^2|
    dirs = fibonacci_directions(64)
    p = 0.8
    res = constraint_residual(cos4_density, p, dirs)
    predicted = (3.0 / (16.0 * math.pi)) * 4.0 * p * (1.0 - p) * np.abs(
        dirs[:, 1] ** 2 - dirs[:, 2] ** 2
    )
    assert np.max(np.abs(res.residuals - predicted)) <= 1e-12


def test_constraint_grid_accepts_vectors_and_defaults():
    results = constraint_residual_grid(_ab_density(0.3))
    assert [r.p for r in results] == list(DEFAULT_P_GRID)
    assert max(r.max_residual for r in results) <= 1e-12


# ---------------------------------------------------------------------------
# endpoint derivation

def test_derive_ab_form_recovers_exact_forms():
    for a in np.linspace(0.0, 1.0, 11):
        form = GuessingForm.from_a_fraction(a)
        derived = derive_ab_form(_ab_density(a))
        assert abs(derived.form.A - form.A) <= 1e-12
        assert abs(derived.form.B - form.B) <= 1e-12
        assert derived.max_deviation <= 1e-12


def test_derive_ab_form_flags_cos4():
    derived = derive_ab_form(cos4_density)
    assert derived.form.A == pytest.approx(3.0 / (2.0 * TWO_PI), abs=1e-12)
    assert derived.form.B == pytest.approx(0.0, abs=1e-12)
    # worst misfit is at t = pi/2 where the density is 3/16pi but the
    # endpoint form gives 3/8pi
    assert derived.max_deviation == pytest.approx(3.0 / (16.0 * math.pi), abs=1e-9)
    assert derived.max_deviation >= 1.0 / (8.0 * math.pi)


# ---------------------------------------------------------------------------
# exact cap frequencies

def quadrature_cap_frequency(density, axis_angle, cap_half_angle):
    """The cap frequency by 2-D quadrature over the cap: the polar angle by
    16 panels of 24-point Gauss-Legendre, the azimuth by the midpoint rule
    on 1024 points (periodic, so spectrally accurate)."""
    u, wu = composite_gauss_legendre(np.linspace(0.0, cap_half_angle, 17), 24)
    n_v = 1024
    v = (np.arange(n_v) + 0.5) * (TWO_PI / n_v)
    cos_t = np.cos(u)[:, None] * math.cos(axis_angle) + np.sin(u)[:, None] * math.sin(
        axis_angle
    ) * np.cos(v)[None, :]
    vals = np.asarray(density(np.arccos(np.clip(cos_t, -1.0, 1.0))))
    return float(np.sum(wu * np.sin(u) * vals.sum(axis=1)) * (TWO_PI / n_v))


def lens_quadrature(c, beta, k):
    """(area, moment) of `_lens` by 1-D quadrature over the cap's polar
    angle u of the arc length 2 V(u) of {m.a >= c} on its circle of latitude
    (and of m.a along that arc), split where V(u) has a kink."""
    gamma, t = math.acos(k), math.acos(c)

    def half_arc(u):
        den = math.sin(u) * math.sin(beta)
        num = c - math.cos(u) * math.cos(beta)
        if den == 0.0:
            return math.pi if num <= 0.0 else 0.0
        return math.acos(max(-1.0, min(1.0, num / den)))

    def moment(u):
        arc = half_arc(u)
        return 2.0 * math.sin(u) * (arc * math.cos(u) * math.cos(beta) + math.sin(u) * math.sin(beta) * math.sin(arc))

    kinks = [x for x in (abs(beta - t), beta + t, TWO_PI - beta - t) if 0.0 < x < gamma] or None
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400, points=kinks)
    return (quad(lambda u: 2.0 * math.sin(u) * half_arc(u), 0.0, gamma, **opts)[0],
            quad(moment, 0.0, gamma, **opts)[0])


def test_cap_frequency_matches_ab_closed_form():
    # alpha 2 pi (1 - k) + beta pi sin^2(cap) cos(axis), k = cos(cap): the
    # table of a two-parameter form is exact, and the integral normalizes it
    # by the exact sum of its cells
    for a_frac in (0.0, 0.5, 0.8, 1.0):
        form = GuessingForm.from_a_fraction(a_frac)
        density = _ab_density(a_frac)
        for cap in (0.05, 0.2, 0.35, 0.5, 1.5, 2.8, math.pi):
            k = math.cos(cap)
            for axis in (*np.linspace(0.0, math.pi, 41), cap, math.pi - cap):
                closed = form.alpha * TWO_PI * (1.0 - k) + form.beta * math.pi * (1.0 - k) * (1.0 + k) * math.cos(axis)
                assert abs(cap_frequency(density, axis, cap) - closed) <= 1e-15, (a_frac, cap, axis)


def test_cap_frequency_matches_the_quadrature_of_the_renormalized_table():
    # the quadrature's own error grows with the table's kinks inside the cap;
    # the axis angles hold 0, pi and the edges cap and pi - cap, where the
    # cap's edge passes through the axis or its antipode
    table = cos4_strategy()
    sampled = lambda t: table.density(t) / table.sphere_integral  # noqa: E731
    for cap, tol in ((0.05, 2e-12), (0.2, 2e-12), (0.5, 1e-10), (1.5, 1e-8), (3.0, 1e-8), (math.pi, 1e-8)):
        for axis in (*np.linspace(0.0, math.pi, 9), cap, math.pi - cap, tilt_angle(0.9)):
            exact = cap_frequency(cos4_density, axis, cap)
            assert abs(exact - quadrature_cap_frequency(sampled, axis, cap)) <= tol, (cap, axis)


def test_cap_frequency_at_axis_angle_0_is_the_tables_cdf():
    table = cos4_strategy()
    for cap in np.linspace(0.01, math.pi, 60):
        assert abs(cap_frequency(cos4_density, 0.0, cap) - table.polar_uniform(cap)) <= 4e-15, cap


def test_cap_frequency_at_axis_angle_0_matches_1d_quadrature():
    for a_frac in (0.0, 0.3, 0.5, 1.0):
        density = _ab_density(a_frac)
        for cap in (0.2, 1.0, math.pi / 2.0, math.pi):
            ref, _ = quad(lambda t: density(t) * TWO_PI * math.sin(t), 0.0, cap, epsabs=1e-14, epsrel=1e-14)
            assert abs(cap_frequency(density, 0.0, cap) - ref) <= 1e-14


def test_cap_frequency_of_the_whole_sphere_is_one():
    for a_frac in np.linspace(0.0, 1.0, 11):
        for axis in (*np.linspace(0.0, math.pi, 13), 5e-324):
            assert abs(cap_frequency(_ab_density(a_frac), axis, math.pi) - 1.0) <= 1e-15
    for axis in np.linspace(0.0, math.pi, 41):
        assert abs(cap_frequency(cos4_density, axis, math.pi) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        cap_frequency(_ab_density(1.0), 0.0, 0.0)


def test_cap_frequency_is_even_and_2pi_periodic_in_the_axis_angle():
    for cap in (0.2, 1.0, 2.5):
        for axis in (0.1, 0.2, 1.0, tilt_angle(0.9), math.pi - cap, 3.0):
            f = cap_frequency(cos4_density, axis, cap)
            for turned in (-axis, TWO_PI - axis, axis - TWO_PI, axis + 4.0 * math.pi):
                assert abs(cap_frequency(cos4_density, turned, cap) - f) <= 1e-15, (cap, axis, turned)
        # the axis on the pole, at the least double off it, and on the antipode
        pole = cap_frequency(cos4_density, 0.0, cap)
        assert abs(cap_frequency(cos4_density, 5e-324, cap) - pole) <= 1e-15
        assert abs(cap_frequency(cos4_density, -5e-324, cap) - pole) <= 1e-15
        antipode = cap_frequency(cos4_density, math.pi, cap)
        assert 0.0 <= antipode < pole <= 1.0


LENS_CASES = [(beta, cap) for beta in (0.1, 0.7, 1.3, 2.0, 2.9) for cap in (0.05, 0.6, 1.3, 2.2, 3.0)]


@pytest.mark.parametrize("beta, cap", LENS_CASES)
def test_lens_is_continuous_across_its_case_boundaries(beta, cap):
    # c on each tangency, t + gamma = beta, beta + gamma = t, beta + t = gamma
    # and t + gamma + beta = 2 pi, and at the next double either side of it
    gamma = math.acos(math.cos(cap))
    for t in (beta - gamma, gamma - beta, beta + gamma, TWO_PI - beta - gamma):
        if 0.0 <= t <= math.pi:
            c = math.cos(t)
            area, moment = _lens(np.array([math.nextafter(c, -2.0), c, math.nextafter(c, 2.0)]), beta, math.cos(cap))
            assert np.ptp(area) <= 1e-13 and np.ptp(moment) <= 1e-13, t
            want = lens_quadrature(c, beta, math.cos(cap))
            assert abs(area[1] - want[0]) <= 1e-13 and abs(moment[1] - want[1]) <= 1e-13, t


def test_lens_matches_the_quadrature_of_its_arc_length_kernel():
    rng = np.random.default_rng(15)
    for beta, cap, c in zip(rng.uniform(0.0, math.pi, 60), rng.uniform(0.01, math.pi, 60), rng.uniform(-1.0, 1.0, 60)):
        area, moment = _lens(np.array([c]), beta, math.cos(cap))
        want = lens_quadrature(c, beta, math.cos(cap))
        assert abs(area[0] - want[0]) <= 5e-14 and abs(moment[0] - want[1]) <= 5e-14, (beta, cap, c)


def test_cap_frequency_matches_adaptive_2d_quadrature():
    gamma, cap = 1.1, 0.2

    def integrand(v, u):
        ct = math.cos(u) * math.cos(gamma) + math.sin(u) * math.sin(gamma) * math.cos(v)
        return cos4_density(math.acos(max(-1.0, min(1.0, ct)))) * math.sin(u)

    ref, _ = dblquad(integrand, 0.0, cap, 0.0, TWO_PI, epsabs=1e-12)
    assert cap_frequency(cos4_density, gamma, cap) == pytest.approx(ref, abs=1e-8)
    with pytest.raises(ValueError):
        cap_frequency(cos4_density, 0.0, 0.0)


def test_expected_cap_frequencies_agree_for_ab_forms():
    for a in (0.0, 0.5, 1.0):
        f_std, f_sym = expected_cap_frequencies(_ab_density(a), 0.9, 0.2)
        assert abs(f_std - f_sym) <= 1e-10


def test_expected_cap_frequencies_gap_for_cos4():
    f_std, f_sym = expected_cap_frequencies(cos4_density, 0.9, 0.2)
    # frozen from the 2-D quadrature of cos4_density itself for the default
    # detection scenario; the exact integral of its renormalized table reads
    # 0.0026110845968, 4.0e-10 away
    assert abs(f_std - f_sym) == pytest.approx(0.0026110849994701313, abs=1e-9)


def test_required_trials_scales_with_the_gap():
    n = required_trials(cos4_density, 0.9, 0.2)
    f_std, f_sym = expected_cap_frequencies(cos4_density, 0.9, 0.2)
    gap = abs(f_std - f_sym)
    variance = f_std * (1.0 - f_std) + f_sym * (1.0 - f_sym)
    # expected z at the derived count clears threshold + power margin
    assert gap * math.sqrt(n / variance) > 8.0
    assert 1e5 < n < 5e6
    # the signal-detect benchmark workload runs this many trials per arm
    assert n == 568_954
    for value in (1.0 / (4.0 * math.pi), math.nan, math.inf):
        with pytest.raises(QGuessError):
            required_trials(lambda t, value=value: np.full(np.shape(t), value), 0.9, 0.2)
    # every two-parameter form: their gaps are rounding
    for a in (0.0, 0.5, 1.0):
        with pytest.raises(QGuessError):
            required_trials(_ab_density(a), 0.9, 0.2)


# ---------------------------------------------------------------------------
# the counting experiment

def test_verdict_bands():
    assert verdict_for(3.9) == VERDICT_NOT_DETECTABLE
    assert verdict_for(4.5) == VERDICT_INDETERMINATE
    assert verdict_for(5.1) == VERDICT_DETECTABLE


def test_discrimination_is_reproducible():
    mp = MassarPopescuStrategy()
    r1 = run_discrimination_experiment(mp, 0.7, trials=20_000, seed=1)
    r2 = run_discrimination_experiment(mp, 0.7, trials=20_000, seed=1)
    assert r1 == r2
    assert r1.trials == 20_000
    assert 0.0 <= r1.freq_standard <= 1.0


def test_ab_strategies_are_not_detectable():
    for i, p in enumerate(DEFAULT_P_GRID):
        rep = run_discrimination_experiment(
            MassarPopescuStrategy(), p, trials=100_000, seed=0, stream_block=i
        )
        assert rep.z < 4.0, (p, rep.z)
        assert rep.verdict == VERDICT_NOT_DETECTABLE
    rep = run_discrimination_experiment(
        ABFormStrategy(GuessingForm.from_a_fraction(0.7)), 0.8, trials=100_000, seed=3
    )
    assert rep.verdict == VERDICT_NOT_DETECTABLE


def test_cos4_is_detectable_at_the_derived_trial_count():
    n = required_trials(cos4_density, 0.9, 0.2)
    rep = run_discrimination_experiment(cos4_strategy(), 0.9, trials=n, seed=0)
    assert rep.z > 5.0
    assert rep.verdict == VERDICT_DETECTABLE
    # the observed gap agrees with the exact frequencies within 5 combined se
    f_std, f_sym = expected_cap_frequencies(cos4_density, 0.9, 0.2)
    spread = math.hypot(rep.se_standard, rep.se_symmetric)
    assert abs((rep.freq_standard - rep.freq_symmetric) - (f_std - f_sym)) < 5.0 * spread


def pooled_cap_z(strategy, want, seeds, n):
    """Each arm's z of its hits pooled over runs of n trials at these seeds
    (p 0.9, cap 0.2) against the cap frequencies `want`."""
    hits = np.zeros(2)
    for seed in seeds:
        rep = run_discrimination_experiment(strategy, 0.9, cap_half_angle=0.2, trials=n, seed=seed)
        hits += [round(rep.freq_standard * n), round(rep.freq_symmetric * n)]
    pooled = len(seeds) * n
    return (hits / pooled - want) / np.sqrt(np.multiply(want, np.subtract(1.0, want)) / pooled)


def test_cos4_cap_counts_pooled_over_seeds_have_the_tabulated_law():
    # seeds 0-3599, the first 3600, at the criterion-5 trial count: each
    # arm's hits pooled over 2.0e9 trials, whose SE (3.6e-6) is a sixtieth
    # of one run's, against the exact cap integral of the law actually
    # sampled, the renormalized table, so a bias of a tenth of one run's SE
    # moves z by 6. The table's own density tabulates to the same table, so
    # it has the frequencies of cos4_density.
    strategy = cos4_strategy()
    n = required_trials(cos4_density, 0.9, 0.2)
    want = expected_cap_frequencies(strategy.density, 0.9, 0.2)
    assert np.allclose(want, expected_cap_frequencies(cos4_density, 0.9, 0.2), rtol=0.0, atol=1e-8)
    z = pooled_cap_z(strategy, want, range(3600), n)
    assert np.all(np.abs(z) <= 4.0), z


def test_ab_cap_counts_pooled_over_seeds_have_the_closed_form_law():
    # a_frac 0.5, seeds 0-199 at the criterion-5 trial count, as for cos4:
    # each arm's pooled SE is 9.3e-6, and the exact integral agrees within
    # 1e-12 with the closed form alpha 2 pi (1 - cos cap) + beta pi
    # sin^2(cap) (2p - 1), the same for both arms, as the two decompositions
    # share their mean z
    strategy = ABFormStrategy(GuessingForm.from_a_fraction(0.5))
    n = required_trials(cos4_density, 0.9, 0.2)
    want = expected_cap_frequencies(strategy.density, 0.9, 0.2)
    form = strategy.form
    closed = form.alpha * TWO_PI * (1.0 - math.cos(0.2)) + form.beta * math.pi * math.sin(0.2) ** 2 * 0.8
    assert np.allclose(want, closed, rtol=0.0, atol=1e-12)
    z = pooled_cap_z(strategy, want, range(200), n)
    assert np.all(np.abs(z) <= 4.0), z


@pytest.mark.parametrize("cap", [0.001, 3.14159])
def test_zero_spread_is_indeterminate(cap):
    # two trials per arm all miss the tiny cap, or all land in the near-full one
    rep = run_discrimination_experiment(MassarPopescuStrategy(), 0.9, cap_half_angle=cap, trials=2)
    assert rep.se_standard == rep.se_symmetric == 0.0
    assert rep.freq_standard == rep.freq_symmetric == (0.0 if cap < 1.0 else 1.0)
    assert rep.z is None
    assert rep.verdict == VERDICT_INDETERMINATE


def test_report_dict_shape():
    rep = run_discrimination_experiment(MassarPopescuStrategy(), 0.5, trials=5_000, seed=2)
    d = rep.as_dict()
    assert list(d) == [
        "p", "cap_half_angle", "trials", "freq_standard", "freq_symmetric",
        "se_standard", "se_symmetric", "z", "verdict", "seed",
    ]


@pytest.mark.parametrize("strategy", [ABFormStrategy(GuessingForm.from_a_fraction(0.7)), cos4_strategy()],
                         ids=["ab", "cos4"])
def test_report_floats_are_python_floats(strategy):
    # at p = 0.9 both arms count cap hits from the drawn polar uniform
    rep = run_discrimination_experiment(strategy, 0.9, trials=40_000, seed=1)
    for name in ("p", "cap_half_angle", "freq_standard", "freq_symmetric", "se_standard", "se_symmetric", "z"):
        assert type(getattr(rep, name)) is float, name


# ---------------------------------------------------------------------------
# least-squares form recovery

def test_fit_recovers_massar_popescu():
    hist = collect_histogram(MassarPopescuStrategy(), trials=1_000_000, seed=0)
    fit = fit_ab_least_squares(hist)
    assert abs(fit.A - MASSAR_POPESCU_FORM.A) <= 3.0 * fit.se_A
    assert abs(fit.B) <= 3.0 * fit.se_B
    assert fit.dof == 48
    assert fit.chi2 < 2.0 * fit.dof


def test_fit_recovers_uniform_and_reversed_forms():
    for a_frac, seed in ((0.5, 6), (0.0, 3)):
        form = GuessingForm.from_a_fraction(a_frac)
        hist = collect_histogram(ABFormStrategy(form), trials=200_000, seed=seed)
        fit = fit_ab_least_squares(hist)
        assert abs(fit.A - form.A) <= 3.0 * fit.se_A
        assert abs(fit.B - form.B) <= 3.0 * fit.se_B


def test_fit_errors_shrink_with_sample_size():
    small = fit_ab_least_squares(collect_histogram(MassarPopescuStrategy(), trials=100_000, seed=1))
    large = fit_ab_least_squares(collect_histogram(MassarPopescuStrategy(), trials=400_000, seed=1))
    assert large.se_A < small.se_A
    assert small.se_A / large.se_A == pytest.approx(2.0, rel=0.3)


def test_fit_alpha_beta_consistency():
    hist = collect_histogram(MassarPopescuStrategy(), trials=100_000, seed=2)
    fit = fit_ab_least_squares(hist)
    assert fit.A == pytest.approx(fit.alpha + fit.beta, abs=1e-15)
    assert fit.B == pytest.approx(fit.alpha - fit.beta, abs=1e-15)


def test_unfittable_histograms_raise():
    edges = np.linspace(0.0, math.pi, 51)
    counts = np.zeros(50, dtype=int)
    counts[3] = 1000
    with pytest.raises(UnfittableHistogramError):
        fit_ab_least_squares(DensityHistogram(edges, counts, 1000))
