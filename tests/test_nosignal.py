"""Decomposition indistinguishability: identity checks, quadrature oracles,
and the counting experiment."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from qguess.errors import QGuessError, UnfittableHistogramError
from qguess.estimator import (
    ABFormStrategy,
    DensityHistogram,
    GuessingForm,
    MASSAR_POPESCU_FORM,
    MassarPopescuStrategy,
    collect_histogram,
    guessing_density,
)
from qguess.nosignal import (
    DEFAULT_P_GRID,
    VERDICT_DETECTABLE,
    VERDICT_INDETERMINATE,
    VERDICT_NOT_DETECTABLE,
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
# cap-frequency quadrature

def test_cap_frequency_matches_ab_closed_form():
    form = GuessingForm.from_a_fraction(0.8)
    density = _ab_density(0.8)
    cap = 0.35
    for gamma in (0.0, 0.4, 1.2, math.pi / 2.0, 2.5, math.pi):
        closed = form.alpha * TWO_PI * (1.0 - math.cos(cap)) + form.beta * math.pi * math.sin(
            cap
        ) ** 2 * math.cos(gamma)
        assert cap_frequency(density, gamma, cap) == pytest.approx(closed, abs=1e-9)


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
    # frozen quadrature oracle for the default detection scenario
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
    # the observed gap agrees with the quadrature oracle within 5 combined se
    f_std, f_sym = expected_cap_frequencies(cos4_density, 0.9, 0.2)
    spread = math.hypot(rep.se_standard, rep.se_symmetric)
    assert abs((rep.freq_standard - rep.freq_symmetric) - (f_std - f_sym)) < 5.0 * spread


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
