"""Merit averages, the affine scan, and Monte Carlo fidelity."""

import math

import numpy as np
import pytest

from qguess.errors import QGuessError
from qguess.estimator import (
    ABFormStrategy,
    GuessingForm,
    MASSAR_POPESCU_FORM,
    MassarPopescuStrategy,
)
from qguess.merit import (
    FidelityMerit,
    MonotoneTabulatedMerit,
    average_fidelity_exact,
    average_merit,
    expected_fidelity,
    monte_carlo_fidelity,
    named_merit,
    optimize_ab,
    reverse_outcomes,
)
from qguess.nosignal import cos4_strategy

A_GRID = np.linspace(0.0, 1.0, 11)


def test_fidelity_merit_endpoints():
    m = FidelityMerit()
    assert m.score(0.0) == pytest.approx(1.0, abs=1e-15)
    assert m.score(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert m.score(math.pi / 2.0) == pytest.approx(0.5, abs=1e-15)


def test_tabulated_merit_validation():
    grid = np.linspace(0.0, math.pi, 5)
    with pytest.raises(QGuessError):
        MonotoneTabulatedMerit(grid, [0.0, 0.2, 0.4, 0.6, 0.8])  # increasing
    with pytest.raises(QGuessError):
        MonotoneTabulatedMerit(grid, [1.2, 0.8, 0.6, 0.4, 0.2])  # above 1
    with pytest.raises(QGuessError):
        MonotoneTabulatedMerit(grid[:-1], [1.0, 0.8, 0.6, 0.4])  # grid stops early
    constant = MonotoneTabulatedMerit(grid, [0.5] * 5)
    assert constant.score(1.234) == pytest.approx(0.5, abs=1e-15)


def test_named_merits():
    assert named_merit("fidelity").label == "fidelity"
    assert named_merit("cos4").label == "cos4"
    assert named_merit("constant").label == "constant"
    with pytest.raises(QGuessError):
        named_merit("nope")


def test_closed_form_reference_values():
    assert average_fidelity_exact(MASSAR_POPESCU_FORM) == pytest.approx(2.0 / 3.0, abs=1e-12)
    uniform = GuessingForm(1.0 / (4.0 * math.pi), 1.0 / (4.0 * math.pi))
    assert average_fidelity_exact(uniform) == pytest.approx(0.5, abs=1e-12)
    assert average_fidelity_exact(reverse_outcomes(MASSAR_POPESCU_FORM)) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_quadrature_matches_closed_form_across_family():
    merit = FidelityMerit()
    for a in A_GRID:
        form = GuessingForm.from_a_fraction(a)
        assert average_merit(form, merit) == pytest.approx(
            average_fidelity_exact(form), abs=1e-10
        )


def test_average_merit_requires_normalized_form():
    with pytest.raises(QGuessError):
        average_merit(GuessingForm(0.3, 0.3), FidelityMerit())


def test_constant_merit_averages_to_its_value():
    merit = named_merit("constant")
    for a in (0.0, 0.3, 1.0):
        assert average_merit(GuessingForm.from_a_fraction(a), merit) == pytest.approx(
            0.5, abs=1e-10
        )


def test_three_point_collinearity():
    for merit in (FidelityMerit(), named_merit("cos4"), named_merit("constant")):
        v0 = average_merit(GuessingForm.from_a_fraction(0.0), merit)
        v_half = average_merit(GuessingForm.from_a_fraction(0.5), merit)
        v1 = average_merit(GuessingForm.from_a_fraction(1.0), merit)
        assert abs(v_half - 0.5 * (v0 + v1)) <= 1e-10


def test_optimize_fidelity_peaks_at_pure_cosine_form():
    result = optimize_ab(FidelityMerit())
    assert result.a_fractions[result.best_index] == 1.0
    assert result.best_form.B == 0.0
    assert result.best_value == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert not result.tie


def test_optimize_monotone_tabulated_merit_peaks_at_same_endpoint():
    result = optimize_ab(named_merit("cos4"))
    assert result.a_fractions[result.best_index] == 1.0
    assert not result.tie


def test_optimize_constant_merit_reports_tie():
    result = optimize_ab(named_merit("constant"))
    assert result.tie


def test_reverse_outcomes_involution_and_sum_rule():
    for a in A_GRID:
        form = GuessingForm.from_a_fraction(a)
        rev = reverse_outcomes(form)
        assert (rev.A, rev.B) == (form.B, form.A)
        back = reverse_outcomes(rev)
        assert (back.A, back.B) == (form.A, form.B)
        # score(t) + score(pi - t) = 1 for fidelity, so the averages sum to 1
        assert average_fidelity_exact(form) + average_fidelity_exact(rev) == pytest.approx(
            1.0, abs=1e-12
        )


def test_expected_fidelity_per_strategy():
    assert expected_fidelity(MassarPopescuStrategy()) == pytest.approx(2.0 / 3.0, abs=1e-12)
    ab = ABFormStrategy(GuessingForm.from_a_fraction(0.5))
    assert expected_fidelity(ab) == pytest.approx(0.5, abs=1e-12)
    assert expected_fidelity(cos4_strategy()) == pytest.approx(0.75, abs=1e-6)


def test_monte_carlo_fidelity_matches_analytic_values():
    cases = [
        (MassarPopescuStrategy(), 2.0 / 3.0, 1),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.5)), 0.5, 2),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.0)), 1.0 / 3.0, 3),
        (cos4_strategy(), 0.75, 4),
    ]
    for strategy, exact, seed in cases:
        rep = monte_carlo_fidelity(strategy, trials=200_000, seed=seed)
        assert rep.std_error > 0.0
        assert abs(rep.value - exact) < 4.0 * rep.std_error, (exact, rep.value)


def test_monte_carlo_fidelity_deterministic_per_worker_count():
    mp = MassarPopescuStrategy()
    a = monte_carlo_fidelity(mp, trials=50_000, seed=7, workers=3)
    b = monte_carlo_fidelity(mp, trials=50_000, seed=7, workers=3)
    assert a == b
    c = monte_carlo_fidelity(mp, trials=50_000, seed=7, workers=1)
    assert abs(c.value - 2.0 / 3.0) < 4.0 * c.std_error
