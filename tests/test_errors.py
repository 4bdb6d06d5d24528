"""Out-of-range arguments raise QGuessError, the one type a library caller
can catch (it derives from ValueError)."""

import math

import numpy as np
import pytest

from qguess.bloch import DensityOperator, QubitKet
from qguess.ensembles import (
    AliceBasis,
    BipartiteState,
    build_psi,
    rotated_alice_basis,
    standard_decomposition,
    symmetric_decomposition,
    tilt_angle,
)
from qguess.errors import QGuessError
from qguess.estimator import (
    DensityHistogram,
    GuessingForm,
    MassarPopescuStrategy,
    TabulatedStrategy,
    chi2_threshold_999,
    collect_histogram,
    histogram_chi2,
    histogram_csv,
)
from qguess.merit import FidelityMerit, MonotoneTabulatedMerit, average_merit, monte_carlo_fidelity
from qguess.nosignal import (
    cap_frequency,
    constraint_residual,
    cos4_density,
    derive_ab_form,
    expected_cap_frequencies,
    fibonacci_directions,
    run_discrimination_experiment,
)
from qguess.streams import split_trials, substream

EDGES = np.linspace(0.0, math.pi, 3)
KET = QubitKet.from_amplitudes(1.0, 0.0)


def nan_density(theta):
    return np.full(np.shape(theta), math.nan)


def cos4_with_a_nan_gap(theta):
    return np.where((theta > 1.0) & (theta < 1.01), math.nan, cos4_density(theta))


class NanMerit(FidelityMerit):
    def score(self, theta):
        return nan_density(theta)


SITES = {
    "collect_histogram(bins=1)": lambda: collect_histogram(MassarPopescuStrategy(), trials=10, bins=1),
    "monte_carlo_fidelity(trials=1)": lambda: monte_carlo_fidelity(MassarPopescuStrategy(), trials=1),
    "run_discrimination_experiment(trials=1)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), 0.8, trials=1),
    "fibonacci_directions(0)": lambda: fibonacci_directions(0),
    "fibonacci_directions(2.5)": lambda: fibonacci_directions(2.5),
    "fibonacci_directions(True)": lambda: fibonacci_directions(True),
    "histogram_chi2(nan probability)": lambda: histogram_chi2(
        DensityHistogram(EDGES, [1, 1], 2), [0.5, math.nan]),
    "histogram_chi2(negative probability)": lambda: histogram_chi2(
        DensityHistogram(EDGES, [1, 1], 2), [1.5, -0.5]),
    "cap_frequency(axis_angle=nan)": lambda: cap_frequency(cos4_density, math.nan, 0.2),
    "cap_frequency(axis_angle=inf)": lambda: cap_frequency(cos4_density, math.inf, 0.2),
    "histogram edges and counts": lambda: DensityHistogram(EDGES, [1, 1, 1], 3),
    "histogram span": lambda: DensityHistogram(np.linspace(0.1, math.pi, 3), [1, 1], 2),
    "histogram widths": lambda: DensityHistogram([0.0, 1.0, math.pi], [1, 1], 2),
    "histogram counts sum": lambda: DensityHistogram(EDGES, [1, 1], 3),
    # numpy would truncate these counts to [2, 2], or fail on nan with its own error
    "histogram fractional counts": lambda: DensityHistogram(EDGES, [2.5, 2.5], 4),
    "histogram nan count": lambda: DensityHistogram(EDGES, [math.nan, 2], 2),
    "histogram 2-d counts": lambda: DensityHistogram(EDGES, [[1], [1]], 2),
    "histogram 2-d edges": lambda: DensityHistogram(EDGES[:, None], [1, 1], 2),
    "histogram float trials": lambda: DensityHistogram(EDGES, [2, 2], 4.0),
    "histogram bool trials": lambda: DensityHistogram(EDGES, [1, 0], True),
    "chi2_threshold_999(0)": lambda: chi2_threshold_999(0),
    "chi2_threshold_999(-1)": lambda: chi2_threshold_999(-1),
    "chi2_threshold_999(2.5)": lambda: chi2_threshold_999(2.5),
    "chi2_threshold_999(True)": lambda: chi2_threshold_999(True),
    "chi2_threshold_999(2**53 + 1)": lambda: chi2_threshold_999(2**53 + 1),
    "histogram_chi2 short probabilities": lambda: histogram_chi2(DensityHistogram(EDGES, [1, 1], 2), [1.0]),
    "histogram_chi2 long probabilities": lambda: histogram_chi2(
        DensityHistogram(EDGES, [1, 1], 2), [0.5, 0.25, 0.25]),
    "histogram_csv short density": lambda: histogram_csv(DensityHistogram(EDGES, [1, 1], 2), [0.1]),
    "histogram_csv long density": lambda: histogram_csv(DensityHistogram(EDGES, [1, 1], 2), [0.1, 0.1, 0.1]),
    # a density or merit that gives nan
    "constraint_residual(nan density)": lambda: constraint_residual(nan_density, 0.8, fibonacci_directions(10)),
    "cap_frequency(nan density)": lambda: cap_frequency(nan_density, 0.0, 0.2),
    # finite at both endpoints, so only the grid check sees the gap
    "derive_ab_form(nan inside [0, pi])": lambda: derive_ab_form(cos4_with_a_nan_gap),
    "average_merit(nan merit)": lambda: average_merit(GuessingForm.from_a_fraction(1.0), NanMerit()),
    "substream seed": lambda: substream(-1),
    "substream worker": lambda: substream(0, worker=-1),
    "split_trials trials": lambda: split_trials(0, 1),
    "split_trials workers": lambda: split_trials(5, 0),
    # float() would take a bool as 0 or 1 and a numeric string as its number
    "build_psi(True)": lambda: build_psi(True),
    "standard_decomposition('0.5')": lambda: standard_decomposition("0.5"),
    "symmetric_decomposition(True)": lambda: symmetric_decomposition(True),
    "tilt_angle(np.True_)": lambda: tilt_angle(np.True_),
    "rotated_alice_basis('0.5')": lambda: rotated_alice_basis("0.5"),
    "run_discrimination_experiment(p=True)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), True, trials=100),
    "run_discrimination_experiment(p='0.5')": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), "0.5", trials=100),
    "run_discrimination_experiment(cap_half_angle=True)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), 0.8, cap_half_angle=True, trials=100),
    "cap_frequency(cap_half_angle=True)": lambda: cap_frequency(cos4_density, 0.0, True),
    "cap_frequency(cap_half_angle='0.2')": lambda: cap_frequency(cos4_density, 0.0, "0.2"),
    "expected_cap_frequencies(cap_half_angle=True)": lambda: expected_cap_frequencies(cos4_density, 0.9, True),
    "GuessingForm.from_a_fraction(True)": lambda: GuessingForm.from_a_fraction(True),
    "GuessingForm.from_a_fraction('0.5')": lambda: GuessingForm.from_a_fraction("0.5"),
    "cap_frequency(axis_angle=True)": lambda: cap_frequency(cos4_density, True, 0.2),
    "cap_frequency(axis_angle='0.5')": lambda: cap_frequency(cos4_density, "0.5", 0.2),
    "run_discrimination_experiment(cap_half_angle=0.0)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), 0.8, cap_half_angle=0.0, trials=100),
    "run_discrimination_experiment(cap_half_angle=4.0)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), 0.8, cap_half_angle=4.0, trials=100),
    "run_discrimination_experiment(cap_half_angle=nan)": lambda: run_discrimination_experiment(
        MassarPopescuStrategy(), 0.8, cap_half_angle=math.nan, trials=100),
    "constraint_residual(2-vectors)": lambda: constraint_residual(cos4_density, 0.8, [[1.0, 0.0]]),
    "constraint_residual(no directions)": lambda: constraint_residual(cos4_density, 0.8, np.empty((0, 3))),
    "TabulatedStrategy(3 thetas, 2 values)": lambda: TabulatedStrategy(EDGES, [0.1, 0.1]),
    "MonotoneTabulatedMerit(3 thetas, 2 scores)": lambda: MonotoneTabulatedMerit(EDGES, [1.0, 0.5]),
    "QubitKet.from_amplitudes(0, 0)": lambda: QubitKet.from_amplitudes(0, 0),
    "DensityOperator(3x3)": lambda: DensityOperator(np.eye(3) / 3),
    "BipartiteState(3x3)": lambda: BipartiteState(np.eye(3)),
    "AliceBasis(k, k)": lambda: AliceBasis(KET, KET),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_out_of_range_arguments_raise_qguess_error(site):
    with pytest.raises(ValueError) as info:
        SITES[site]()
    assert isinstance(info.value, QGuessError)
