"""Out-of-range arguments raise QGuessError, the one type a library caller
can catch (it derives from ValueError)."""

import math

import numpy as np
import pytest

from qguess.errors import QGuessError
from qguess.estimator import DensityHistogram, MassarPopescuStrategy, collect_histogram, histogram_chi2
from qguess.merit import monte_carlo_fidelity
from qguess.nosignal import cap_frequency, cos4_density, fibonacci_directions, run_discrimination_experiment
from qguess.streams import split_trials, substream

EDGES = np.linspace(0.0, math.pi, 3)

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
    "substream seed": lambda: substream(-1),
    "substream worker": lambda: substream(0, worker=-1),
    "split_trials trials": lambda: split_trials(0, 1),
    "split_trials workers": lambda: split_trials(5, 0),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_out_of_range_arguments_raise_qguess_error(site):
    with pytest.raises(ValueError) as info:
        SITES[site]()
    assert isinstance(info.value, QGuessError)
