"""Property tests (hypothesis, derandomized) for trial splitting, the
closed-form samplers and the tabulated inverse CDF's guide-table bracket."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qguess.estimator import GuessingForm, _ab_inverse_cdf, cap_probability
from qguess.streams import batch_sizes, split_trials
from test_kernels import interp_inverse_cdf, normalized_tabulated

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

a_fractions = st.floats(0.0, 1.0)
unit_keys = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64)


@PROPERTY
@given(trials=st.integers(1, 10**9), workers=st.integers(1, 256))
def test_split_trials_partitions_evenly(trials, workers):
    parts = split_trials(trials, workers)
    assert len(parts) == workers
    assert sum(parts) == trials
    assert max(parts) - min(parts) <= 1
    assert parts == sorted(parts, reverse=True)


@PROPERTY
@given(n=st.integers(0, 10**7), cap=st.integers(1, 1 << 20))
def test_batch_sizes_partition_into_full_batches(n, cap):
    sizes = batch_sizes(n, cap)
    assert sum(sizes) == n
    assert all(m == cap for m in sizes[:-1])
    assert all(0 < m <= cap for m in sizes)


@PROPERTY
@given(a_frac=a_fractions, keys=unit_keys)
def test_ab_inverse_cdf_is_monotone_within_bounds(a_frac, keys):
    form = GuessingForm.from_a_fraction(a_frac)
    u = np.sort(np.concatenate([keys, [0.0, 1.0]]))
    t = _ab_inverse_cdf(form, u)
    assert np.all(np.diff(t) >= 0.0)
    assert t.min() >= -1.0 and t.max() <= 1.0


@PROPERTY
@given(a_frac=a_fractions)
def test_full_cap_holds_all_probability(a_frac):
    assert abs(cap_probability(GuessingForm.from_a_fraction(a_frac), math.pi) - 1.0) <= 1e-12


GRID = np.linspace(0.0, math.pi, 64)


@st.composite
def tabulated_strategies(draw):
    """Valid tabulated densities on random sub-grids of a 64-node grid, with
    zero-density stretches (flat CDF cells) drawn often."""
    inner = draw(st.lists(st.integers(1, len(GRID) - 2), max_size=12, unique=True))
    thetas = GRID[sorted({0, len(GRID) - 1, *inner})]
    level = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    values = draw(st.lists(level, min_size=len(thetas), max_size=len(thetas)))
    values = np.asarray(values)
    if not np.any(values[:-1] + values[1:] > 0.0):
        values[draw(st.integers(0, len(values) - 1))] = 1.0
    return normalized_tabulated(thetas, values)


@PROPERTY
@given(strategy=tabulated_strategies(), keys=unit_keys)
def test_guide_table_bracket_matches_binary_search(strategy, keys):
    xp = strategy._cdf / strategy.sphere_integral
    assert np.all(np.diff(xp) >= 0.0)
    u = np.concatenate([keys, xp[xp < 1.0], [0.0]])
    want = np.searchsorted(xp, u, side="right") - 1
    assert np.array_equal(strategy._cdf_cell(u), want)
    assert strategy.inverse_cdf(u).tobytes() == interp_inverse_cdf(strategy, u).tobytes()
