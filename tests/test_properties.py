"""Property tests (hypothesis, derandomized) for trial splitting, row
blocks, the closed-form samplers, the tabulated polar_cos's guide-table bracket,
the discrimination's recycled polar uniforms and their edges in word
indices, and its cap counts over arbitrary decompositions."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qguess.bloch import BlochVector, EnsembleDecomposition
from qguess.estimator import (
    ABFormStrategy,
    GuessingForm,
    TabulatedStrategy,
    _ab_inverse_cdf,
    ab_bin_probabilities,
    cap_probability,
    guessing_density,
)
from qguess.nosignal import _member_index, _recycled, _recycled_uniforms, _word_edges, cos4_strategy
from qguess.streams import ROW_BLOCK, map_blocks, split_trials, substream
from test_kernels import (
    LATTICE,
    block_major_cap_hits,
    least_word,
    mapped_hits,
    normalized_tabulated,
    searchsorted_polar_cos,
)

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
@given(trials=st.integers(1, 10**5), workers=st.integers(1, 4), rows=st.integers(1, 1 << 20))
def test_row_blocks_partition_each_batch_into_full_blocks(trials, workers, rows):
    [blocks] = map_blocks([(lambda rng, lo, hi: (lo, hi), 0, rows)], 0, trials, workers)
    # each worker's batch, from its block at row 0, is consecutive blocks up
    # to its row m
    batches = []
    for lo, hi in blocks:
        if lo == 0:
            batches.append([])
        batches[-1].append((lo, hi))
    assert [batch[-1][1] for batch in batches] == [m for m in split_trials(trials, workers) if m]
    for batch in batches:
        assert [lo for lo, _ in batch] == [0, *(hi for _, hi in batch[:-1])]
        assert all(hi - lo == rows for lo, hi in batch[:-1])
        assert all(0 < hi - lo <= rows for lo, hi in batch)


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
    # the keys, the CDF's nodes and 0, repeated to GUIDE_MIN_ROWS rows so
    # that the guide table, not the binary search of fewer rows, finds the cells
    xp = strategy._xp
    assert np.all(np.diff(xp) >= 0.0)
    u = np.concatenate([keys, xp[xp < 1.0], [0.0]])
    u = np.resize(u, max(len(u), TabulatedStrategy.GUIDE_MIN_ROWS))
    assert strategy.polar_cos(u).tobytes() == searchsorted_polar_cos(strategy, u).tobytes()


@PROPERTY
@given(a_frac=a_fractions, inner=st.lists(st.floats(1e-3, math.pi - 1e-3), max_size=12, unique=True))
@example(a_frac=0.0, inner=[1.0])
@example(a_frac=0.3, inner=[1.0])
@example(a_frac=1.0, inner=[1.0])
def test_tabulated_two_parameter_form_is_exact_on_any_grid(a_frac, inner):
    # linear in cos t, the form is its own interpolant: density, bin masses
    # and CDF are the closed form's, and polar_cos is its inverse CDF
    form = GuessingForm.from_a_fraction(a_frac)
    thetas = np.array([0.0, *sorted(inner), math.pi])
    tab = TabulatedStrategy(thetas, guessing_density(form, thetas))
    ab = ABFormStrategy(form)
    theta = np.linspace(0.0, math.pi, 257)
    assert np.max(np.abs(tab.density(theta) - guessing_density(form, theta))) <= 1e-12
    assert np.max(np.abs(tab.bin_probabilities(theta) - ab_bin_probabilities(form, theta))) <= 1e-12
    assert np.max(np.abs(tab.polar_uniform(theta) - (1.0 - ab.polar_uniform(theta)))) <= 1e-12
    u = substream(3).random(1 << 12)
    assert np.max(np.abs(tab.polar_cos(u) - ab.polar_cos(1.0 - u))) <= 1e-12


COS4 = cos4_strategy()
# nonzero coordinates of either sign, not so small that the norm underflows
coordinates = st.builds(lambda m, sign: sign * m, st.floats(1e-6, 1.0), st.sampled_from([-1.0, 1.0]))


# coordinates set to zero: the poles, the y-z and x-z planes, the equator
ZEROED = [(), ("x", "y"), ("x",), ("y",), ("z",)]


@st.composite
def member_direction(draw, zeroed):
    x, y, z = draw(st.tuples(coordinates, coordinates, coordinates))
    return BlochVector.normalized(*(0.0 if axis in zeroed else c for axis, c in zip("xyz", (x, y, z))))


@st.composite
def decompositions(draw):
    """Up to four members, often sharing zero coordinates (the poles have
    e1_z = +-0); None mixes them member by member."""
    shared = draw(st.sampled_from([None, *ZEROED]))
    zeroed = st.sampled_from(ZEROED) if shared is None else st.just(shared)
    dirs = draw(st.lists(zeroed.flatmap(member_direction), min_size=1, max_size=4))
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=len(dirs), max_size=len(dirs))))
    weights = weights / weights.sum() if weights.sum() > 0.0 else np.full(len(dirs), 1.0 / len(dirs))
    return EnsembleDecomposition(tuple(zip(weights.tolist(), dirs)))


@PROPERTY
@given(decomposition=decompositions(), a_frac=st.one_of(st.none(), a_fractions),
       cap=st.floats(1e-4, math.pi), trials=st.integers(1, ROW_BLOCK + 2))
def test_cap_hits_of_any_decomposition_match_the_block_major_oracle(decomposition, a_frac, cap, trials):
    # a_frac None draws the tabulated cos4 sampler; the oracle's arm checks
    # its word classes and bands against the z coordinate
    strategy = COS4 if a_frac is None else ABFormStrategy(GuessingForm.from_a_fraction(a_frac))
    got = mapped_hits(strategy, decomposition, math.cos(cap), 29, trials)
    assert [got] == block_major_cap_hits(strategy, decomposition, trials, 29, 1, caps=(cap,))


# member weights with ties in their cumulative sums (zero weights, and
# weights far below the ulp of the sum before them) and sums that miss 1
member_weights = st.lists(st.one_of(st.just(0.0), st.just(1e-300), st.floats(0.0, 1.0)), min_size=1, max_size=6)
sum_scales = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12])


def scaled_weights(weights, scale):
    weights = np.asarray(weights)
    if not weights.sum() > 0.0:
        weights[-1] = 1.0
    return weights / weights.sum() * scale


def words_around(cum, keys):
    """Drawn words: the keys, 0, the largest double below 1, and each
    cumulative weight in [0, 1) with the doubles either side of it."""
    w = np.concatenate([keys, [0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
    return w[(w >= 0.0) & (w < 1.0)]


@PROPERTY
@given(weights=member_weights, scale=sum_scales, keys=unit_keys)
def test_recycled_polar_uniforms_lie_in_the_unit_interval(weights, scale, keys):
    cum, lower, factor = _recycled_uniforms(scaled_weights(weights, scale))
    assert np.all(np.isfinite(factor))
    w = words_around(cum, keys)
    idx = _member_index(cum, w)
    u = _recycled(w, lower[idx], factor[idx])
    assert np.all((u >= 0.0) & (u < 1.0))


@PROPERTY
@given(weights=member_weights, scale=sum_scales, thresholds=unit_keys)
def test_word_edges_are_the_least_words_past_each_bound(weights, scale, thresholds):
    # each member's words [start, end), and the words [low, high) whose
    # recycled u lies in [t, t], are the word indices bisection finds, for
    # bounds t in [0, 1] and just above 1 (a bound no u reaches)
    cum, lower, factor = _recycled_uniforms(scaled_weights(weights, scale))
    t = np.array(thresholds + [0.0, 1.0, np.nextafter(1.0, 2.0)])[:, None]
    start, low, high, end = _word_edges(lower, factor, t, t)
    members = np.arange(len(cum))
    first = least_word(0, np.full(len(cum), LATTICE), lambda w: _member_index(cum, w) < members)
    assert start.tolist() == first.tolist()
    assert end.tolist() == least_word(first, LATTICE, lambda w: _member_index(cum, w) <= members).tolist()
    assert low.tolist() == least_word(start, end, lambda w: _recycled(w, lower, factor) < t).tolist()
    assert high.tolist() == least_word(low, end, lambda w: _recycled(w, lower, factor) <= t).tolist()
