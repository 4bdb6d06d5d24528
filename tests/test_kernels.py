"""Byte identity of the batch kernels against plain-numpy constructions on
whole rows: the frame against the spherical frame written with `np.where`,
the tabulated `polar_cos` against its root on cells found by
`np.searchsorted` over the normalized CDF, the
kernels against their whole-batch forms at the block edges, the
discrimination's member pick and z coordinate against `np.searchsorted` and
column 2 of the full guess, its word classes and azimuth step against
that z at the steps' edges, and the drivers, which draw each batch one row
block at a time, against block-major references that draw each block
whole; the discrimination's angle path against one that finds the word
classes and the half-turn bands by bisection and draws a block's class
counts, its segments' band counts, then its undecided rows' words and
half-turns, and against the binomial law of one word per row. Equality is
on `tobytes()`, so a last-ulp or signed-zero difference fails. The whole-batch
forms take the azimuth pair of a half-turn as stream contract 5 does
(`contract5_cos_sin`, written out here rather than imported)."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, chi2

from qguess.bloch import (
    BlochVector,
    EnsembleDecomposition,
    angles_between,
    directions_at_angle,
    dots,
    orthonormal_frames,
    random_directions,
    z_at_angle,
)
from qguess import bloch, estimator, nosignal, streams
from qguess.estimator import (
    ABFormStrategy,
    GuessingForm,
    MassarPopescuStrategy,
    TabulatedStrategy,
    _ab_inverse_cdf,
    collect_histogram,
)
from qguess.ensembles import standard_decomposition, symmetric_decomposition
from qguess.merit import monte_carlo_fidelity
from qguess.nosignal import (
    CAP_ROW_BLOCK,
    _cap_hits,
    _member_index,
    _polar_bounds,
    _u_windows,
    cos4_strategy,
    run_discrimination_experiment,
)
from qguess.streams import ROW_BLOCK, map_blocks, substream


def spherical_frames(axes):
    """The spherical frame on whole rows: rho = sqrt(x*x + y*y), or
    np.hypot(x, y) where x*x + y*y underflows, e1 = (z*cx, z*cy, -rho) and
    e2 = (-cy, cx, 0) with (cx, cy) = (x, y)/rho, or (1, +0) where rho = 0."""
    x, y, z = np.asarray(axes, dtype=float).T
    rho2 = x * x + y * y
    rho = np.where(rho2 < np.finfo(float).tiny, np.hypot(x, y), np.sqrt(rho2))
    pole = rho == 0.0
    with np.errstate(invalid="ignore"):
        cx, cy = np.where(pole, 1.0, x / rho), np.where(pole, 0.0, y / rho)
    return np.stack([z * cx, z * cy, -rho], axis=1), np.stack([-cy, cx, np.zeros_like(z)], axis=1)


def contract5_cos_sin(h):
    """(cos(phi), sin(phi)) of the azimuth phi = pi*h, h in [-1, 1], as
    stream contract 5 evaluates them: c = sin(pi*(1/2 - |h|)) and
    copysign(sqrt((1 - c)(1 + c)), h)."""
    c = np.sin(math.pi * (0.5 - np.abs(h)))
    return c, np.copysign(np.sqrt((1.0 - c) * (1.0 + c)), h)


def broadcast_directions_at_angle(axes, cos_theta, h):
    """(n, 3) broadcasting form of directions_at_angle on the spherical
    frames; the z column, where e2_z = 0, has no sin(phi) term."""
    e1, e2 = spherical_frames(axes)
    s = np.sqrt(np.clip(1.0 - cos_theta * cos_theta, 0.0, None))
    cos_phi, sin_phi = contract5_cos_sin(h)
    s_cos, s_sin = s * cos_phi, s * sin_phi
    out = s_cos[:, None] * e1 + s_sin[:, None] * e2 + cos_theta[:, None] * axes
    out[:, 2] = s_cos * e1[:, 2] + cos_theta * axes[:, 2]
    return out


def stacked_random_directions(rng, n):
    """Whole-batch form of random_directions: one np.stack of the three columns."""
    z = rng.uniform(-1.0, 1.0, size=n)
    cos_phi, sin_phi = contract5_cos_sin(rng.uniform(-1.0, 1.0, size=n))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * cos_phi, s * sin_phi, z], axis=1)


def clipped_dots(a, b):
    """Out-of-place form of dots: np.clip of a fresh einsum."""
    return np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0)


def where_mp_sample_batch(inputs, rng):
    """Whole-batch form of the MP sampler: flip by np.where on -axes."""
    axes = stacked_random_directions(rng, len(inputs))
    born = rng.random(len(inputs))
    keep = born < (1.0 + clipped_dots(axes, inputs)) / 2.0
    return np.where(keep[:, None], axes, -axes)


def searchsorted_polar_cos(strategy, u):
    """A tabulated strategy's cos t on whole columns: each u's cell by
    `np.searchsorted` over the normalized CDF, then the root
    c_top - r / (h + sqrt(h^2 + k r)) of its cell, kept above c_bottom."""
    j = np.searchsorted(strategy._xp, u, side="right") - 1
    x, top, h, h2, k, bottom = strategy._cells[:, j]
    r = u - x
    return np.maximum(top - r / (h + np.sqrt(np.maximum(r * k + h2, 0.0))), bottom)


def normalized_tabulated(thetas, values):
    """TabulatedStrategy with `values` rescaled to unit sphere integral, the
    trapezoid rule in cos t."""
    thetas = np.asarray(thetas, dtype=float)
    values = np.asarray(values, dtype=float)
    c = np.cos(thetas)
    mass = math.pi * float(np.sum((c[:-1] - c[1:]) * (values[:-1] + values[1:])))
    return TabulatedStrategy(thetas, values / mass)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# frames

def frame_cases():
    rng = substream(11)
    # (x, y) near the z axis: x*x + y*y underflows below about 2^-511, and
    # is subnormal or zero below about 2^-537
    xy = np.concatenate([[(1e-200, -3e-200), (5e-324, 0.0), (0.0, -5e-324), (2.0**-511, 2.0**-511)],
                         rng.choice([-1.0, 1.0], (256, 2)) * 10.0 ** rng.uniform(-320.0, -100.0, (256, 2))])
    z = np.sqrt(1.0 - np.sum(xy * xy, axis=1)) * rng.choice([-1.0, 1.0], len(xy))
    zeros = (0.0, -0.0)
    return {
        "random": random_directions(substream(10), 1 << 16),
        "axes": np.concatenate([np.eye(3), -np.eye(3)]),
        "poles": np.array([[x, y, z] for x in zeros for y in zeros for z in (1.0, -1.0)]),
        "near_poles": np.column_stack([xy, z]),
    }


@pytest.mark.parametrize("case", sorted(frame_cases()))
def test_frames_are_byte_identical_to_spherical_frames(case):
    axes = frame_cases()[case]
    e1, e2 = orthonormal_frames(axes)
    r1, r2 = spherical_frames(axes)
    assert_same_bytes(e1, r1)
    assert_same_bytes(e2, r2)


@pytest.mark.parametrize("case", sorted(frame_cases()))
def test_frames_are_right_handed_and_orthonormal_within_1e_15(case):
    axes = frame_cases()[case]
    e1, e2 = orthonormal_frames(axes)
    for u, v in ((e1, e2), (e1, axes), (e2, axes)):
        assert np.max(np.abs(np.sum(u * v, axis=1))) <= 1e-15
    for u in (e1, e2):
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(np.cross(e1, e2) - axes)) <= 1e-15


def test_directions_at_angle_is_byte_identical_and_c_contiguous():
    rng = substream(12)
    axes = np.concatenate([random_directions(rng, 4096), frame_cases()["axes"]])
    cos_t = rng.uniform(-1.0, 1.0, size=len(axes))
    h = rng.uniform(-1.0, 1.0, size=len(axes))
    out = directions_at_angle(axes, cos_t, h)
    assert out.flags.c_contiguous
    assert_same_bytes(out, broadcast_directions_at_angle(axes, cos_t, h))
    # a Fortran-ordered input still yields C-ordered output with the same bytes
    out_f = directions_at_angle(np.asfortranarray(axes), cos_t, h)
    assert out_f.flags.c_contiguous
    assert_same_bytes(out_f, out)


# ---------------------------------------------------------------------------
# tabulated polar_cos

def inverse_cdf_keys(strategy):
    """Every CDF node value with its two neighbours, u = 0, and a sweep of
    the last 64 cells below the saturated tail (the run of nodes where the
    CDF already equals 1); all inside [0, 1)."""
    xp = strategy._xp
    tail = int(np.flatnonzero(xp == xp[-1])[0])
    sweep = np.linspace(xp[max(tail - 64, 0)], 1.0, 4097)[:-1]
    keys = np.concatenate([xp, np.nextafter(xp, -1.0), np.nextafter(xp, 2.0), [0.0], sweep])
    return keys[(keys >= 0.0) & (keys < 1.0)]


STRATEGIES = {
    "cos4": cos4_strategy,
    "coarse": lambda: normalized_tabulated([0.0, math.pi / 2.0, math.pi], [3.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_polar_cos_is_byte_identical_to_the_whole_column_root(name):
    # on the guide table's rows and, below GUIDE_MIN_ROWS, the binary search's
    strategy = STRATEGIES[name]()
    keys = inverse_cdf_keys(strategy)
    assert_same_bytes(strategy.polar_cos(keys), searchsorted_polar_cos(strategy, keys))
    u = substream(13).random(1 << 16)
    assert_same_bytes(strategy.polar_cos(u), searchsorted_polar_cos(strategy, u))
    for n in (1, TabulatedStrategy.GUIDE_MIN_ROWS - 1, TabulatedStrategy.GUIDE_MIN_ROWS):
        assert_same_bytes(strategy.polar_cos(keys[-n:]), searchsorted_polar_cos(strategy, keys[-n:]))


@pytest.mark.parametrize("shift", [-40, -3, 3, 40])
def test_bracket_check_repairs_a_wrong_guide(shift):
    # the check and the binary-search fallback, not the guide, decide the cell
    strategy = cos4_strategy()
    last = len(strategy._xp) - 2
    strategy._guide = np.clip(strategy._guide + shift, 0, last)
    keys = inverse_cdf_keys(strategy)
    assert_same_bytes(strategy.polar_cos(keys), searchsorted_polar_cos(strategy, keys))


def test_cos4_cdf_has_flat_cells_and_a_saturated_tail():
    # every flat cell is in the tail, where a cell's mass (below 1e-16) no
    # longer moves the running sum: the 5 cells among the 6 nodes at 1
    xp = cos4_strategy()._xp
    assert np.count_nonzero(np.diff(xp) == 0.0) == 5
    assert np.count_nonzero(xp == 1.0) == 6


def test_tabulated_sample_batch_matches_the_whole_column_root():
    strategy = cos4_strategy()
    inputs = random_directions(substream(14), 2048)
    rng = substream(15)
    u = rng.random(len(inputs))
    h = rng.uniform(-1.0, 1.0, size=len(inputs))
    want = broadcast_directions_at_angle(inputs, searchsorted_polar_cos(strategy, u), h)
    assert_same_bytes(strategy.sample_batch(inputs, substream(15)), want)


# ---------------------------------------------------------------------------
# kernels against their whole-batch forms at sizes on both sides of the
# drivers' block edge, and with a ragged last block

BLOCK_EDGE_ROWS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_random_directions_blocks_match_whole_batch(n):
    rng, ref = substream(16), substream(16)
    assert_same_bytes(random_directions(rng, n), stacked_random_directions(ref, n))
    # both leave the generator at the same place
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_directions_at_angle_blocks_match_whole_batch(n):
    rng = substream(17)
    axes = stacked_random_directions(rng, n)
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    h = rng.uniform(-1.0, 1.0, size=n)
    out = directions_at_angle(axes, cos_t, h)
    assert out.flags.c_contiguous
    assert_same_bytes(out, broadcast_directions_at_angle(axes, cos_t, h))


# the weights of the discrimination tests: p = 0 and 1 give zero-weight
# members and put both tilted members on a pole
DISCRIMINATION_P = [0.0, 0.5, 0.9, 1.0]


def members(*weighted):
    """Decomposition of (weight, (x, y, z)) members, each direction normalized."""
    return EnsembleDecomposition(tuple((w, BlochVector.normalized(*v)) for w, v in weighted))


def member_sets():
    """Decompositions in several positions: the poles have e1_z = +-0, every
    other set's members have e1_z != 0 (e2_z is 0 for every axis, so no set
    has a sin(phi) term). The generic set and the turned duplicates have a
    pole among their members."""
    return {
        "poles": standard_decomposition(0.8),
        "y-z pair": symmetric_decomposition(0.8),
        "x-z pair": members((0.5, (0.6, 0.0, 0.8)), (0.5, (-0.6, 0.0, 0.8))),
        "x-dominant pair": members((0.4, (0.95, 0.0, 0.3)), (0.6, (-0.95, 0.0, -0.3))),
        "generic": members((0.3, (0.3, 0.4, 0.5)), (0.5, (-0.2, 0.1, -0.4)), (0.2, (0.0, 0.0, 1.0))),
        # members turned about z by quarter turns (one member to the angle
        # path) and by 1 rad, a zero weight and an antipodal pole
        "turned duplicates": members((0.2, (0.6, 0.0, 0.8)), (0.0, (0.3, 0.4, 0.5)), (0.15, (0.0, 0.6, 0.8)),
                                     (0.25, (-0.6, 0.0, 0.8)), (0.1, (0.0, 0.0, -1.0)),
                                     (0.3, (0.6 * math.cos(1.0), 0.6 * math.sin(1.0), 0.8))),
    }


def member_z(dirs):
    """(a_z, e1_z): the z coordinates of the members and of their spherical
    frames' e1, as `bloch.z_at_angle` takes them."""
    return dirs[:, 2], spherical_frames(dirs)[0][:, 2]


@pytest.mark.parametrize("p", DISCRIMINATION_P)
def test_member_index_matches_searchsorted(p):
    rng = substream(24)
    for decomposition in (standard_decomposition(p), symmetric_decomposition(p)):
        cum = np.cumsum(decomposition.weights)
        # picks exactly on each cum[j] and one step either side of it
        picks = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0), [0.0], rng.random(4096)])
        picks = picks[(picks >= 0.0) & (picks <= 1.0)]
        want = np.minimum(np.searchsorted(cum, picks, side="right"), len(cum) - 1)
        assert_same_bytes(_member_index(cum, picks), want)


def test_last_member_words_give_its_whole_polar_range_when_the_weights_miss_one():
    # weights summing to 1 - 2^-40: the last member's words run from its
    # lower end up to 1, not to the sum, and its u = (w - lower) / (1 - lower)
    # from 0 to below 1
    cum, lower, scale = nosignal._recycled_uniforms(np.array([0.5, 0.5 - 2.0 ** -40]))
    w = np.array([0.5, 0.75, 1.0 - 2.0 ** -40, np.nextafter(1.0, 0.0)])
    idx = _member_index(cum, w)
    assert idx.tolist() == [1, 1, 1, 1]
    u = nosignal._recycled(w, lower[idx], scale[idx])
    assert u.tolist() == [0.0, 0.5, 1.0 - 2.0 ** -39, 1.0 - 2.0 ** -52]


@pytest.mark.parametrize("p", DISCRIMINATION_P)
def test_z_at_angle_is_column_2_of_directions_at_angle(p):
    rng = substream(25)
    unit_axes = np.concatenate([np.eye(3), -np.eye(3)])
    dirs = np.concatenate([standard_decomposition(p).directions, symmetric_decomposition(p).directions,
                           *(d.directions for d in member_sets().values()), unit_axes, random_directions(rng, 64)])
    e1, e2 = orthonormal_frames(dirs)
    # the pole members' frames lie in the x-y plane, with signed zeros in z;
    # e2_z is 0 for every member
    on_pole = np.abs(dirs[:, 2]) == 1.0
    assert np.count_nonzero(on_pole) >= 4
    assert not np.any(e1[on_pole, 2]) and not np.any(e2[:, 2])
    n = 4096
    idx = rng.integers(0, len(dirs), size=n)
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    h = rng.uniform(-1.0, 1.0, size=n)
    # angles whose products give signed zeros
    cos_t[:8] = [1.0, -1.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]
    h[:8] = [0.0, 0.5, -1.0, -0.5, -1.0, 0.0, 0.5, 0.0]
    got = z_at_angle(dirs[:, 2].take(idx), e1[:, 2].take(idx), cos_t, h)
    assert_same_bytes(got, directions_at_angle(dirs[idx], cos_t, h)[:, 2].copy())


def test_z_at_angle_writes_only_its_result():
    # one component is built in its output and a scratch array; the inputs,
    # here reused for directions_at_angle, keep their bytes
    rng = substream(29)
    for decomposition in member_sets().values():
        dirs = decomposition.directions
        idx = rng.integers(0, len(dirs), size=1000)
        picked = [c.take(idx) for c in member_z(dirs)]
        cos_t, h = rng.uniform(-1.0, 1.0, size=1000), rng.uniform(-1.0, 1.0, size=1000)
        inputs = [a.copy() for a in (*picked, cos_t, h)]
        got = z_at_angle(*picked, cos_t, h)
        for before, after in zip(inputs, (*picked, cos_t, h)):
            assert_same_bytes(after, before)
        assert np.array_equal(got, directions_at_angle(dirs[idx], cos_t, h)[:, 2])


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_in_place_dots_and_angles_match_out_of_place(n):
    rng = substream(20)
    a, b = stacked_random_directions(rng, n), stacked_random_directions(rng, n)
    # equal and opposite rows too, where rounding can leave [-1, 1] and the clip bites
    b[::7] = a[::7]
    b[3::7] = -a[3::7]
    assert_same_bytes(dots(a, b), clipped_dots(a, b))
    assert_same_bytes(angles_between(a, b), np.arccos(clipped_dots(a, b)))


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_dots_give_the_same_bytes_in_any_memory_layout(n):
    rng = substream(20)
    a, b = stacked_random_directions(rng, n), stacked_random_directions(rng, n)
    want = np.clip((a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2]) + a[:, 1] * b[:, 1], -1.0, 1.0)
    assert_same_bytes(dots(a, b), want)
    assert_same_bytes(dots(np.asfortranarray(a), np.asfortranarray(b)), want)


def ab_sample_batch(form):
    def sample(inputs, rng):
        t = _ab_inverse_cdf(form, rng.random(len(inputs)))
        h = rng.uniform(-1.0, 1.0, size=len(inputs))
        return broadcast_directions_at_angle(inputs, t, h)

    return sample


def cos4_sample_batch(strategy):
    def sample(inputs, rng):
        u = rng.random(len(inputs))
        h = rng.uniform(-1.0, 1.0, size=len(inputs))
        return broadcast_directions_at_angle(inputs, searchsorted_polar_cos(strategy, u), h)

    return sample


def sampler_pairs():
    """Each strategy with its whole-batch oracle."""
    ab = ABFormStrategy(GuessingForm.from_a_fraction(0.5))
    cos4 = cos4_strategy()
    return {
        "mp": (MassarPopescuStrategy(), where_mp_sample_batch),
        "ab": (ab, ab_sample_batch(ab.form)),
        "cos4": (cos4, cos4_sample_batch(cos4)),
    }


@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_sample_batch_blocks_match_whole_batch(tag, n):
    strategy, oracle = sampler_pairs()[tag]
    inputs = stacked_random_directions(substream(18), n)
    rng, ref = substream(19), substream(19)
    assert_same_bytes(strategy.sample_batch(inputs, rng), oracle(inputs, ref))
    assert rng.random() == ref.random()


def test_mp_flip_gives_the_bytes_of_np_negative_signed_zeros_included(monkeypatch):
    # axes with +-0 coordinates; inputs along +-axes make the Born
    # probability 1 (kept) or 0 (flipped)
    zeros = (0.0, -0.0)
    axes = np.array([[x, y, z] for x in zeros for y in zeros for z in (1.0, -1.0)] * 2)
    keep = np.repeat([True, False], len(axes) // 2)
    inputs = np.where(keep[:, None], axes, -axes)
    monkeypatch.setattr(estimator, "random_directions", lambda rng, n: axes.copy())
    want = axes.copy()
    np.negative(want, out=want, where=~keep[:, None])
    assert_same_bytes(MassarPopescuStrategy().sample_batch(inputs, substream(34)), want)


# ---------------------------------------------------------------------------
# the block loop: each row block draws from its worker's generator after the
# blocks before it

@pytest.mark.parametrize("m", [1, 6, 7, 22])
@pytest.mark.parametrize("rows", [1, 3, 7, ROW_BLOCK])
def test_row_blocks_draw_in_block_order(rows, m):
    ref = substream(21, 0, 1)
    [blocks] = map_blocks([(lambda rng, lo, hi: (lo, hi, rng, rng.random(hi - lo), rng.random(2 * (hi - lo))),
                            1, rows)], 21, m, 1)
    assert [(lo, hi) for lo, hi, *_ in blocks] == [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    for lo, hi, _, a, b in blocks:
        assert_same_bytes(a, ref.random(hi - lo))
        assert_same_bytes(b, ref.random(2 * (hi - lo)))
    assert blocks[-1][2].random() == ref.random()


BLOCK_COLUMN_ROWS = [1, 2, 3, 5, 7, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]


@pytest.mark.parametrize("m", BLOCK_COLUMN_ROWS)
@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 5])
def test_row_blocks_draw_in_block_order_from_any_generator_position(drawn, m):
    # the first block takes `drawn` words before its columns, which leaves
    # the Philox buffer part used; the default blocks of ROW_BLOCK rows draw
    # three columns of two kinds each
    ref = substream(21, 0, 2)
    ref.random(drawn)

    def block(rng, lo, hi):
        if lo == 0:
            rng.random(drawn)
        return lo, hi, rng, rng.random(hi - lo), rng.uniform(-1.0, 1.0, size=hi - lo), rng.random(hi - lo)

    [blocks] = map_blocks([(block, 2, ROW_BLOCK)], 21, m, 1)
    assert [(lo, hi) for lo, hi, *_ in blocks] == [
        (lo, min(lo + ROW_BLOCK, m)) for lo in range(0, m, ROW_BLOCK)]
    for lo, hi, _, a, b, c in blocks:
        assert_same_bytes(a, ref.random(hi - lo))
        assert_same_bytes(b, ref.uniform(-1.0, 1.0, size=hi - lo))
        assert_same_bytes(c, ref.random(hi - lo))
    assert blocks[-1][2].random() == ref.random()


def serial_hits(arm, rng, m):
    """The cap hits of `_cap_hits`'s (block function, rows) over m rows of
    one generator, block after block, as one worker of `streams.map_blocks`
    counts them."""
    block_hits, rows = arm
    return sum(block_hits(rng, lo, min(lo + rows, m)) for lo in range(0, m, rows))


def mapped_hits(strategy, decomposition, cap_cos, seed, trials):
    """One worker's cap hits of one decomposition, through `streams.map_blocks`."""
    block_hits, rows = _cap_hits(strategy, decomposition, cap_cos)
    [hits] = map_blocks([(block_hits, 0, rows)], seed, trials, 1)
    return sum(hits)


# ---------------------------------------------------------------------------
# drivers against block-major references: each block draws its inputs and
# guesses whole from the batch's generator, and the reductions are the
# drivers' own

def block_major_fidelity_and_counts(strategy, trials, seed, workers, bins=50):
    """monte_carlo_fidelity's (value, std_error) and collect_histogram's
    counts: both drivers draw the same inputs and guesses for one (seed,
    workers), ROW_BLOCK rows at a time, so one pass serves both. The score
    sums are taken per block and added in worker-then-block order; the
    counts are binned over a worker's whole batch."""
    edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(0.0, math.pi))

    def batch(rng, m):
        inputs, outcomes, sums = [], [], []
        for lo in range(0, m, ROW_BLOCK):
            inputs.append(random_directions(rng, min(ROW_BLOCK, m - lo)))
            outcomes.append(strategy.sample_batch(inputs[-1], rng))
            s = (1.0 + dots(inputs[-1], outcomes[-1])) / 2.0
            sums.append((float(np.sum(s)), float(np.sum(s * s))))
        counts = np.histogram(angles_between(np.concatenate(inputs), np.concatenate(outcomes)), bins=edges)[0]
        return sums, counts

    total = total_sq = 0.0
    counts = np.zeros(bins, dtype=np.int64)
    for rng, m in streams.worker_batches(seed, trials, workers):
        sums, batch_counts = batch(rng, m)
        for block_sum, block_sum_sq in sums:
            total += block_sum
            total_sq += block_sum_sq
        counts += batch_counts
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return (mean, math.sqrt(variance / trials)), counts


def merged_members(decomposition):
    """(directions, weights) of the members as the angle path counts them:
    one direction per distinct (a_z, e1_z), in the order of its first
    member, with the weights of its members summed in member order; merged
    members of no positive weight dropped."""
    keys, directions, weights = [], [], []
    for direction, key, weight in zip(decomposition.directions, zip(*member_z(decomposition.directions)),
                                      decomposition.weights):
        if key in keys:
            weights[keys.index(key)] += weight
        else:
            keys.append(key)
            directions.append(direction)
            weights.append(weight)
    kept = [m for m, weight in enumerate(weights) if weight > 0.0]
    return np.array(directions)[kept], np.array(weights)[kept]


def recycled_words(weights, w):
    """(member, u) of each drawn word w: the member by np.searchsorted over
    the cumulative weights, and u = (w - lower) * scale of the member,
    clipped below 1, with lower its cumulative weight before it and scale
    1 / weight, 1 / (1 - lower) for the last member, and no width taken
    below the least normal double."""
    cum = np.cumsum(weights)
    lower = np.concatenate([[0.0], cum[:-1]])
    width = np.append(weights[:-1], 1.0 - lower[-1])
    scale = 1.0 / np.maximum(width, np.finfo(float).tiny)
    idx = np.minimum(np.searchsorted(cum, w, side="right"), len(cum) - 1)
    return idx, np.minimum((w - lower[idx]) * scale[idx], np.nextafter(1.0, 0.0))


# numpy's doubles in [0, 1) are the words k / 2^53; a word index is such a k
LATTICE = 2 ** 53
HALF = LATTICE // 2

# the words of one cell of the azimuth step
CELL_WORDS = LATTICE // nosignal.CAP_CELLS


def least_word(lo, hi, before):
    """The least word index k in [lo, hi) at which before(k / 2^53) is
    false, or hi if there is none, by bisection, entry by entry over
    arrays of lo and hi; `before` takes an array of words and must hold on
    a prefix of each entry's words."""
    lo, hi = (np.array(x, dtype=np.int64) for x in np.broadcast_arrays(lo, hi))
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        live, ahead = lo < hi, before(mid / LATTICE)
        lo, hi = np.where(live & ahead, mid + 1, lo), np.where(live & ~ahead, mid, hi)
    return lo


def member_words(strategy, decomposition, cap_cos):
    """[(start, a, b, end)] of each merged member, word indices found by
    bisection with the member and u of `recycled_words`: the member's first
    and last word, then its first word whose u is at least u_low, and the
    first whose u is beyond u_high (`_u_windows`)."""
    weights, _, _, alpha = angle_path_members(decomposition)
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    members = np.arange(len(weights))
    start = least_word(0, np.full(len(weights), LATTICE), lambda w: recycled_words(weights, w)[0] < members)
    end = least_word(start, LATTICE, lambda w: recycled_words(weights, w)[0] <= members)
    a = least_word(start, end, lambda w: recycled_words(weights, w)[1] < u_low)
    b = least_word(a, end, lambda w: recycled_words(weights, w)[1] <= u_high)
    return list(zip(*(x.tolist() for x in (start, a, b, end))))


def lattice_classes(strategy, decomposition, cap_cos):
    """(hits, windows): the word index intervals [a, b) of the sure hits and
    of the u windows of the merged members (`member_words`), in word order,
    empty ones dropped. The words below a window are sure hits where
    `_u_windows` says so, and likewise above it."""
    _, _, _, alpha = angle_path_members(decomposition)
    _, _, hits_low, hits_high = _u_windows(strategy, alpha, cap_cos)
    hits, windows = [], []
    for j, (start, a, b, end) in enumerate(member_words(strategy, decomposition, cap_cos)):
        hits += [(start, a)] if hits_low[j] and start < a else []
        windows += [(a, b)] if a < b else []
        hits += [(b, end)] if hits_high[j] and b < end else []
    return hits, windows


def in_intervals(words, intervals):
    """Whether each word index lies in one of the intervals [a, b)."""
    inside = np.zeros(len(words), dtype=bool)
    for a, b in intervals:
        inside |= (words >= a) & (words < b)
    return inside


def word_z(strategy, decomposition, words, h):
    """The z coordinate of the guesses at these word indices and half-turns:
    the member and u of `recycled_words`, cos t by the strategy's
    whole-column forms, and `z_at_angle` over the merged members."""
    weights, a_z, e1_z, _ = angle_path_members(decomposition)
    idx, u = recycled_words(weights, np.asarray(words) / LATTICE)
    return z_at_angle(a_z[idx], e1_z[idx], polar_cos_of(strategy, u), h)


def class_words(classes, n):
    """Word indices on and either side of each end of the classes'
    intervals and of the word range, and n drawn ones."""
    ends = np.array([0, LATTICE] + [end for intervals in classes for interval in intervals for end in interval])
    words = np.concatenate([(ends[:, None] + [-1, 0, 1]).ravel(), substream(41).integers(0, LATTICE, size=n)])
    return words[(words >= 0) & (words < LATTICE)]


def assert_word_classes_hold(strategy, decomposition, cap_cos, classes, words):
    """Each of these words in a sure-hit interval is a hit and each outside
    every interval a miss, as `sample_batch`'s z >= cap_cos classes it, at
    the half-turns of AZIMUTHS and at a drawn one."""
    hits, windows = classes
    sure = ~in_intervals(words, windows)
    words = words[sure]
    hit = in_intervals(words, hits)
    h = np.concatenate([np.repeat([AZIMUTHS], len(words), axis=0),
                        substream(42).uniform(-1.0, 1.0, size=(len(words), 1))], axis=1)
    z = word_z(strategy, decomposition, np.repeat(words, h.shape[1]), h.ravel()).reshape(h.shape)
    assert np.array_equal(z >= cap_cos, np.repeat(hit[:, None], h.shape[1], axis=1))


def lattice_segments(windows):
    """(start, words, cell), int64 arrays: the windows cut at every multiple
    of CELL_WORDS, in word order, stepping from one cell edge to the next."""
    pieces = []
    for a, b in windows:
        while a < b:
            end = min(b, (a // CELL_WORDS + 1) * CELL_WORDS)
            pieces.append((a, end - a, a // CELL_WORDS))
            a = end
    return tuple(np.array(pieces, dtype=np.int64).reshape(-1, 3).T)


def turn_edges(t):
    """(low, high) per threshold t: the j on [0, 2^53) whose half-turn
    h = 2 (j / 2^53) - 1, the double `uniform(-1, 1)` makes of j, has
    |h| >= t are [0, low) and [high, 2^53), found by bisection with that
    float test; high is at least low."""
    t = np.asarray(t, dtype=float)
    low = least_word(np.zeros(t.shape, np.int64), HALF + 1, lambda w: np.abs(2.0 * w - 1.0) >= t)
    high = least_word(np.full(t.shape, HALF), LATTICE, lambda w: np.abs(2.0 * w - 1.0) < t)
    return low, np.maximum(high, low)


def half_turn(j):
    """The half-turn `uniform(-1, 1)` makes of the words j / 2^53."""
    return -1.0 + 2.0 * (np.asarray(j) / LATTICE)


class AngleArm:
    """One arm of the angle path as the oracle builds it: the word classes
    of `lattice_classes`, the azimuth table the arm's set-up makes, the
    windows' `lattice_segments` and, per segment, its cell's `turn_edges`
    (hit_low, miss_low, miss_high, hit_high): its undecided j are
    [hit_low, miss_low) and [miss_high, hit_high). `pvals` are the class
    probabilities [sure hits, each segment's words, sure misses] / 2^53,
    and `bands` each segment's [sure-hit, undecided, sure-miss] j / 2^53.
    The word classes and bands are checked against the z coordinate first."""

    def __init__(self, strategy, decomposition, cap_cos):
        self.classes = lattice_classes(strategy, decomposition, cap_cos)
        assert_word_classes_hold(strategy, decomposition, cap_cos, self.classes, class_words(self.classes, 4096))
        self.table = built("_azimuth_table", strategy, decomposition, cap_cos)
        self.start, self.words, self.cell = lattice_segments(self.classes[1])
        h_hit, h_miss = (t.take(self.cell) for t in self.table)
        (hit_low, hit_high), (miss_low, miss_high) = turn_edges(h_hit), turn_edges(h_miss)
        self.edges = np.stack([hit_low, miss_low, miss_high, hit_high], axis=1)
        self.counts = np.stack([hit_low + LATTICE - hit_high, miss_low - hit_low + hit_high - miss_high,
                                miss_high - miss_low], axis=1)
        hit_words = sum(b - a for a, b in self.classes[0])
        self.pvals = np.concatenate([[hit_words], self.words, [LATTICE - hit_words - self.words.sum()]]) / LATTICE
        self.bands = self.counts / LATTICE
        assert_bands_hold(strategy, decomposition, cap_cos, self)

    def classify(self, seg, j):
        """0, 1 or 2 for a sure hit, an undecided j or a sure miss of each
        row in segment seg at j."""
        hit_low, miss_low, miss_high, hit_high = self.edges[seg].T
        return np.where((j < hit_low) | (j >= hit_high), 0, np.where((j >= miss_low) & (j < miss_high), 2, 1))

    def band_j(self, seg, i):
        """The j of band index i in each row's segment: its undecided j in order."""
        hit_low, miss_low, miss_high, _ = self.edges[seg].T
        return np.where(i < miss_low - hit_low, hit_low + i, miss_high + i - (miss_low - hit_low))

    def band_index(self, seg, j):
        """The band index of each undecided row's j in its segment."""
        hit_low, miss_low, miss_high, _ = self.edges[seg].T
        return np.where(j < miss_low, j - hit_low, j - miss_high + (miss_low - hit_low))


def assert_bands_hold(strategy, decomposition, cap_cos, arm):
    """At the first two, middle and last two words of each segment, and at
    the j on and two either side of each of its band edges and those of
    the frame's axes (AZIMUTHS), each row of a sure-hit j is a hit and each
    of a sure-miss j a miss, as `sample_batch`'s z >= cap_cos classes it."""
    if not arm.words.size:
        return
    offsets = np.stack([np.zeros_like(arm.words), np.ones_like(arm.words), arm.words // 2, arm.words - 2,
                        arm.words - 1], axis=1)
    axes = np.round((np.array(AZIMUTHS) + 1.0) * 2.0 ** 52).astype(np.int64)
    j = np.concatenate([(arm.edges[:, :, None] + np.arange(-2, 3)).reshape(len(arm.words), -1),
                        np.broadcast_to(axes, (len(arm.words), len(axes)))], axis=1)
    seg, offset, j = (a.ravel() for a in np.broadcast_arrays(np.arange(len(arm.words))[:, None, None],
                                                              offsets[:, :, None], j[:, None, :]))
    keep = (offset >= 0) & (offset < arm.words[seg]) & (j >= 0) & (j < LATTICE)
    seg, words, j = seg[keep], arm.start[seg[keep]] + offset[keep], j[keep]
    band = arm.classify(seg, j)
    decided = band != 1
    z = word_z(strategy, decomposition, words[decided], half_turn(j[decided]))
    assert np.array_equal(z >= cap_cos, band[decided] == 0)


def angle_block_oracle(strategy, decomposition, cap_cos):
    """block(rng, n): the cap hits of n rows of an angle strategy's block,
    with the draws the angle path makes, on the oracle's `AngleArm`: the
    class counts, one rng.multinomial over `pvals`; the band counts of each
    segment with rows, one 2-D rng.multinomial over its `bands`; then, for
    each undecided row, a word index uniform on its segment's words and a
    band index uniform on its undecided j, placed on the two intervals,
    each counted by the z column of `directions_at_angle` at the
    strategy's polar_cos."""
    dirs, weights = merged_members(decomposition)
    arm = AngleArm(strategy, decomposition, cap_cos)

    def block(rng, n):
        counts = rng.multinomial(n, arm.pvals)
        live = np.flatnonzero(counts[1:-1])
        if not live.size:
            return counts[0]
        bands = rng.multinomial(counts[1:-1][live], arm.bands[live])
        seg = np.repeat(live, bands[:, 1])
        hits = counts[0] + bands[:, 0].sum()
        if not seg.size:
            return hits
        words = arm.start[seg] + rng.integers(0, arm.words[seg])
        h = half_turn(arm.band_j(seg, rng.integers(0, arm.counts[seg, 1])))
        idx, u = recycled_words(weights, words / LATTICE)
        z = directions_at_angle(dirs[idx], strategy.polar_cos(u), h)[:, 2]
        return hits + np.count_nonzero(z >= cap_cos)

    return block


def block_major_cap_hits(strategy, decomposition, trials, seed, workers, block=0, caps=(0.2,)):
    """One arm's cap hits, block after block; one count per cap half-angle
    in `caps`, each from the arm's own substreams. The blocks have the
    discrimination's sizes, CAP_ROW_BLOCK rows for an angle strategy and
    ROW_BLOCK for MP.

    MP picks each row's member by np.searchsorted and takes the strategy's
    whole guesses for the block. An angle strategy's block is
    `angle_block_oracle`'s: its rows' class counts, its segments' band
    counts, then words and half-turns for its undecided rows alone, each
    counted by the z column of `directions_at_angle`."""

    def arm_hits(cap):
        cap_cos = math.cos(cap)
        if strategy.polar_cos is None:
            cum, dirs = np.cumsum(decomposition.weights), decomposition.directions

            def block_hits(rng, n):
                idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(dirs) - 1)
                return np.count_nonzero(strategy.sample_batch(dirs[idx], rng)[:, 2] >= cap_cos)

            rows = ROW_BLOCK
        else:
            block_hits, rows = angle_block_oracle(strategy, decomposition, cap_cos), CAP_ROW_BLOCK
        return sum(block_hits(rng, min(rows, m - lo))
                   for rng, m in streams.worker_batches(seed, trials, workers, block) for lo in range(0, m, rows))

    return [int(arm_hits(cap)) for cap in caps]


# azimuths on and between the frame's axes, and a generic one (2 rad), as half-turns
AZIMUTHS = [0.0, 0.5, -1.0, -0.5, 2.0 / math.pi]

DRIVER_TRIALS = [2, ROW_BLOCK - 1, ROW_BLOCK + 1, 32 * ROW_BLOCK + 44666, 64 * ROW_BLOCK + 7]


@pytest.fixture(scope="module")
def strategies():
    return {tag: strategy for tag, (strategy, _) in sampler_pairs().items()}


def assert_discrimination_matches_block_major(strategy, trials, workers, p=0.8):
    disc = run_discrimination_experiment(strategy, p, trials=trials, seed=23, workers=workers)
    [std], [sym] = (block_major_cap_hits(strategy, decomposition, trials, 23, workers, block=block)
                    for block, decomposition in enumerate([standard_decomposition(p), symmetric_decomposition(p)]))
    assert (disc.freq_standard, disc.freq_symmetric) == (std / trials, sym / trials)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trials", DRIVER_TRIALS)
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_blocked_drivers_match_their_block_major_bodies(strategies, tag, trials, workers):
    strategy = strategies[tag]
    moments, counts = block_major_fidelity_and_counts(strategy, trials, 23, workers)
    rep = monte_carlo_fidelity(strategy, trials=trials, seed=23, workers=workers)
    assert (rep.value, rep.std_error) == moments
    hist = collect_histogram(strategy, trials=trials, seed=23, workers=workers)
    assert_same_bytes(hist.counts, counts)
    assert_discrimination_matches_block_major(strategy, trials, workers)


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_blocked_discrimination_matches_its_block_major_body_at_the_end_weights(strategies, tag, p):
    # zero-weight members, and the tilted pair on one pole
    assert_discrimination_matches_block_major(strategies[tag], ROW_BLOCK + 1, 1, p=p)


def test_mp_discrimination_never_takes_the_angle_path(strategies, monkeypatch):
    # MP's guess is a measured axis: it has no angle sampler, and its cap
    # hits come from its whole guesses
    def refuse(*args):
        raise AssertionError("the MP discrimination took the angle path")

    assert MassarPopescuStrategy.polar_cos is None
    assert callable(strategies["ab"].polar_cos) and callable(strategies["cos4"].polar_cos)
    monkeypatch.setattr(bloch, "orthonormal_frames", refuse)
    monkeypatch.setattr(bloch, "z_at_angle", refuse)
    assert_discrimination_matches_block_major(strategies["mp"], ROW_BLOCK + 1, 1)


# the cap hits of any member set against the block-major oracle, at caps
# inside, at and beyond the equator
CAPS = (0.2, math.pi / 2.0, 2.5)


@pytest.mark.parametrize("seed", [27, 28, 29, 30, 31])
@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cap_hits_match_the_block_major_oracle_for_every_member_set(strategies, tag, name, seed):
    # the oracle's arm checks its bands at the frame's axes (AZIMUTHS) and
    # at its band edges; each seed draws other undecided rows
    strategy, decomposition = strategies[tag], member_sets()[name]
    trials = 32 * ROW_BLOCK + 44666
    got = [mapped_hits(strategy, decomposition, math.cos(cap), seed, trials) for cap in CAPS]
    assert got == block_major_cap_hits(strategy, decomposition, trials, seed, 1, caps=CAPS)


def record_exact_rows(strategy, monkeypatch):
    """[j]: the rows of each block's `polar_cos` call, the undecided rows
    that the azimuth step leaves to the exact z."""
    exact_rows, real_polar_cos = [], strategy.polar_cos

    def polar_cos(u_rows):
        exact_rows.append(len(u_rows))
        return real_polar_cos(u_rows)

    monkeypatch.setattr(strategy, "polar_cos", polar_cos)
    return exact_rows


class CountedDraws:
    """A generator that notes each draw as (kind, arguments, result), for
    `random`, `uniform`, `multinomial` and `integers`."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def _note(self, kind, *args):
        result = getattr(self.rng, kind)(*args)
        self.calls.append((kind, args, result.copy()))
        return result

    def random(self, size):
        return self._note("random", size)

    def uniform(self, low, high, size):
        return self._note("uniform", low, high, size)

    def multinomial(self, n, pvals):
        return self._note("multinomial", n, pvals)

    def integers(self, low, high):
        return self._note("integers", low, high)


def block_draws(calls):
    """[n, k, r] per angle-path block of a CountedDraws record, its rows,
    window rows and undecided rows, after checking that the block drew its
    class counts, one multinomial over its n rows; then, when k > 0, one
    2-D multinomial over the segments with rows, at their counts; then,
    when r > 0, r word indices and r band indices, each below its bound;
    and nothing else."""
    blocks, pending = [], []
    for kind, args, result in calls:
        if kind == "multinomial" and np.ndim(args[1]) == 1:
            assert not pending
            n, segments = args[0], result[1:-1]
            assert int(result.sum()) == n
            blocks.append([n, int(segments.sum()), 0])
            pending = ["bands"] if blocks[-1][1] else []
        elif kind == "multinomial":
            assert pending.pop(0) == "bands"
            assert_same_bytes(args[0], segments[segments > 0])
            assert np.array_equal(result.sum(axis=1), args[0]) and args[1].shape == (len(args[0]), 3)
            blocks[-1][2] = r = int(result[:, 1].sum())
            pending = ["words", "turns"] if r else []
        else:
            assert kind == "integers" and pending.pop(0) in ("words", "turns")
            low, high = args
            assert low == 0 and len(high) == len(result) == blocks[-1][2]
            assert np.all((result >= 0) & (result < high))
    assert not pending
    return blocks


def replay(rng, calls):
    """Make the draws of a CountedDraws record from rng, checking each result."""
    for kind, args, result in calls:
        assert_same_bytes(getattr(rng, kind)(*args), result)


@pytest.mark.parametrize("arm", ["poles", "tilted"])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_angle_path_block_draws_its_class_counts_then_its_window_rows(strategies, monkeypatch, tag, arm):
    # a block of n rows draws its class counts, its segments' band counts,
    # then a word index and a band index for each of its r undecided rows,
    # and the generator moves by those draws alone; its polar_cos call has
    # those r rows. The pole arm's windows hold 1e-6 (AB) and 2.6e-6 (cos4)
    # of the words, so its 2^21 rows have a few window rows or none, and
    # every tilted block has some. The azimuth step leaves under 2% of the
    # tilted arm's window rows to polar_cos and the exact z (0.6% for cos4
    # and 1.3% for AB at 2^10 cells; the share grows with the cells' width)
    strategy = strategies[tag]
    decomposition = {"poles": standard_decomposition, "tilted": symmetric_decomposition}[arm](0.9)
    arm_hits = _cap_hits(strategy, decomposition, math.cos(0.2))
    exact_rows = record_exact_rows(strategy, monkeypatch)
    draws, ref = CountedDraws(substream(37)), substream(37)
    m = 128 * ROW_BLOCK
    serial_hits(arm_hits, draws, m)
    blocks = block_draws(draws.calls)
    assert [r for _, _, r in blocks if r] == exact_rows
    replay(ref, draws.calls)
    assert draws.rng.random() == ref.random()
    if arm == "tilted":
        assert all(k for _, k, _ in blocks) and len(blocks) == -(-m // CAP_ROW_BLOCK)
        assert sum(exact_rows) < 0.02 * sum(k for _, k, _ in blocks)


@pytest.mark.parametrize("m", [CAP_ROW_BLOCK - 1, 2 * CAP_ROW_BLOCK + 3])
@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_angle_path_blocks_of_any_member_set_draw_class_counts_band_counts_and_2r_words(strategies, tag, name, m):
    # every block, the ragged last one included, draws its class counts at
    # the classes' and segments' word counts over 2^53, then the band counts
    # of its segments with rows at their exact j counts over 2^53, then the
    # word and band indices of its r undecided rows when r > 0, on their
    # segments' words and bands, from a generator already part used
    strategy, decomposition, cap_cos = strategies[tag], member_sets()[name], math.cos(0.2)
    arm = _cap_hits(strategy, decomposition, cap_cos)
    rng, ref = substream(38, 1), substream(38, 1)
    rng.random(3)
    ref.random(3)
    draws = CountedDraws(rng)
    serial_hits(arm, draws, m)
    blocks = block_draws(draws.calls)
    assert [n for n, _, _ in blocks] == [min(CAP_ROW_BLOCK, m - lo) for lo in range(0, m, CAP_ROW_BLOCK)]
    oracle = AngleArm(strategy, decomposition, cap_cos)
    for kind, args, result in draws.calls:
        if kind == "multinomial" and np.ndim(args[1]) == 1:
            assert_same_bytes(args[1], oracle.pvals)
            live = np.flatnonzero(result[1:-1])
        elif kind == "multinomial":
            assert_same_bytes(args[1], oracle.bands[live])
            seg = np.repeat(live, result[:, 1])
            words = True
        else:
            assert_same_bytes(args[1], (oracle.words if words else oracle.counts[:, 1])[seg])
            words = False
    replay(ref, draws.calls)
    assert rng.random() == ref.random()


def test_angle_path_counts_in_cap_row_blocks_and_mp_in_row_blocks(strategies, monkeypatch):
    # the angle path's blocks have CAP_ROW_BLOCK rows, and each draws its
    # class counts once; a block forms the member index of the rows it
    # leaves to the exact z alone. MP's whole guesses keep streams.ROW_BLOCK,
    # and every MP block picks its members once.
    assert CAP_ROW_BLOCK > ROW_BLOCK
    m = CAP_ROW_BLOCK + ROW_BLOCK + 1
    real = nosignal._member_index
    for tag in ("cos4", "ab", "mp"):
        picks, draws = [], CountedDraws(substream(30))
        arm = _cap_hits(strategies[tag], symmetric_decomposition(0.8), math.cos(0.2))

        def record(cum, pick, picks=picks):
            picks.append(len(pick))
            return real(cum, pick)

        monkeypatch.setattr(nosignal, "_member_index", record)
        if tag == "mp":
            serial_hits(arm, draws, m)
            assert picks == [min(ROW_BLOCK, m - lo) for lo in range(0, m, ROW_BLOCK)]
        else:
            exact_rows = record_exact_rows(strategies[tag], monkeypatch)
            serial_hits(arm, draws, m)
            assert picks == exact_rows and sum(picks) > 0
            assert [n for n, _, _ in block_draws(draws.calls)] == [CAP_ROW_BLOCK, ROW_BLOCK + 1]
        monkeypatch.undo()


@pytest.mark.parametrize("cap", [1e-300, math.pi])
@pytest.mark.parametrize("p", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_discrimination_at_the_edge_caps_matches_its_block_major_body(strategies, tag, p, cap):
    # 2 trials over 3 workers (one of them with none) and 2 blocks and a
    # ragged one at one worker, at the end weights too; a cap of pi holds
    # every guess and one of 1e-300 none
    strategy, want = strategies[tag], (1.0 if cap == math.pi else 0.0)
    for trials, workers in ((2, 3), (2 * CAP_ROW_BLOCK + 1, 1)):
        disc = run_discrimination_experiment(strategy, p, cap_half_angle=cap, trials=trials, seed=45, workers=workers)
        [std], [sym] = (block_major_cap_hits(strategy, decomposition, trials, 45, workers, block=block, caps=(cap,))
                        for block, decomposition in enumerate([standard_decomposition(p), symmetric_decomposition(p)]))
        assert (disc.freq_standard, disc.freq_symmetric) == (std / trials, sym / trials) == (want, want)


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_a_member_without_words_leaves_no_window_to_draw(strategies, tag):
    # the middle member's weight, 1e-20, is below one word in 2^53, so it
    # has no words and no window; the word indices of the window rows skip
    # it, and the counts are the oracle's
    strategy, cap_cos = strategies[tag], math.cos(0.2)
    decomposition = members((0.4, (0.6, 0.0, 0.8)), (1e-20, (0.3, 0.4, 0.5)), (0.6, (-0.6, 0.0, -0.8)))
    classes = built("_word_classes", strategy, decomposition, cap_cos)
    assert classes == lattice_classes(strategy, decomposition, cap_cos) and len(classes[1]) == 2
    trials = 2 * CAP_ROW_BLOCK + 1
    assert [mapped_hits(strategy, decomposition, cap_cos, 46, trials)] == block_major_cap_hits(
        strategy, decomposition, trials, 46, 1)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_class_probabilities_are_the_exact_word_measures_of_the_classes(strategies, tag, name, cap):
    # the arm's classes are the bisected ones, disjoint and in word order,
    # and a block draws its counts at the sure hits' count of words, each
    # segment's and the sure misses' over 2^53, which is exact: the counts
    # come back from the doubles and add up to 2^53
    strategy, decomposition, cap_cos = strategies[tag], member_sets()[name], math.cos(cap)
    classes = lattice_classes(strategy, decomposition, cap_cos)
    assert built("_word_classes", strategy, decomposition, cap_cos) == classes
    ends = [end for interval in sorted(classes[0] + classes[1]) for end in interval]
    assert ends == sorted(ends) and 0 <= ends[0] and ends[-1] <= LATTICE
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    draws = CountedDraws(substream(43))
    block_hits(draws, 0, 5)
    pvals = draws.calls[0][1][1]
    hit_words, window_words = (sum(b - a for a, b in intervals) for intervals in classes)
    counts = [hit_words, *lattice_segments(classes[1])[1].tolist(), LATTICE - hit_words - window_words]
    assert pvals.tolist() == [c / LATTICE for c in counts]
    assert [int(pval * LATTICE) for pval in pvals.tolist()] == counts
    assert sum(counts) == LATTICE


@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_segments_tile_the_windows_one_cell_each(strategies, tag, name):
    # at caps inside, at and beyond the equator, and on windows that share
    # a cell, fill one, end on a cell edge and cross several: each segment
    # lies in one cell, the segments run over the windows' words in order,
    # and they are the oracle's
    windows = [lattice_classes(strategies[tag], member_sets()[name], math.cos(cap))[1] for cap in CAPS]
    windows.append([(1, 2), (3, CELL_WORDS), (CELL_WORDS, 2 * CELL_WORDS), (5 * CELL_WORDS - 1, 9 * CELL_WORDS + 1),
                    (LATTICE - 2, LATTICE)])
    for intervals in windows:
        start, words, cell = nosignal._segments(intervals)
        for got, want in zip((start, words, cell), lattice_segments(intervals)):
            assert_same_bytes(got, want)
        assert np.all(start // CELL_WORDS == cell) and np.all((start + words - 1) // CELL_WORDS == cell)
        assert np.all(words > 0) and int(words.sum()) == sum(b - a for a, b in intervals)


# half-turn thresholds at their ends and either side of the lattice points
# next to them, and those of the arms' azimuth tables
EDGE_THRESHOLDS = [0.0, 2.0 ** -53, 2.0 ** -52, 3.0 * 2.0 ** -53, 0.5, np.nextafter(1.0, 0.0), 1.0,
                   np.nextafter(1.0, 2.0), 2.0]


@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_half_turn_bands_are_the_exact_j_counts_of_the_float_tests(strategies, tag, name):
    # for every threshold pair of the arms' azimuth tables at CAPS, and of
    # EDGE_THRESHOLDS, the bands hold j exactly where the float tests
    # |h| >= h_hit (sure hit) and |h| < h_miss (sure miss) of its half-turn
    # put it, at each band edge and two either side, and at 4096 drawn j;
    # their counts are the bisected ones
    pairs = [np.stack(built("_azimuth_table", strategies[tag], member_sets()[name], math.cos(cap)), axis=1)
             for cap in CAPS]
    edge = np.array(EDGE_THRESHOLDS)
    pairs.append(np.stack(np.broadcast_arrays(edge[:, None], edge[None, :]), axis=2).reshape(-1, 2))
    h_hit, h_miss = np.unique(np.concatenate(pairs), axis=0).T
    h_hit, h_miss = np.maximum(h_hit, h_miss), np.minimum(h_hit, h_miss)
    a, b, c, d = nosignal._half_turn_bands(h_hit, h_miss)
    assert np.all((0 <= a) & (a <= b) & (b <= c) & (c <= d) & (d <= LATTICE))
    drawn = substream(44).integers(0, LATTICE, size=4096)
    for pair in np.array_split(np.arange(len(a)), -(-len(a) // 128)):  # 128 pairs at a time
        ends = np.stack([a, b, c, d], axis=1)[pair]
        j = np.concatenate([(ends[:, :, None] + np.arange(-2, 3)).reshape(len(pair), -1),
                            np.broadcast_to(drawn, (len(pair), len(drawn)))], axis=1)
        j = np.clip(j, 0, LATTICE - 1)
        turn = np.abs(half_turn(j))
        assert np.array_equal((j < a[pair, None]) | (j >= d[pair, None]), turn >= h_hit[pair, None])
        assert np.array_equal((j >= b[pair, None]) & (j < c[pair, None]), turn < h_miss[pair, None])
    (hit_low, hit_high), (miss_low, miss_high) = turn_edges(h_hit), turn_edges(h_miss)
    assert_same_bytes(np.stack([a + LATTICE - d, b - a + d - c, c - b]),
                      np.stack([hit_low + LATTICE - hit_high, miss_low - hit_low + hit_high - miss_high,
                                miss_high - miss_low]))


def hit_probability(strategy, decomposition, cap_cos, points=1 << 14):
    """The chance that a row that draws its own word and half-turn is a cap
    hit: the sure hits' words over 2^53, plus each window's words over
    2^53 times the mean, over `points` words spread evenly over the window,
    of the chance over h that the row is a hit. For a member off the poles
    (e1_z < 0 and s > 0), z = t a_z + s cos(pi h) e1_z is a hit where
    cos(pi h) <= c = (cap_cos - t a_z) / (s e1_z), which is a share
    1 - arccos(c) / pi of the half-turns in [-1, 1), c clipped to [-1, 1];
    elsewhere z = t a_z does not move with h."""
    weights, a_z, e1_z, _ = angle_path_members(decomposition)
    hits, windows = lattice_classes(strategy, decomposition, cap_cos)
    p = sum(b - a for a, b in hits) / LATTICE
    for a, b in windows:
        words = a + np.floor((np.arange(points) + 0.5) * ((b - a) / points))
        idx, u = recycled_words(weights, words / LATTICE)
        t = polar_cos_of(strategy, u)
        spread = np.sqrt(1.0 - t * t) * e1_z[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            share = 1.0 - np.arccos(np.clip((cap_cos - t * a_z[idx]) / spread, -1.0, 1.0)) / math.pi
        p += (b - a) / LATTICE * np.mean(np.where(spread < 0.0, share, t * a_z[idx] >= cap_cos))
    return p


@pytest.mark.parametrize("arm", ["poles", "tilted"])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_block_hit_count_has_the_law_of_one_word_per_row(strategies, tag, arm):
    # 4000 blocks of 16 rows, each from its own substream, at p = 0.9 and a
    # cap of 1 rad, where both arms have windows and the hits are common:
    # the hit counts fit Binomial(16, p), p the chance that a row drawing
    # its own word and half-turn is a hit (`hit_probability`), by a
    # chi-square below its 0.999 quantile over counts pooled to expect 5 or
    # more, and their mean lies within 4 standard errors of 16 p
    strategy, cap_cos = strategies[tag], math.cos(1.0)
    decomposition = {"poles": standard_decomposition, "tilted": symmetric_decomposition}[arm](0.9)
    p = hit_probability(strategy, decomposition, cap_cos)
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    n, blocks = 16, 4000
    hits = np.array([block_hits(substream(47, 0, b), 0, n) for b in range(blocks)])
    expected = blocks * binom.pmf(np.arange(n + 1), n, p)
    kept = np.flatnonzero(expected >= 5.0)
    edges = np.concatenate([[0], kept[1:], [n + 1]])
    observed = np.add.reduceat(np.bincount(hits, minlength=n + 1), edges[:-1])
    pooled = np.add.reduceat(expected, edges[:-1])
    assert np.sum((observed - pooled) ** 2 / pooled) < chi2.ppf(0.999, len(pooled) - 1)
    assert abs(hits.mean() - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p) / blocks)


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_angle_path_block_memory_does_not_grow_with_its_rows(strategies, p):
    # a block holds arrays of its segments and of its undecided rows alone,
    # about 0.2% of its rows in the tilted arm: its peak traced allocation
    # (264 kB, half of it in polar_cos) stays within four float64 arrays of
    # streams.ROW_BLOCK rows, a sixteenth of one array of its own rows
    for decomposition in (standard_decomposition(p), symmetric_decomposition(p)):
        block_hits, rows = _cap_hits(strategies["cos4"], decomposition, math.cos(0.2))
        assert rows == CAP_ROW_BLOCK
        block_hits(substream(31), 0, rows)
        tracemalloc.start()
        try:
            block_hits(substream(31), 0, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * ROW_BLOCK, peak


@pytest.mark.parametrize("driver", [monte_carlo_fidelity, collect_histogram], ids=["fidelity", "histogram"])
@pytest.mark.parametrize("tag", ["mp", "ab"])
def test_driver_peak_does_not_grow_with_the_trials(strategies, tag, driver):
    # a worker reduces each row block as it goes, so the peak traced
    # allocation at 8 blocks stays within one block-sized array of that at
    # 2 blocks, where a score array of the worker's trials would add six
    strategy = strategies[tag]
    driver(strategy, trials=2 * ROW_BLOCK, seed=3)  # the one-time allocator step goes first
    peaks = []
    for trials in (2 * ROW_BLOCK, 8 * ROW_BLOCK):
        tracemalloc.start()
        try:
            driver(strategy, trials=trials, seed=3, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * ROW_BLOCK, peaks


class PlantedDraws:
    """The generator of one angle-path row block whose rows are the given
    word indices and half-turns h, each h = j 2^-52 - 1 of a j on [0,
    2^53): `multinomial` hands out the rows' class counts (sure hits, each
    segment's words, sure misses) of the oracle's `AngleArm`, then, when
    some are window rows, each segment with rows its counts of sure-hit,
    undecided and sure-miss j, and `integers`, when some are undecided,
    their word indices on their segments and then their band indices, in
    segment order. Each draw is checked against what the block asks for,
    the probabilities included; a draw beyond these fails, and `drawn`
    names the draws made. `undecided` holds the undecided rows' (words,
    h) in the order the block draws them."""

    def __init__(self, arm, words, h):
        self.arm, self.drawn = arm, []
        hit, seg = in_intervals(words, arm.classes[0]), np.searchsorted(arm.start, words, side="right") - 1
        window = in_intervals(words, arm.classes[1])
        seg = seg[window]
        assert np.all(words[window] - arm.start[seg] < arm.words[seg])
        segments = np.bincount(seg, minlength=len(arm.words))
        self._draws = [("multinomial", np.concatenate([[np.count_nonzero(hit)], segments,
                                                       [len(words) - np.count_nonzero(hit) - len(seg)]]))]
        if not len(seg):
            return
        j = np.round((h[window] + 1.0) * 2.0 ** 52).astype(np.int64)
        assert_same_bytes(half_turn(j), h[window])
        band = arm.classify(seg, j)
        live = np.flatnonzero(segments)
        self._draws.append(("multinomial", np.stack([np.bincount(seg[band == b], minlength=len(segments))[live]
                                                     for b in range(3)], axis=1)))
        order = np.argsort(seg, kind="stable")
        order = order[band[order] == 1]
        self.undecided = words[window][order], h[window][order]
        if order.size:
            self._draws += [("integers", words[window][order] - arm.start[seg[order]]),
                            ("integers", arm.band_index(seg[order], j[order]))]
            self._highs = [arm.words[seg[order]], arm.counts[seg[order], 1]]
        self._live = live

    def _next(self, kind):
        assert self._draws, "the block drew beyond the planted draws"
        planted, column = self._draws.pop(0)
        assert planted == kind
        self.drawn.append(kind)
        return column.copy()

    def multinomial(self, n, pvals):
        if np.ndim(pvals) == 1:
            assert_same_bytes(pvals, self.arm.pvals)
            counts = self._next("multinomial")
            assert counts.sum() == n
        else:
            assert_same_bytes(pvals, self.arm.bands[self._live])
            counts = self._next("multinomial")
            assert np.array_equal(counts.sum(axis=1), n)
        return counts

    def integers(self, low, high):
        assert low == 0
        assert_same_bytes(high, self._highs.pop(0))
        return self._next("integers")


def angle_path_members(decomposition):
    """(weights, a_z, e1_z, alpha) of the merged members, alpha the polar
    angle about +z the angle path takes for a member's u window."""
    dirs, weights = merged_members(decomposition)
    a_z, e1_z = member_z(dirs)
    return weights, a_z, e1_z, np.array([math.atan2(-e, a) for a, e in zip(a_z, e1_z)])


def planted_words(weights, idx, u):
    """Word indices on and either side of the word of member idx[i] at which
    its polar uniform is u[i] but for rounding, where that word falls among
    the member's words."""
    cum = np.cumsum(weights)
    lower = np.concatenate([[0.0], cum[:-1]])
    upper = np.append(cum[:-1], 1.0)
    w = lower[idx] + u * np.append(weights[:-1], 1.0 - lower[-1])[idx]
    w = w[(w >= lower[idx]) & (w < upper[idx])]
    words = (np.floor(w * LATTICE).astype(np.int64)[:, None] + [-1, 0, 1]).ravel()
    return words[(words >= 0) & (words < LATTICE)]


def polar_cos_of(strategy, u):
    """cos t of the polar uniforms u by the strategy's whole-column forms."""
    if isinstance(strategy, TabulatedStrategy):
        return searchsorted_polar_cos(strategy, u)
    return _ab_inverse_cdf(strategy.form, u)


def doubles_around(x):
    """Each of x, and the two doubles either side of it: shape (len(x), 5)."""
    below = np.nextafter(x, -math.inf)
    above = np.nextafter(x, math.inf)
    return np.stack([np.nextafter(below, -math.inf), below, x, above, np.nextafter(above, math.inf)], axis=1)


def planted_uniforms(strategy, alpha, cap_cos):
    """u = 0, and the u on and two doubles either side of: each member's
    window ends (`_u_windows`, members at polar angles alpha), the polar
    step's thresholds in [0, pi] mapped through `polar_uniform` without the
    margin, and the flat (zero-mass) cells of a tabulated CDF; all within
    [0, 1)."""
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    miss_beyond, hit_beyond = _polar_bounds(cap_cos)
    thresholds = np.concatenate([alpha - miss_beyond, alpha + miss_beyond,
                                 math.pi - alpha - hit_beyond, math.pi - alpha + hit_beyond])
    thresholds = thresholds[(thresholds >= 0.0) & (thresholds <= math.pi)]
    centres = [u_low, u_high, strategy.polar_uniform(thresholds)]
    if isinstance(strategy, TabulatedStrategy):
        xp = strategy._xp
        centres.append(xp[:-1][np.diff(xp) == 0.0])
    u = np.concatenate([np.zeros(1), doubles_around(np.concatenate(centres)).ravel()])
    return u[(u >= 0.0) & (u < 1.0)]


# members at +-z, at the cap's edge and in a generic position
PLANTED_MEMBERS = {"+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0), "cap": None, "generic": (0.3, -0.4, 0.5)}


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", sorted(PLANTED_MEMBERS))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_polar_step_counts_planted_edge_rows_as_the_z_coordinate(strategies, monkeypatch, tag, member, cap):
    # the block's rows are the words on and either side of each end of the
    # word classes' intervals, those at which the planted u lie, and drawn
    # words, once for each member: the member alone (its words are its u),
    # then with its antipode (each member has its own classes). The arm's
    # classes must be the bisected ones, the count the z coordinate's over
    # all rows, and the block must draw band counts for the rows in its
    # members' u windows alone
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    for decomposition in (members((1.0, direction)), members((0.5, direction), (0.5, antipode))):
        weights, _, _, alpha = angle_path_members(decomposition)
        classes = lattice_classes(strategy, decomposition, cap_cos)
        assert built("_word_classes", strategy, decomposition, cap_cos) == classes
        u = planted_uniforms(strategy, alpha, cap_cos)
        words = np.concatenate([class_words(classes, 4096),
                                planted_words(weights, np.repeat(np.arange(len(weights)), len(u)),
                                              np.tile(u, len(weights)))])
        m = len(words)
        h = substream(32).uniform(-1.0, 1.0, size=m)
        block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
        draws = PlantedDraws(AngleArm(strategy, decomposition, cap_cos), words, h)
        got = block_hits(draws, 0, m)
        assert got == np.count_nonzero(word_z(strategy, decomposition, words, h) >= cap_cos)
        # the u step decided some rows itself, and a block that it leaves no
        # window row draws no band count, word or half-turn
        k = np.count_nonzero(in_intervals(words, classes[1]))
        assert not draws._draws and (len(draws.drawn) > 1) == (k > 0) and k < m


def built(name, strategy, decomposition, cap_cos):
    """What the set-up step `nosignal.<name>` returns when `_cap_hits`
    builds the arm: "_azimuth_table" gives the azimuth step's (h_hit,
    h_miss) per cell, "_word_classes" the (hits, windows) word classes."""
    results, real = [], getattr(nosignal, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nosignal, name, lambda *args: results.append(real(*args)) or results[-1])
        _cap_hits(strategy, decomposition, cap_cos)
    [result] = results
    return result


def decided_cells(h_hit, h_miss):
    """The cells of an azimuth table that decide some row."""
    return np.flatnonzero((h_hit <= 1.0) | (h_miss > 0.0))


def planted_cell_rows(strategy, decomposition, cap_cos):
    """(arm, words, h), rows of the merged members that take the azimuth
    step: word indices on each edge of the cells that decide rows (the
    first word of a cell, c * CELL_WORDS) and on each end of the u windows
    (`lattice_classes`), and two either side, each with the half-turns of
    the j on the band edges of its own segment and of the segments either
    side of it, and two either side of them. Only the rows whose word is in
    a window are kept. None when no cell decides a row."""
    h_hit, h_miss = built("_azimuth_table", strategy, decomposition, cap_cos)
    cells = decided_cells(h_hit, h_miss)
    if not cells.size:
        return None
    arm = AngleArm(strategy, decomposition, cap_cos)
    ends = np.array(arm.classes[1], dtype=np.int64).ravel()
    words = (np.concatenate([np.union1d(cells, cells + 1) * CELL_WORDS, ends])[:, None] + np.arange(-2, 3)).ravel()
    words = np.unique(words[in_intervals(words, arm.classes[1])])
    seg = np.searchsorted(arm.start, words, side="right") - 1
    near = np.clip(seg[:, None] + [-1, 0, 1], 0, len(arm.words) - 1)
    j = (arm.edges[near][:, :, :, None] + np.arange(-2, 3)).reshape(len(words), -1)
    words, j = (a.ravel() for a in np.broadcast_arrays(words[:, None], j))
    keep = (j >= 0) & (j < LATTICE)
    return arm, words[keep], half_turn(j[keep])


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", sorted(PLANTED_MEMBERS))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_azimuth_step_counts_planted_cell_rows_as_the_z_coordinate(strategies, monkeypatch, tag, member, cap):
    # the block's window words and half-turns hold the planted rows, for
    # the member alone and with its antipode (each word takes its own
    # member); every row is in its member's u window, and the count must be
    # the z coordinate's.
    # A pole member's cells decide no row, and nor do those of a member and
    # a cap both within 1e-4 of a pole: there z moves by 1e-8 with the
    # azimuth, below CAP_Z_MARGIN
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    for decomposition in (members((1.0, direction)), members((0.5, direction), (0.5, antipode))):
        planted = planted_cell_rows(strategy, decomposition, cap_cos)
        if planted is None:
            assert member in ("+z", "-z") or (member == "cap" and cap != 0.2)
            continue
        arm, words, h = planted
        m = len(words)
        block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
        exact_rows = record_exact_rows(strategy, monkeypatch)
        exact, real_z = [], bloch.z_at_angle
        monkeypatch.setattr(bloch, "z_at_angle", lambda *args: exact.append(args[2:]) or real_z(*args))
        draws = PlantedDraws(arm, words, h)
        got = block_hits(draws, 0, m)
        monkeypatch.undo()
        assert got == np.count_nonzero(word_z(strategy, decomposition, words, h) >= cap_cos)
        # the azimuth step decided some rows itself, and the undecided rows
        # reach the exact z with the cos t of their words and their own h
        assert 0 < sum(exact_rows) < m
        [(cos_t, turns)] = exact
        undecided_words, undecided_h = draws.undecided
        assert_same_bytes(turns, undecided_h)
        assert_same_bytes(cos_t, polar_cos_of(strategy, recycled_words(merged_members(decomposition)[1],
                                                                       undecided_words / LATTICE)[1]))


def cell_words(cells, lower, upper):
    """The first two, middle and last two words of each cell of the words
    [c, c + 1) / CAP_CELLS, where they lie in [lower, upper)."""
    first, end = cells / nosignal.CAP_CELLS, (cells + 1) / nosignal.CAP_CELLS
    last = np.nextafter(end, 0.0)
    words = np.stack([first, np.nextafter(first, 1.0), (first + end) / 2.0, np.nextafter(last, 0.0), last], axis=1)
    return words[(words >= lower) & (words < upper)]


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", ["cap", "generic"])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cell_thresholds_hold_for_every_word_of_the_cell(strategies, tag, member, cap):
    # a cell's thresholds must decide the rows of every word of the cell,
    # window or not: at words on its ends and middle, and h on its
    # thresholds and two doubles either side of them, a sure row's z is
    # CAP_Z_MARGIN / 2 or more beyond the cap's edge. The member alone
    # (its words are its u), then with its antipode at weights 0.3 and 0.7
    # (each member's u recycled from its words)
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    decided = 0
    for decomposition in (members((1.0, direction)), members((0.3, antipode), (0.7, direction))):
        h_hit, h_miss = built("_azimuth_table", strategy, decomposition, cap_cos)
        cells = decided_cells(h_hit, h_miss)
        w = cell_words(cells, 0.0, 1.0)
        weights, a_z, e1_z, _ = angle_path_members(decomposition)
        idx, u = recycled_words(weights, w)
        c = (w * nosignal.CAP_CELLS).astype(np.intp)
        h = doubles_around(np.stack([h_hit[c], h_miss[c]], axis=1)).reshape(len(w), 10)
        h = np.concatenate([h, -h], axis=1)
        u, h, idx, c = np.broadcast_arrays(u[:, None], h, idx[:, None], c[:, None])
        keep = (h >= -1.0) & (h < 1.0)
        u, h, idx, c = u[keep], h[keep], idx[keep], c[keep]
        z = z_at_angle(a_z[idx], e1_z[idx], polar_cos_of(strategy, u), h)
        sure_hit, sure_miss = np.abs(h) >= h_hit[c], np.abs(h) < h_miss[c]
        assert np.all(z[sure_hit] >= cap_cos + nosignal.CAP_Z_MARGIN / 2.0)
        assert np.all(z[sure_miss] < cap_cos - nosignal.CAP_Z_MARGIN / 2.0)
        decided += np.count_nonzero(sure_hit | sure_miss)
    assert decided or cap != 0.2


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_azimuth_step_leaves_a_cell_of_two_members_words_to_the_exact_z(strategies, monkeypatch, tag):
    # two members whose boundary lies 2^-20 into cell 307, so the cell
    # holds the first member's last words and the second's first, and a cap
    # of 1 rad. The second member is at the cap's edge, or its antipode is,
    # so its words in the cell, whose u is near 0, are in its u window; the
    # first is far from the edge, so its words there, whose u is near 1,
    # are not (cos4's polar uniform grows with theta, AB's falls). The
    # cell decides no row, though the first member's thresholds would call
    # every row a miss and the next cell decides rows, so every window row
    # of the cell, with h on and around the next cell's band edges, goes on
    # to the exact z and counts as the z coordinate does
    strategy, cap_cos, shared = strategies[tag], math.cos(1.0), 307
    at = {angle: (math.sin(angle), 0.0, math.cos(angle)) for angle in (0.5, 1.0, 2.5, math.pi - 1.0)}
    pair = (at[0.5], at[1.0]) if tag == "cos4" else (at[2.5], at[math.pi - 1.0])
    boundary = shared / nosignal.CAP_CELLS + 2.0 ** -20
    decomposition = members((boundary, pair[0]), (1.0 - boundary, pair[1]))
    h_hit, h_miss = built("_azimuth_table", strategy, decomposition, cap_cos)
    assert (h_hit[shared], h_miss[shared]) == (2.0, 0.0)
    assert h_hit[shared + 1] <= 1.0 and h_miss[shared + 1] > 0.0
    weights, _, _, alpha = angle_path_members(decomposition)
    # the cell's first two, middle and last two words
    words = shared * CELL_WORDS + np.array([0, 1, CELL_WORDS // 2, CELL_WORDS - 2, CELL_WORDS - 1])
    idx, u = recycled_words(weights, words / LATTICE)
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    window = (u >= u_low[idx]) & (u <= u_high[idx])
    assert idx.tolist() == [0, 0, 1, 1, 1] and window.tolist() == [False, False, True, True, True]
    j = (np.concatenate(turn_edges([h_hit[shared + 1], h_miss[shared + 1]]))[:, None] + np.arange(-2, 3)).ravel()
    words, h = (a.ravel() for a in np.broadcast_arrays(words[window][:, None], half_turn(j)[None, :]))
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    draws = PlantedDraws(AngleArm(strategy, decomposition, cap_cos), words, h)
    exact_rows = record_exact_rows(strategy, monkeypatch)
    got = block_hits(draws, 0, len(words))
    monkeypatch.undo()
    assert exact_rows == [len(words)]
    assert got == np.count_nonzero(word_z(strategy, decomposition, words, h) >= cap_cos)


# numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so each SIMD level
# runs in its own child process. The script prints a digest of the word
# classes, the azimuth step's thresholds, and the class and band
# probabilities of a block with a row in each segment, the bytes that set a
# block's draws, of the cos4 and AB (a_frac 0.5) tilted arms at p = i/101,
# i = 1..100, and a cap of 0.2
WORD_CLASSES = """
import hashlib, math
import numpy as np
from qguess import nosignal
from qguess.ensembles import symmetric_decomposition
from qguess.estimator import ABFormStrategy, GuessingForm
drawn, real_classes, real_table = [], nosignal._word_classes, nosignal._azimuth_table

def record(*args):
    drawn.append(repr(real_classes(*args)).encode())
    return real_classes(*args)

def record_table(*args):
    table = real_table(*args)
    drawn.extend(t.tobytes() for t in table)
    return table

class Counts:
    def multinomial(self, n, pvals):
        drawn.append(pvals.tobytes())
        if np.ndim(pvals) == 2:
            return np.stack([n, 0 * n, 0 * n], axis=1)
        return np.concatenate([[0], np.ones(len(pvals) - 2, dtype=np.int64), [n - len(pvals) + 2]])

nosignal._word_classes = record
nosignal._azimuth_table = record_table
for strategy in (nosignal.cos4_strategy(), ABFormStrategy(GuessingForm.from_a_fraction(0.5))):
    for i in range(1, 101):
        block_hits, _ = nosignal._cap_hits(strategy, symmetric_decomposition(i / 101), math.cos(0.2))
        block_hits(Counts(), 0, nosignal.CAP_ROW_BLOCK)
print(hashlib.sha256(b"".join(drawn)).hexdigest())
"""


def test_window_edges_keep_their_bytes_at_avx2():
    # the members' polar angles, and so the windows and word classes made
    # from them, do not follow numpy's SIMD level: np.arctan2 gives other
    # bytes at AVX-512 than at AVX2 for some of these tilts. Nor do the
    # azimuth step's thresholds, which take math.acos (np.arccos gives
    # other bytes at the two levels), or the band counts made from them
    src = str(Path(nosignal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    digests = [subprocess.run([sys.executable, "-c", WORD_CLASSES], env=level, capture_output=True, text=True,
                              check=True).stdout
               for level in (env, {**env, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"})]
    assert digests[0] == digests[1]


def test_polar_step_counts_planted_rows_at_a_given_up_bound_as_the_z_coordinate(monkeypatch):
    # AB with a_frac 1.0, the tilted pair at p = 0.975 and a cap of
    # np.linspace(1e-4, pi, 60)[53]: the low u bound, 8.3e-13, the
    # decreasing polar_uniform of the window's upper edge, fails its check
    # and is given up, so the rows on and around it, planted in the window
    # words (the tilted pair is one member, whose words are its u), all stay
    # in the window and count as the z coordinate does
    strategy = ABFormStrategy(GuessingForm.from_a_fraction(1.0))
    decomposition = symmetric_decomposition(0.975)
    cap_cos = math.cos(np.linspace(1e-4, math.pi, 60)[53])
    weights, a_z, e1_z, alpha = angle_path_members(decomposition)
    assert weights.tolist() == [1.0]
    u_low, _, _, _ = _u_windows(strategy, alpha, cap_cos)
    miss_beyond, hit_beyond = _polar_bounds(cap_cos)
    edge = min(math.pi - alpha[0] + hit_beyond, alpha[0] + miss_beyond, math.pi)
    before = strategy.polar_uniform(min(edge + nosignal.CAP_THETA_MARGIN, math.pi))
    assert 0.0 < before < 1e-12 and u_low.tolist() == [0.0]
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    # the words at 0, half and twice the bound, and on and two either side of it
    bound = math.ceil(before * LATTICE)
    words = np.array([0, bound // 2, 2 * bound, *range(bound - 2, bound + 3)])
    m = len(words)
    h = substream(36).uniform(-1.0, 1.0, size=m)
    draws = PlantedDraws(AngleArm(strategy, decomposition, cap_cos), words, h)
    got = block_hits(draws, 0, m)
    z = z_at_angle(np.full(m, a_z[0]), np.full(m, e1_z[0]), _ab_inverse_cdf(strategy.form, words / LATTICE), h)
    assert got == np.count_nonzero(z >= cap_cos)
    assert not draws._draws and in_intervals(words, draws.arm.classes[1]).all()


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_u_windows_check_their_bounds_with_the_polar_map(strategies, monkeypatch, tag):
    # a polar_uniform 0.01 too high puts each window's low bound inside the
    # window; the check against polar_cos gives up its side, so the counts
    # stay those of the whole batches
    strategy = strategies[tag]
    real_polar_uniform = strategy.polar_uniform
    monkeypatch.setattr(strategy, "polar_uniform", lambda theta: real_polar_uniform(theta) + 0.01)
    for decomposition in (standard_decomposition(0.9), symmetric_decomposition(0.9)):
        got = mapped_hits(strategy, decomposition, math.cos(0.2), 35, CAP_ROW_BLOCK)
        assert [got] == block_major_cap_hits(strategy, decomposition, CAP_ROW_BLOCK, 35, 1)


# the polar_cos calls of each member set's set-up, where they are known
SET_UP_POLAR_COS = {"poles": 1, "y-z pair": 2}


@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_arm_set_up_maps_the_windows_once_and_checks_them_once(strategies, monkeypatch, tag, name):
    # the set-up maps every window end, and 0 and pi, in one polar_uniform
    # call and checks every bound in one polar_cos call; the azimuth table
    # calls polar_cos once more only when a member off the poles has a
    # window (the pole arm's members are on the poles, the tilted pair's not)
    strategy, decomposition, cap_cos = strategies[tag], member_sets()[name], math.cos(0.2)
    calls = {"polar_uniform": 0, "polar_cos": 0}
    for attr in calls:
        def counted(x, attr=attr, real=getattr(strategy, attr)):
            calls[attr] += 1
            return real(x)

        monkeypatch.setattr(strategy, attr, counted)
    _cap_hits(strategy, decomposition, cap_cos)
    monkeypatch.undo()
    _, _, e1_z, _ = angle_path_members(decomposition)
    off_poles = any(a < b and e != 0.0 for (_, a, b, _), e in zip(member_words(strategy, decomposition, cap_cos), e1_z))
    assert calls == {"polar_uniform": 1, "polar_cos": 1 + off_poles}
    assert calls["polar_cos"] == SET_UP_POLAR_COS.get(name, calls["polar_cos"])


def test_u_step_leaves_few_rows_to_the_inverse_map(strategies, monkeypatch):
    # cos4 at p = 0.9 and a cap of 0.2, 2^19 rows per arm: the pole arm
    # hands at most 1e-4 of its rows to polar_cos, the tilted arm 30%; a
    # block calls it at most once, and never on no row
    strategy = strategies["cos4"]
    real_polar_cos = strategy.polar_cos
    for decomposition, share in ((standard_decomposition(0.9), 1e-4), (symmetric_decomposition(0.9), 0.3)):
        arm = _cap_hits(strategy, decomposition, math.cos(0.2))
        rows = []

        def record(u, rows=rows):
            rows.append(len(u))
            return real_polar_cos(u)

        monkeypatch.setattr(strategy, "polar_cos", record)
        m = 32 * ROW_BLOCK
        serial_hits(arm, substream(33), m)
        monkeypatch.undo()
        assert len(rows) <= -(-m // CAP_ROW_BLOCK) and all(rows)
        assert sum(rows) <= share * m


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_pole_block_without_window_rows_draws_no_azimuth_and_takes_no_exact_step(strategies, monkeypatch, tag):
    # a pole-arm block whose drawn words all lie outside their members' u
    # windows: it counts every row from its class count, asks PlantedDraws
    # for no word or azimuth, and calls neither polar_cos nor z_at_angle
    strategy, cap_cos = strategies[tag], math.cos(0.2)
    decomposition = standard_decomposition(0.9)
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    arm = AngleArm(strategy, decomposition, cap_cos)
    words = substream(39).integers(0, LATTICE, size=1 << 16)
    words = words[~in_intervals(words, arm.classes[1])]
    assert len(words) > 0.99 * (1 << 16) and len(angle_path_members(decomposition)[0]) == 2

    def refuse(*args):
        raise AssertionError("a block with no window row took the exact step")

    monkeypatch.setattr(strategy, "polar_cos", refuse)
    monkeypatch.setattr(bloch, "z_at_angle", refuse)
    got = block_hits(PlantedDraws(arm, words, None), 0, len(words))
    monkeypatch.undo()
    h = substream(40).uniform(-1.0, 1.0, size=len(words))
    assert got == np.count_nonzero(word_z(strategy, decomposition, words, h) >= cap_cos)


class TrigRecorder:
    """numpy as `bloch` sees it, noting which of cos, sin, copysign and sqrt
    are looked up, and the least and greatest argument of every np.sin and
    np.cos call."""

    def __init__(self):
        self.called = set()
        self.arguments = []

    def __getattr__(self, name):
        if name in ("cos", "sin", "copysign", "sqrt"):
            self.called.add(name)
        fn = getattr(np, name)
        if name not in ("cos", "sin"):
            return fn

        def trig(x, *args, **kwargs):
            if np.size(x):
                self.arguments.append((float(np.min(x)), float(np.max(x))))
            return fn(x, *args, **kwargs)

        return trig

    def assert_arguments_within_a_quarter_turn(self):
        assert all(-math.pi / 2.0 <= lo and hi <= math.pi / 2.0 for lo, hi in self.arguments)


# half-turns at the ends of [-1, 1], on the frame's axes and next to them
EDGE_HALF_TURNS = np.concatenate([[-1.0, -0.5, 0.0, 0.5, 1.0], np.nextafter([-1.0, -0.5, 0.0, 0.5, 1.0], 0.0),
                                  np.nextafter([-0.5, 0.0, 0.5], 2.0)])


def angle_kernel_calls():
    """{name: zero-argument call} of each direction kernel on drawn and edge azimuths."""
    rng = substream(28)
    n = ROW_BLOCK + 5
    axes = random_directions(rng, n)
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    h = np.concatenate([EDGE_HALF_TURNS, rng.uniform(-1.0, 1.0, size=n - len(EDGE_HALF_TURNS))])
    a_z, e1_z = member_z(axes)
    return {
        "random_directions": lambda: random_directions(substream(28), n),
        "directions_at_angle": lambda: directions_at_angle(axes, cos_t, h),
        "z_at_angle": lambda: z_at_angle(a_z, e1_z, cos_t, h),
    }


@pytest.mark.parametrize("kernel", sorted(angle_kernel_calls()))
def test_direction_kernels_take_trig_within_a_quarter_turn(monkeypatch, kernel):
    # cos(phi) is sin(pi*(1/2 - |h|)), so no kernel calls np.cos, and z has
    # no sin(phi) term, so z_at_angle never looks up copysign
    call = angle_kernel_calls()[kernel]
    recorder = TrigRecorder()
    monkeypatch.setattr(bloch, "np", recorder)
    call()
    assert recorder.called == ({"sin", "sqrt"} if kernel == "z_at_angle" else {"sin", "copysign", "sqrt"})
    assert recorder.arguments
    recorder.assert_arguments_within_a_quarter_turn()


@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_cap_hits_take_trig_within_a_quarter_turn_and_no_sin_phi(strategies, monkeypatch, tag, name):
    # the z coordinate has no sin(phi) term, so an angle-path block never
    # looks up copysign, which sin(phi) takes; s = sqrt(1 - t^2) scales
    # cos(phi). A block that leaves no row to the exact z takes no trig.
    # MP's whole guesses take random_directions
    arm = _cap_hits(strategies[tag], member_sets()[name], math.cos(0.2))
    exact_rows = record_exact_rows(strategies[tag], monkeypatch)
    recorder = TrigRecorder()
    monkeypatch.setattr(bloch, "np", recorder)
    serial_hits(arm, substream(28), CAP_ROW_BLOCK + 1)
    if tag == "mp":
        assert recorder.called == {"sin", "copysign", "sqrt"}
    else:
        assert recorder.called == ({"sin", "sqrt"} if exact_rows else set())
    recorder.assert_arguments_within_a_quarter_turn()


def test_directions_at_angle_keeps_both_azimuth_terms_at_the_poles(monkeypatch):
    recorder = TrigRecorder()
    monkeypatch.setattr(bloch, "np", recorder)
    directions_at_angle(member_sets()["poles"].directions, np.array([0.5, -0.5]), np.array([0.3, 0.6]))
    assert recorder.called == {"sin", "copysign", "sqrt"}
