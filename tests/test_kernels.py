"""Byte identity of the batch kernels against plain-numpy constructions on
whole rows: the frame against the spherical frame written with `np.where`,
the tabulated inverse CDF against `np.interp` over the normalized CDF, the
kernels against their whole-batch forms at the block edges, the
discrimination's member pick and z coordinate against `np.searchsorted` and
column 2 of the full guess, its u and azimuth steps against that z at the
steps' edges, and the drivers, which draw each batch one row block at a
time, against block-major references that draw each block whole; the
discrimination's angle path against one that takes each row's member and
polar uniform from one word. Equality is on
`tobytes()`, so a last-ulp or signed-zero difference fails. The whole-batch
forms take the azimuth pair of a half-turn as stream contract 5 does
(`contract5_cos_sin`, written out here rather than imported)."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

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
    _linear_cells_sphere_mass,
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


def interp_inverse_cdf(strategy, u):
    return np.interp(u, strategy._cdf / strategy.sphere_integral, strategy._nodes)


def normalized_tabulated(thetas, values):
    """TabulatedStrategy with `values` rescaled to unit sphere integral."""
    thetas = np.asarray(thetas, dtype=float)
    values = np.asarray(values, dtype=float)
    mass = float(np.sum(_linear_cells_sphere_mass(thetas, values)))
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
# inverse CDF

def inverse_cdf_keys(strategy):
    """Every CDF node value with its two neighbours, u = 0, and a sweep of
    the last 64 cells below the saturated tail (the run of nodes where the
    CDF already equals 1); all inside [0, 1)."""
    xp = strategy._cdf / strategy.sphere_integral
    tail = int(np.flatnonzero(xp == xp[-1])[0])
    sweep = np.linspace(xp[max(tail - 64, 0)], 1.0, 4097)[:-1]
    keys = np.concatenate([xp, np.nextafter(xp, -1.0), np.nextafter(xp, 2.0), [0.0], sweep])
    return keys[(keys >= 0.0) & (keys < 1.0)]


STRATEGIES = {
    "cos4": cos4_strategy,
    "coarse": lambda: normalized_tabulated([0.0, math.pi / 2.0, math.pi], [3.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_inverse_cdf_is_byte_identical_to_interp(name):
    strategy = STRATEGIES[name]()
    keys = inverse_cdf_keys(strategy)
    assert_same_bytes(strategy.inverse_cdf(keys), interp_inverse_cdf(strategy, keys))
    u = substream(13).random(1 << 16)
    assert_same_bytes(strategy.inverse_cdf(u), interp_inverse_cdf(strategy, u))


@pytest.mark.parametrize("shift", [-40, -3, 3, 40])
def test_bracket_check_repairs_a_wrong_guide(shift):
    # the check and the binary-search fallback, not the guide, decide the cell
    strategy = cos4_strategy()
    last = len(strategy._xp) - 2
    strategy._guide = np.clip(strategy._guide + shift, 0, last)
    keys = inverse_cdf_keys(strategy)
    want = np.searchsorted(strategy._xp, keys, side="right") - 1
    assert np.array_equal(strategy._cdf_cell(keys), want)


def test_cos4_cdf_has_flat_cells_and_a_saturated_tail():
    # every flat cell is in the tail, where a cell's mass (below 1e-17)
    # no longer moves the running sum: the 19 cells among the 20 nodes at 1,
    # and the one before them
    xp = cos4_strategy()._cdf
    xp = xp / xp[-1]
    assert np.count_nonzero(np.diff(xp) == 0.0) == 20
    assert np.count_nonzero(xp == 1.0) == 20


def test_tabulated_sample_batch_matches_interp_path():
    strategy = cos4_strategy()
    inputs = random_directions(substream(14), 2048)
    rng = substream(15)
    u = rng.random(len(inputs))
    h = rng.uniform(-1.0, 1.0, size=len(inputs))
    want = broadcast_directions_at_angle(inputs, np.cos(interp_inverse_cdf(strategy, u)), h)
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
        return broadcast_directions_at_angle(inputs, np.cos(interp_inverse_cdf(strategy, u)), h)

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


def block_major_cap_hits(strategy, decomposition, trials, seed, workers, block=0, caps=(0.2,)):
    """One arm's cap hits, block after block; one count per cap half-angle
    in `caps`. The blocks have the discrimination's sizes, CAP_ROW_BLOCK
    rows for an angle strategy and ROW_BLOCK for MP.

    MP picks each row's member by np.searchsorted and takes the strategy's
    whole guesses for the block. An angle strategy draws one word w per
    row for the merged members (`merged_members`), which gives the member
    and its polar uniform (`recycled_words`), and counts the z column of
    `directions_at_angle` at the strategy's polar_cos and an azimuth
    column. The angle path draws azimuths only for the rows it leaves to
    the exact z, so for an angle strategy the two read the same draws only
    under `constant_azimuths`."""
    if strategy.polar_cos is None:
        dirs, weights = decomposition.directions, decomposition.weights
        rows = ROW_BLOCK
    else:
        dirs, weights = merged_members(decomposition)
        rows = CAP_ROW_BLOCK

    def block_z(rng, n):
        if strategy.polar_cos is None:
            idx = np.minimum(np.searchsorted(np.cumsum(weights), rng.random(n), side="right"), len(dirs) - 1)
            return strategy.sample_batch(dirs[idx], rng)[:, 2]
        idx, u = recycled_words(weights, rng.random(n))
        return directions_at_angle(dirs[idx], strategy.polar_cos(u), estimator.uniform_azimuths(rng, n))[:, 2]

    def batch_hits(rng, m):
        hits = np.zeros(len(caps), dtype=np.int64)
        for lo in range(0, m, rows):
            z = block_z(rng, min(rows, m - lo))
            hits += [np.count_nonzero(z >= math.cos(cap)) for cap in caps]
        return hits

    return sum(batch_hits(rng, m) for rng, m in streams.worker_batches(seed, trials, workers, block)).tolist()


@contextlib.contextmanager
def constant_azimuths(h0):
    """Every azimuth an angle strategy's guesses and the angle path take is
    the half-turn h0, drawn from no generator."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (estimator, nosignal):
            patch.setattr(module, "uniform_azimuths", lambda rng, n: np.full(n, h0))
        yield


# azimuths on and between the frame's axes, and a generic one (2 rad), as half-turns
AZIMUTHS = [0.0, 0.5, -1.0, -0.5, 2.0 / math.pi]
GENERIC_AZIMUTH = AZIMUTHS[-1]

DRIVER_TRIALS = [2, ROW_BLOCK - 1, ROW_BLOCK + 1, 32 * ROW_BLOCK + 44666, 64 * ROW_BLOCK + 7]


@pytest.fixture(scope="module")
def strategies():
    return {tag: strategy for tag, (strategy, _) in sampler_pairs().items()}


def assert_discrimination_matches_block_major(strategy, trials, workers, p=0.8):
    with constant_azimuths(GENERIC_AZIMUTH):
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


@pytest.mark.parametrize("h0", AZIMUTHS)
@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cap_hits_match_the_block_major_oracle_for_every_member_set(strategies, tag, name, h0):
    strategy, decomposition = strategies[tag], member_sets()[name]
    trials = 32 * ROW_BLOCK + 44666
    with constant_azimuths(h0):
        got = [mapped_hits(strategy, decomposition, math.cos(cap), 27, trials) for cap in CAPS]
        assert got == block_major_cap_hits(strategy, decomposition, trials, 27, 1, caps=CAPS)


def record_window_and_exact_rows(strategy, monkeypatch):
    """([k], [j]): the rows of each block's `uniform_azimuths` draw, which
    are the k rows in its members' u windows, and the rows of each block's
    `polar_cos` call, which the azimuth step leaves to the exact z."""
    window_rows, exact_rows = [], []
    real_azimuths, real_polar_cos = nosignal.uniform_azimuths, strategy.polar_cos

    def azimuths(rng, n):
        window_rows.append(n)
        return real_azimuths(rng, n)

    def polar_cos(u_rows):
        exact_rows.append(len(u_rows))
        return real_polar_cos(u_rows)

    monkeypatch.setattr(nosignal, "uniform_azimuths", azimuths)
    monkeypatch.setattr(strategy, "polar_cos", polar_cos)
    return window_rows, exact_rows


class CountedDraws:
    """A generator that notes the kind and size of each draw: ("random", n)
    or ("uniform", n)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def uniform(self, low, high, size):
        self.calls.append(("uniform", size))
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("arm", ["poles", "tilted"])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_angle_path_block_draws_one_word_per_row_and_its_exact_azimuths(strategies, monkeypatch, tag, arm):
    # a block of n rows moves the generator n + k words, k the rows in its
    # members' u windows, whose azimuths it draws; 2^21 rows of the pole arm
    # leave a few, and every tilted block has some. The azimuth step leaves
    # under 1% of the tilted arm's window rows to polar_cos and the exact z
    strategy = strategies[tag]
    decomposition = {"poles": standard_decomposition, "tilted": symmetric_decomposition}[arm](0.9)
    arm_hits = _cap_hits(strategy, decomposition, math.cos(0.2))
    window_rows, exact_rows = record_window_and_exact_rows(strategy, monkeypatch)
    rng, ref = substream(37), substream(37)
    m = 128 * ROW_BLOCK
    serial_hits(arm_hits, rng, m)
    assert sum(window_rows) > 0 and all(window_rows)
    ref.random(m + sum(window_rows))
    assert rng.random() == ref.random()
    if arm == "tilted":
        assert len(window_rows) == m // CAP_ROW_BLOCK
        assert sum(exact_rows) < 0.01 * sum(window_rows)


def block_draws(calls):
    """[[n] or [n, k]] per block of a CountedDraws record: the block's word
    column, then its azimuths if it drew any."""
    blocks = []
    for kind, size in calls:
        if kind == "random":
            blocks.append([size])
        else:
            assert kind == "uniform" and len(blocks[-1]) == 1
            blocks[-1].append(size)
    return blocks


@pytest.mark.parametrize("m", [CAP_ROW_BLOCK - 1, 2 * CAP_ROW_BLOCK + 3])
@pytest.mark.parametrize("name", sorted(member_sets()))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_angle_path_blocks_of_any_member_set_draw_n_plus_k_words(strategies, tag, name, m):
    # every block, the ragged last one included, draws one word per row,
    # then the azimuths of the k rows in its members' u windows when k > 0,
    # from a generator already part used
    arm = _cap_hits(strategies[tag], member_sets()[name], math.cos(0.2))
    rng, ref = substream(38, 1), substream(38, 1)
    rng.random(3)
    ref.random(3)
    draws = CountedDraws(rng)
    serial_hits(arm, draws, m)
    blocks = block_draws(draws.calls)
    assert [block[0] for block in blocks] == [min(CAP_ROW_BLOCK, m - lo) for lo in range(0, m, CAP_ROW_BLOCK)]
    assert all(0 < k <= n for n, *window in blocks for k in window)
    ref.random(sum(map(sum, blocks)))
    assert rng.random() == ref.random()


def test_angle_path_counts_in_cap_row_blocks_and_mp_in_row_blocks(strategies, monkeypatch):
    # the angle path's blocks have CAP_ROW_BLOCK rows, and each draws its
    # column of words once; the tilted pair is one member to it, so no
    # block picks a member. MP's whole guesses keep streams.ROW_BLOCK, and
    # every MP block picks its members once.
    assert CAP_ROW_BLOCK > ROW_BLOCK
    m = CAP_ROW_BLOCK + ROW_BLOCK + 1
    real = nosignal._member_index
    for tag in ("cos4", "ab", "mp"):
        picks, draws = [], CountedDraws(substream(30))

        def record(cum, pick, picks=picks):
            picks.append(len(pick))
            return real(cum, pick)

        monkeypatch.setattr(nosignal, "_member_index", record)
        serial_hits(_cap_hits(strategies[tag], symmetric_decomposition(0.8), math.cos(0.2)), draws, m)
        if tag == "mp":
            assert picks == [min(ROW_BLOCK, m - lo) for lo in range(0, m, ROW_BLOCK)]
        else:
            assert picks == []
            assert [block[0] for block in block_draws(draws.calls)] == [CAP_ROW_BLOCK, ROW_BLOCK + 1]


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_angle_path_block_holds_three_arrays_of_its_rows(strategies, p):
    # at most three float64 arrays of a block's rows are alive at once: the
    # block's words, and the few arrays of its window rows. The peak was
    # 1.4-2.1 arrays, where it was 2.9-3.6 when each row drew two words and
    # ten when the path counted in ROW_BLOCK rows
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
        assert peak <= 3 * 8 * CAP_ROW_BLOCK


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
    """The generator of one row block, handing out given columns in order:
    `random` and `uniform` return the next column as it is, and must ask for
    all of it; asking for a column beyond the last fails."""

    def __init__(self, *columns):
        self._columns = list(columns)

    def _next(self, size):
        assert self._columns, "the block drew a column beyond the planted ones"
        column = self._columns.pop(0)
        assert len(column) == size
        return column.copy()

    def random(self, size):
        return self._next(size)

    def uniform(self, low, high, size):
        return self._next(size)


def angle_path_members(decomposition):
    """(weights, a_z, e1_z, alpha) of the merged members, alpha the polar
    angle about +z the angle path takes for a member's u window."""
    dirs, weights = merged_members(decomposition)
    a_z, e1_z = member_z(dirs)
    return weights, a_z, e1_z, np.arctan2(-e1_z, a_z)


def planted_words(weights, idx, u):
    """(keep, w, member, u'): the word w of member idx[i] at which its polar
    uniform is u[i] but for rounding, for the rows `keep` whose w falls
    among that member's words, and the member and polar uniform u' the
    angle path takes from w (`recycled_words`)."""
    cum = np.cumsum(weights)
    lower = np.concatenate([[0.0], cum[:-1]])
    upper = np.append(cum[:-1], 1.0)
    w = lower[idx] + u * np.append(weights[:-1], 1.0 - lower[-1])[idx]
    keep = np.flatnonzero((w >= lower[idx]) & (w < upper[idx]))
    w = w[keep]
    return (keep, w, *recycled_words(weights, w))


def polar_cos_of(strategy, u):
    """cos t of the polar uniforms u by the strategy's whole-column forms."""
    if isinstance(strategy, TabulatedStrategy):
        return np.cos(interp_inverse_cdf(strategy, u))
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
    # the words give the planted u, once for each member: the member alone
    # (its words are its u), then with its antipode (each member has its
    # own edges on the words); the count must be the z coordinate's over
    # all rows, and the block must draw the azimuths of the rows in its
    # members' u windows alone
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    for decomposition in (members((1.0, direction)), members((0.5, direction), (0.5, antipode))):
        weights, a_z, e1_z, alpha = angle_path_members(decomposition)
        u = planted_uniforms(strategy, alpha, cap_cos)
        _, w, idx, u = planted_words(weights, np.repeat(np.arange(len(weights)), len(u)), np.tile(u, len(weights)))
        m = len(w)
        h = substream(32).uniform(-1.0, 1.0, size=m)
        u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
        exact = (u >= u_low[idx]) & (u <= u_high[idx])
        block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
        window_rows, _ = record_window_and_exact_rows(strategy, monkeypatch)
        got = block_hits(PlantedDraws(w, h[exact]), 0, m)
        monkeypatch.undo()
        assert got == np.count_nonzero(z_at_angle(a_z[idx], e1_z[idx], polar_cos_of(strategy, u), h) >= cap_cos)
        # the u step decided some rows itself, and a block that it leaves no
        # window row draws no azimuth
        k = np.count_nonzero(exact)
        assert window_rows == ([k] if k else []) and k < m


def planted_cell_rows(strategy, decomposition, cap_cos):
    """(w, member, u, h), rows of the merged members that take the azimuth
    step: u on each edge of the member's cells (`nosignal._azimuth_cells`)
    and two doubles either side, each with h on the two thresholds of the
    cells on both sides of that edge and two doubles either side of them;
    every other row's h is negated. The words w give each row's member and
    u (`planted_words`), and only the rows whose u is in their member's u
    window are kept. None when no member takes the step."""
    weights, a_z, e1_z, alpha = angle_path_members(decomposition)
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    cells = nosignal._azimuth_cells(strategy, a_z, e1_z, u_low, u_high, cap_cos)
    if cells is None:
        return None
    offset, h_hit, h_miss = np.broadcast_to(cells[2], len(weights)), cells[3], cells[4]
    n = nosignal.CAP_AZIMUTH_CELLS
    rows = []
    for m in range(len(weights)):
        if offset[m] == len(h_hit) - 1:  # the cell that decides no row
            continue
        table = slice(offset[m], offset[m] + n + 1)
        # the thresholds of the cells either side of each edge: (n + 1, 20)
        h = doubles_around(np.stack([h_hit[table], h_miss[table]], axis=1)).reshape(n + 1, 10)
        h = np.concatenate([h[np.maximum(np.arange(n + 1) - 1, 0)], h], axis=1)
        u = doubles_around(np.linspace(u_low[m], u_high[m], n + 1))
        u, h = np.broadcast_arrays(u[:, :, None], h[:, None, :])
        u, h = u.ravel(), h.ravel().copy()
        h[::2] *= -1.0
        keep = (u >= u_low[m]) & (u <= u_high[m]) & (u < 1.0) & (h >= -1.0) & (h < 1.0)
        rows.append((np.full(np.count_nonzero(keep), m), u[keep], h[keep]))
    idx, u, h = (np.concatenate(column) for column in zip(*rows))
    keep, w, idx, u = planted_words(weights, idx, u)
    inside = (u >= u_low[idx]) & (u <= u_high[idx])
    return w[inside], idx[inside], u[inside], h[keep][inside]


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", sorted(PLANTED_MEMBERS))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_azimuth_step_counts_planted_cell_rows_as_the_z_coordinate(strategies, monkeypatch, tag, member, cap):
    # the words and the h column hold the planted rows, for the member alone
    # and with its antipode (each row takes its member's cells); every row
    # is in its member's u window, and the count must be the z coordinate's.
    # A pole member takes no azimuth step
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    for decomposition in (members((1.0, direction)), members((0.5, direction), (0.5, antipode))):
        planted = planted_cell_rows(strategy, decomposition, cap_cos)
        if planted is None:
            assert member in ("+z", "-z")
            continue
        w, idx, u, h = planted
        m = len(w)
        _, a_z, e1_z, _ = angle_path_members(decomposition)
        block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
        window_rows, exact_rows = record_window_and_exact_rows(strategy, monkeypatch)
        got = block_hits(PlantedDraws(w, h), 0, m)
        monkeypatch.undo()
        assert got == np.count_nonzero(z_at_angle(a_z[idx], e1_z[idx], polar_cos_of(strategy, u), h) >= cap_cos)
        # the azimuth step decided some rows itself, but where the member and
        # the cap are both within 1e-4 of a pole: there z moves by 1e-8 with
        # the azimuth, below CAP_Z_MARGIN
        assert window_rows == [m] and (sum(exact_rows) < m or (member == "cap" and cap != 0.2))


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", ["cap", "generic"])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cell_thresholds_hold_one_cell_beyond_each_cell(strategies, tag, member, cap):
    # a row's cell index may round one off, so each cell's thresholds must
    # decide the rows of the cells either side of it too: at u on the far
    # edges of those cells and h on the cell's thresholds and two doubles
    # either side of them, a sure row's z is CAP_Z_MARGIN / 2 or more beyond
    # the cap's edge
    strategy, cap_cos = strategies[tag], math.cos(cap)
    dirs = members((1.0, PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap)))).directions
    alpha = np.arctan2(np.hypot(dirs[:, 0], dirs[:, 1]), dirs[:, 2])
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    a_z, e1_z = member_z(dirs)
    n = nosignal.CAP_AZIMUTH_CELLS
    h_hit, h_miss = nosignal._cell_thresholds(strategy, a_z[0], e1_z[0], u_low[0], u_high[0], cap_cos)
    edges = np.linspace(u_low[0], u_high[0], n + 1)
    c = np.arange(n + 1)
    u = np.stack([edges[np.maximum(c - 1, 0)], edges[np.minimum(c + 2, n)]], axis=1)
    h = doubles_around(np.stack([h_hit, h_miss], axis=1)).reshape(n + 1, 10)
    h = np.concatenate([h, -h], axis=1)
    u, h, hit, miss = np.broadcast_arrays(u[:, :, None], h[:, None, :], h_hit[:, None, None], h_miss[:, None, None])
    keep = (u < 1.0) & (h >= -1.0) & (h < 1.0)
    u, h, hit, miss = u[keep], h[keep], hit[keep], miss[keep]
    cos_theta = np.cos(interp_inverse_cdf(strategy, u)) if tag == "cos4" else _ab_inverse_cdf(strategy.form, u)
    z = z_at_angle(np.full(len(u), a_z[0]), np.full(len(u), e1_z[0]), cos_theta, h)
    sure_hit, sure_miss = np.abs(h) >= hit, np.abs(h) < miss
    assert np.all(z[sure_hit] >= cap_cos + nosignal.CAP_Z_MARGIN / 2.0)
    assert np.all(z[sure_miss] < cap_cos - nosignal.CAP_Z_MARGIN / 2.0)
    assert np.any(sure_hit | sure_miss) or cap != 0.2


def test_polar_step_counts_planted_rows_at_a_given_up_bound_as_the_z_coordinate(monkeypatch):
    # AB with a_frac 1.0, the tilted pair at p = 0.975 and a cap of
    # np.linspace(1e-4, pi, 60)[53]: the low u bound, 8.3e-13, fails its
    # check and is given up, so the rows on and around it, planted in the
    # words (the tilted pair is one member, whose words are its u), all
    # stay in the window and count as the z coordinate does
    strategy = ABFormStrategy(GuessingForm.from_a_fraction(1.0))
    decomposition = symmetric_decomposition(0.975)
    cap_cos = math.cos(np.linspace(1e-4, math.pi, 60)[53])
    real_checked_bound = nosignal._checked_bound
    checked = {}

    def record(strategy, bound, toward, *args):
        checked[toward] = (np.clip(bound, 0.0, 1.0), real_checked_bound(strategy, bound, toward, *args))
        return checked[toward][1]

    monkeypatch.setattr(nosignal, "_checked_bound", record)
    block_hits, _ = _cap_hits(strategy, decomposition, cap_cos)
    monkeypatch.undo()
    before, after = checked[-math.inf]
    assert np.all((before > 0.0) & (before < 1e-12)) and np.all(after == 0.0)
    u = [0.0, before[0] / 2.0, 2.0 * before[0]]
    for c in (np.nextafter(before[0], -math.inf), before[0], np.nextafter(before[0], math.inf)):
        u += [np.nextafter(c, -math.inf), c, np.nextafter(c, math.inf)]
    weights, a_z, e1_z, _ = angle_path_members(decomposition)
    assert weights.tolist() == [1.0]
    w = np.array(u)
    m = len(w)
    h = substream(36).uniform(-1.0, 1.0, size=m)
    window_rows, _ = record_window_and_exact_rows(strategy, monkeypatch)
    got = block_hits(PlantedDraws(w, h), 0, m)
    monkeypatch.undo()
    z = z_at_angle(np.full(m, a_z[0]), np.full(m, e1_z[0]), _ab_inverse_cdf(strategy.form, w), h)
    assert got == np.count_nonzero(z >= cap_cos)
    assert window_rows == [m]


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_u_windows_check_their_bounds_with_the_polar_map(strategies, monkeypatch, tag):
    # a polar_uniform 0.01 too high puts each window's low bound inside the
    # window; the check against polar_cos gives up its side, so the counts
    # stay those of the whole batches
    strategy = strategies[tag]
    real_polar_uniform = strategy.polar_uniform
    monkeypatch.setattr(strategy, "polar_uniform", lambda theta: real_polar_uniform(theta) + 0.01)
    for decomposition in (standard_decomposition(0.9), symmetric_decomposition(0.9)):
        with constant_azimuths(GENERIC_AZIMUTH):
            got = mapped_hits(strategy, decomposition, math.cos(0.2), 35, CAP_ROW_BLOCK)
            assert [got] == block_major_cap_hits(strategy, decomposition, CAP_ROW_BLOCK, 35, 1)


def test_u_step_leaves_few_rows_to_the_inverse_map(strategies, monkeypatch):
    # cos4 at p = 0.9 and a cap of 0.2, 2^19 rows per arm: the pole arm
    # hands at most 1e-4 of its rows to the inverse CDF, the tilted arm 30%;
    # a block calls it at most once, and never on no row
    strategy = strategies["cos4"]
    real_inverse_cdf = strategy.inverse_cdf
    for decomposition, share in ((standard_decomposition(0.9), 1e-4), (symmetric_decomposition(0.9), 0.3)):
        arm = _cap_hits(strategy, decomposition, math.cos(0.2))
        rows = []

        def record(u, rows=rows):
            rows.append(len(u))
            return real_inverse_cdf(u)

        monkeypatch.setattr(strategy, "inverse_cdf", record)
        m = 32 * ROW_BLOCK
        serial_hits(arm, substream(33), m)
        monkeypatch.undo()
        assert len(rows) <= m // CAP_ROW_BLOCK and all(rows)
        assert sum(rows) <= share * m


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_pole_block_without_window_rows_draws_no_azimuth_and_takes_no_exact_step(strategies, monkeypatch, tag):
    # a pole-arm block whose words all lie outside their members' u
    # windows: it counts every row from its word, asks PlantedDraws for no
    # azimuth column, and calls neither polar_cos nor z_at_angle
    strategy, cap_cos = strategies[tag], math.cos(0.2)
    decomposition = standard_decomposition(0.9)
    block_hits, rows = _cap_hits(strategy, decomposition, cap_cos)
    weights, a_z, e1_z, alpha = angle_path_members(decomposition)
    w = substream(39).random(rows)
    idx, u = recycled_words(weights, w)
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    outside = (u < u_low[idx]) | (u > u_high[idx])
    w, idx, u = w[outside], idx[outside], u[outside]
    assert len(w) > 0.99 * rows and len(weights) == 2

    def refuse(*args):
        raise AssertionError("a block with no window row took the exact step")

    monkeypatch.setattr(strategy, "polar_cos", refuse)
    monkeypatch.setattr(bloch, "z_at_angle", refuse)
    got = block_hits(PlantedDraws(w), 0, len(w))
    monkeypatch.undo()
    h = substream(40).uniform(-1.0, 1.0, size=len(w))
    assert got == np.count_nonzero(z_at_angle(a_z[idx], e1_z[idx], polar_cos_of(strategy, u), h) >= cap_cos)


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
    _, exact_rows = record_window_and_exact_rows(strategies[tag], monkeypatch)
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
