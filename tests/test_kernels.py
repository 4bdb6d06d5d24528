"""Byte identity of the batch kernels against the plain-numpy constructions
they replaced: the frame against `np.cross` and `np.linalg.norm`, the
tabulated inverse CDF against `np.interp` over the normalized CDF, the
kernels against their whole-batch forms at the block edges, the
discrimination's member pick and z coordinate against `np.searchsorted` and
column 2 of the full guess (`==` where azimuth terms with zero frame
coordinates are left out), its u step against that z at the step's
edges, a skipped column against a read one, and the drivers, which draw
each batch one row block at a time, against their whole-batch bodies. Equality is on
`tobytes()`, so a last-ulp or signed-zero difference fails."""

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
    frame_z,
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
from qguess.streams import BATCH_CAP, ROW_BLOCK, map_row_blocks, substream


def cross_frames(axes):
    """Helper-axis cross product, normalized with np.linalg.norm."""
    axes = np.asarray(axes, dtype=float)
    helper = np.zeros_like(axes)
    use_y = np.abs(axes[:, 0]) > 0.9
    helper[use_y, 1] = 1.0
    helper[~use_y, 0] = 1.0
    e1 = np.cross(axes, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axes, e1)
    return e1, e2


def broadcast_directions_at_angle(axes, cos_theta, phi):
    """(n, 3) broadcasting form of directions_at_angle on the cross frames."""
    e1, e2 = cross_frames(axes)
    t = cos_theta[:, None]
    s = np.sqrt(np.clip(1.0 - cos_theta * cos_theta, 0.0, None))[:, None]
    return t * axes + s * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)


def stacked_random_directions(rng, n):
    """Whole-batch form of random_directions: one np.stack of the three columns."""
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


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


def unit_rows_with_x(x, rng):
    """Unit rows with the given x components and random (y, z) directions."""
    x = np.asarray(x, dtype=float)
    psi = rng.uniform(0.0, 2.0 * math.pi, size=len(x))
    r = np.sqrt(1.0 - x * x)
    return np.column_stack([x, r * np.cos(psi), r * np.sin(psi)])


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# frames

def frame_cases():
    rng = substream(11)
    edge = 0.9
    near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    signed = near + [-x for x in near]
    return {
        "random": random_directions(substream(10), 1 << 16),
        "axes": np.concatenate([np.eye(3), -np.eye(3)]),
        "x_at_0.9": unit_rows_with_x(np.repeat(signed, 8), rng),
        "x_dominant": unit_rows_with_x(rng.uniform(0.9, 1.0, 256) * rng.choice([-1.0, 1.0], 256), rng),
    }


@pytest.mark.parametrize("case", sorted(frame_cases()))
def test_frames_are_byte_identical_to_cross_products(case):
    axes = frame_cases()[case]
    e1, e2 = orthonormal_frames(axes)
    r1, r2 = cross_frames(axes)
    assert_same_bytes(e1, r1)
    assert_same_bytes(e2, r2)


def test_directions_at_angle_is_byte_identical_and_c_contiguous():
    rng = substream(12)
    axes = np.concatenate([random_directions(rng, 4096), frame_cases()["axes"]])
    cos_t = rng.uniform(-1.0, 1.0, size=len(axes))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=len(axes))
    out = directions_at_angle(axes, cos_t, phi)
    assert out.flags.c_contiguous
    assert_same_bytes(out, broadcast_directions_at_angle(axes, cos_t, phi))
    # a Fortran-ordered input still yields C-ordered output with the same bytes
    out_f = directions_at_angle(np.asfortranarray(axes), cos_t, phi)
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
    xp = cos4_strategy()._cdf
    xp = xp / xp[-1]
    assert np.count_nonzero(np.diff(xp) == 0.0) == 27
    assert np.count_nonzero(xp == 1.0) == 20


def test_tabulated_sample_batch_matches_interp_path():
    strategy = cos4_strategy()
    inputs = random_directions(substream(14), 2048)
    rng = substream(15)
    u = rng.random(len(inputs))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=len(inputs))
    want = broadcast_directions_at_angle(inputs, np.cos(interp_inverse_cdf(strategy, u)), phi)
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
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    out = directions_at_angle(axes, cos_t, phi)
    assert out.flags.c_contiguous
    assert_same_bytes(out, broadcast_directions_at_angle(axes, cos_t, phi))


# the weights of the discrimination tests: p = 0 and 1 give zero-weight
# members and put both tilted members on a pole
DISCRIMINATION_P = [0.0, 0.5, 0.9, 1.0]


def members(*weighted):
    """Decomposition of (weight, (x, y, z)) members, each direction normalized."""
    return EnsembleDecomposition(tuple((w, BlochVector.normalized(*v)) for w, v in weighted))


def member_sets():
    """Decompositions with each choice of azimuth terms, by `frame_z`: the
    poles have e1_z = e2_z = +-0, a y-z pair e2_z = +-0, an x-z pair with
    |x| <= 0.9 e1_z = +-0 (x-hat helper axis), an x-z pair with |x| > 0.9
    e2_z = +-0 (y-hat helper axis); the generic set, a pole among them,
    keeps both."""
    return {
        "poles": standard_decomposition(0.8),
        "y-z pair": symmetric_decomposition(0.8),
        "x-z pair": members((0.5, (0.6, 0.0, 0.8)), (0.5, (-0.6, 0.0, 0.8))),
        "x-dominant pair": members((0.4, (0.95, 0.0, 0.3)), (0.6, (-0.95, 0.0, -0.3))),
        "generic": members((0.3, (0.3, 0.4, 0.5)), (0.5, (-0.2, 0.1, -0.4)), (0.2, (0.0, 0.0, 1.0))),
    }


# the azimuth functions a block of each member set evaluates, by name
AZIMUTH_TERMS = {
    "poles": set(),
    "y-z pair": {"cos"},
    "x-z pair": {"sin"},
    "x-dominant pair": {"cos"},
    "generic": {"cos", "sin"},
}


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


@pytest.mark.parametrize("p", DISCRIMINATION_P)
def test_z_at_angle_is_column_2_of_directions_at_angle(p):
    rng = substream(25)
    unit_axes = np.concatenate([np.eye(3), -np.eye(3)])
    dirs = np.concatenate([standard_decomposition(p).directions, symmetric_decomposition(p).directions,
                           unit_axes, random_directions(rng, 64)])
    e1, e2 = orthonormal_frames(dirs)
    # the pole members' frames lie in the x-y plane, with signed zeros in z
    on_pole = np.abs(dirs[:, 2]) == 1.0
    assert np.count_nonzero(on_pole) >= 4
    assert not np.any(e1[on_pole, 2]) and not np.any(e2[on_pole, 2])
    n = 4096
    idx = rng.integers(0, len(dirs), size=n)
    cos_t = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    # angles whose products give signed zeros
    cos_t[:8] = [1.0, -1.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]
    phi[:8] = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.pi, 0.0, 0.5 * math.pi, 0.0]
    got = z_at_angle(dirs[:, 2].take(idx), e1[:, 2].take(idx), e2[:, 2].take(idx), cos_t, phi)
    assert_same_bytes(got, directions_at_angle(dirs[idx], cos_t, phi)[:, 2].copy())


@pytest.mark.parametrize("p", DISCRIMINATION_P)
def test_reduced_term_z_equals_column_2_of_directions_at_angle(p):
    # p = 0.5 puts the tilted pair on the equator (a_z = 0, so t*a_z = +-0);
    # p = 0 and 1 put it on a pole
    rng = substream(26)
    arms = [standard_decomposition(p), symmetric_decomposition(p), *member_sets().values()]
    if p == 0.5:
        assert not np.any(symmetric_decomposition(p).directions[:, 2])
    for decomposition in arms:
        dirs = decomposition.directions
        a_z, e1_z, e2_z = frame_z(dirs)
        # a dropped frame coordinate is +-0 for every member
        for got, full in zip((e1_z, e2_z), orthonormal_frames(dirs)):
            assert not np.any(full[:, 2]) if got is None else got.tobytes() == full[:, 2].tobytes()
        n = 4096
        idx = rng.integers(0, len(dirs), size=n)
        cos_t = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        # cos_theta = 0 rows, and angles whose products give signed zeros
        cos_t[:8] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]
        phi[:8] = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.pi, 0.0, 0.5 * math.pi, 0.0]
        picked = [None if c is None else c.take(idx) for c in (a_z, e1_z, e2_z)]
        got = z_at_angle(*picked, cos_t, phi)
        want = directions_at_angle(dirs[idx], cos_t, phi)[:, 2].copy()
        # == does not tell +0 from -0, and neither does the cap test z >= cap_cos
        assert np.array_equal(got, want)
        if e1_z is not None and e2_z is not None:
            assert_same_bytes(got, want)


def test_z_at_angle_writes_only_its_result():
    # one component is built in its output and a scratch array; the inputs,
    # here reused for directions_at_angle, keep their bytes
    rng = substream(29)
    for decomposition in member_sets().values():
        dirs = decomposition.directions
        idx = rng.integers(0, len(dirs), size=1000)
        picked = [None if c is None else c.take(idx) for c in frame_z(dirs)]
        cos_t, phi = rng.uniform(-1.0, 1.0, size=1000), rng.uniform(0.0, 2.0 * math.pi, size=1000)
        inputs = [a.copy() for a in (*(c for c in picked if c is not None), cos_t, phi)]
        got = z_at_angle(*picked, cos_t, phi)
        for before, after in zip(inputs, (*(c for c in picked if c is not None), cos_t, phi)):
            assert_same_bytes(after, before)
        assert np.array_equal(got, directions_at_angle(dirs[idx], cos_t, phi)[:, 2])


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
        phi = rng.uniform(0.0, 2.0 * math.pi, size=len(inputs))
        return broadcast_directions_at_angle(inputs, t, phi)

    return sample


def cos4_sample_batch(strategy):
    def sample(inputs, rng):
        u = rng.random(len(inputs))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=len(inputs))
        return broadcast_directions_at_angle(inputs, np.cos(interp_inverse_cdf(strategy, u)), phi)

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
# counter-addressed row blocks: the block loop reads a batch's columns as the
# whole-batch draws would, from any starting point of the generator

BLOCK_COLUMN_ROWS = [1, 2, 3, 5, 7, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]


@pytest.mark.parametrize("m", BLOCK_COLUMN_ROWS)
@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 5])
def test_row_blocks_read_the_whole_batch_columns(drawn, m):
    # `drawn` words already taken leave the Philox buffer part used, and most
    # m put the columns at word offsets that are not multiples of 4
    rng, ref = substream(21, 1, 2), substream(21, 1, 2)
    rng.random(drawn)
    ref.random(drawn)
    blocks = map_row_blocks(
        lambda draws, lo, hi: (lo, hi, draws.random(hi - lo), draws.uniform(-1.0, 1.0, size=hi - lo),
                               draws.random(hi - lo)),
        rng, m, 3)
    want = [ref.random(m), ref.uniform(-1.0, 1.0, size=m), ref.random(m)]
    assert [(lo, hi) for lo, hi, *_ in blocks] == [
        (lo, min(lo + ROW_BLOCK, m)) for lo in range(0, m, ROW_BLOCK)]
    for c in range(3):
        assert_same_bytes(np.concatenate([cols[c] for _, _, *cols in blocks]), want[c])
    # the batch generator is left where the whole-batch draws leave it
    assert rng.random() == ref.random()


@pytest.mark.parametrize("m", [1, 6, 7, 22])
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_row_blocks_of_any_size_read_the_whole_batch_columns(rows, m):
    rng, ref = substream(21, 3, 1), substream(21, 3, 1)
    blocks = map_row_blocks(lambda draws, lo, hi: (lo, hi, draws.random(hi - lo), draws.random(hi - lo)),
                            rng, m, 2, rows)
    assert [(lo, hi) for lo, hi, *_ in blocks] == [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    want = [ref.random(m), ref.random(m)]
    for c in range(2):
        assert_same_bytes(np.concatenate([cols[c] for _, _, *cols in blocks]), want[c])
    assert rng.random() == ref.random()


@pytest.mark.parametrize("calls", [1, 3])
def test_row_block_with_the_wrong_number_of_draw_calls_raises(calls):
    def block(draws, lo, hi):
        for _ in range(calls):
            draws.random(hi - lo)

    with pytest.raises(RuntimeError, match="uniform columns"):
        map_row_blocks(block, substream(22), 10, 2)


def test_row_block_draw_of_the_wrong_size_raises():
    with pytest.raises(RuntimeError, match="drew 4 uniforms"):
        map_row_blocks(lambda draws, lo, hi: draws.random(4), substream(22), 10, 1)


def philox_state(rng):
    """The generator's Philox state, arrays as lists, for == comparison."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


@pytest.mark.parametrize("m", BLOCK_COLUMN_ROWS)
@pytest.mark.parametrize("drawn", [0, 1, 3])
@pytest.mark.parametrize("skipped", [1, 2])
def test_a_skipped_column_leaves_every_draw_and_the_generator_as_reading_it(skipped, drawn, m):
    def block(draws, lo, hi, skip):
        cols = []
        for c in range(3):
            if skip and c == skipped:
                draws.skip(hi - lo)
            else:
                cols.append(draws.random(hi - lo))
        return cols

    rng, ref = substream(21, 2, 3), substream(21, 2, 3)
    rng.random(drawn)
    ref.random(drawn)
    got = map_row_blocks(lambda draws, lo, hi: block(draws, lo, hi, True), rng, m, 3)
    want = map_row_blocks(lambda draws, lo, hi: block(draws, lo, hi, False), ref, m, 3)
    read = [c for c in range(3) if c != skipped]
    for k, c in enumerate(read):
        assert_same_bytes(np.concatenate([cols[k] for cols in got]), np.concatenate([cols[c] for cols in want]))
    assert philox_state(rng) == philox_state(ref)
    assert rng.random() == ref.random()


def test_row_block_that_neither_reads_nor_skips_a_column_raises():
    with pytest.raises(RuntimeError, match="drew 1 of its 2 uniform columns"):
        map_row_blocks(lambda draws, lo, hi: draws.skip(hi - lo), substream(22), 10, 2)


def test_row_block_skip_of_the_wrong_size_raises():
    with pytest.raises(RuntimeError, match="drew 4 uniforms"):
        map_row_blocks(lambda draws, lo, hi: draws.skip(4), substream(22), 10, 1)


# ---------------------------------------------------------------------------
# drivers against their whole-batch bodies: each batch draws its columns
# whole from the generator, and the reductions are the drivers' own

def whole_batch_fidelity_and_counts(strategy, trials, seed, workers, bins=50):
    """monte_carlo_fidelity's (value, std_error) and collect_histogram's
    counts: both drivers draw the same inputs and guesses for one (seed,
    workers), so one pass of whole batches serves both."""
    edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(0.0, math.pi))

    def batch(rng, m):
        inputs = random_directions(rng, m)
        outcomes = strategy.sample_batch(inputs, rng)
        counts = np.histogram(angles_between(inputs, outcomes), bins=edges)[0]
        s = dots(inputs, outcomes)
        s += 1.0
        s /= 2.0
        total = float(np.sum(s))
        s *= s
        return total, float(np.sum(s)), counts

    total = total_sq = 0.0
    counts = np.zeros(bins, dtype=np.int64)
    for batch_sum, batch_sum_sq, batch_counts in streams.map_batches(batch, seed, trials, workers):
        total += batch_sum
        total_sq += batch_sum_sq
        counts += batch_counts
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return (mean, math.sqrt(variance / trials)), counts


def whole_batch_cap_hits(strategy, decomposition, trials, seed, workers, block=0, caps=(0.2,)):
    """One arm's cap hits from whole batches: the member pick by
    np.searchsorted, then the strategy's whole guesses; one count per cap
    half-angle in `caps`."""
    cum = np.cumsum(decomposition.weights)
    dirs = decomposition.directions

    def batch_hits(rng, m):
        idx = np.minimum(np.searchsorted(cum, rng.random(m), side="right"), len(dirs) - 1)
        z = strategy.sample_batch(dirs[idx], rng)[:, 2]
        return np.array([np.count_nonzero(z >= math.cos(cap)) for cap in caps])

    return sum(streams.map_batches(batch_hits, seed, trials, workers, block=block)).tolist()


DRIVER_TRIALS = [2, ROW_BLOCK - 1, ROW_BLOCK + 1, BATCH_CAP + 44666, 2 * BATCH_CAP + 7]


@pytest.fixture(scope="module")
def strategies():
    return {tag: strategy for tag, (strategy, _) in sampler_pairs().items()}


def assert_discrimination_matches_whole_batch(strategy, trials, workers, p=0.8):
    disc = run_discrimination_experiment(strategy, p, trials=trials, seed=23, workers=workers)
    [std], [sym] = (whole_batch_cap_hits(strategy, decomposition, trials, 23, workers, block=block)
                    for block, decomposition in enumerate([standard_decomposition(p), symmetric_decomposition(p)]))
    assert (disc.freq_standard, disc.freq_symmetric) == (std / trials, sym / trials)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trials", DRIVER_TRIALS)
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_blocked_drivers_match_their_whole_batch_bodies(strategies, tag, trials, workers):
    strategy = strategies[tag]
    moments, counts = whole_batch_fidelity_and_counts(strategy, trials, 23, workers)
    rep = monte_carlo_fidelity(strategy, trials=trials, seed=23, workers=workers)
    assert (rep.value, rep.std_error) == moments
    hist = collect_histogram(strategy, trials=trials, seed=23, workers=workers)
    assert_same_bytes(hist.counts, counts)
    assert_discrimination_matches_whole_batch(strategy, trials, workers)


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("tag", ["mp", "ab", "cos4"])
def test_blocked_discrimination_matches_its_whole_batch_body_at_the_end_weights(strategies, tag, p):
    # zero-weight members, and the tilted pair on one pole
    assert_discrimination_matches_whole_batch(strategies[tag], ROW_BLOCK + 1, 1, p=p)


def test_mp_discrimination_never_takes_the_angle_path(strategies, monkeypatch):
    # MP's guess is a measured axis: it has no angle sampler, and its cap
    # hits come from its whole guesses
    def refuse(*args):
        raise AssertionError("the MP discrimination took the angle path")

    assert MassarPopescuStrategy.polar_cos is None
    assert callable(strategies["ab"].polar_cos) and callable(strategies["cos4"].polar_cos)
    monkeypatch.setattr(bloch, "orthonormal_frames", refuse)
    monkeypatch.setattr(bloch, "z_at_angle", refuse)
    assert_discrimination_matches_whole_batch(strategies["mp"], ROW_BLOCK + 1, 1)


# the cap hits of any member set against the whole-batch oracle, at caps
# inside, at and beyond the equator
CAPS = (0.2, math.pi / 2.0, 2.5)


@pytest.mark.parametrize("name", sorted(AZIMUTH_TERMS))
@pytest.mark.parametrize("trials", [ROW_BLOCK + 1, CAP_ROW_BLOCK + 1, BATCH_CAP + 44666])
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cap_hits_match_the_whole_batch_oracle_for_every_member_set(strategies, tag, trials, name):
    strategy, decomposition = strategies[tag], member_sets()[name]
    got = [sum(streams.map_batches(_cap_hits(strategy, decomposition, math.cos(cap)), 27, trials, 1))
           for cap in CAPS]
    assert got == whole_batch_cap_hits(strategy, decomposition, trials, 27, 1, caps=CAPS)


def test_angle_path_counts_in_cap_row_blocks_and_mp_in_row_blocks(strategies, monkeypatch):
    # the angle path's blocks have CAP_ROW_BLOCK rows; MP's whole guesses
    # keep streams.ROW_BLOCK. Every block picks its members once.
    assert CAP_ROW_BLOCK > ROW_BLOCK
    m = CAP_ROW_BLOCK + ROW_BLOCK + 1
    real = nosignal._member_index
    for tag in ("cos4", "ab", "mp"):
        sizes = []

        def record(cum, pick, sizes=sizes):
            sizes.append(len(pick))
            return real(cum, pick)

        monkeypatch.setattr(nosignal, "_member_index", record)
        _cap_hits(strategies[tag], symmetric_decomposition(0.8), math.cos(0.2))(substream(30), m)
        rows = ROW_BLOCK if tag == "mp" else CAP_ROW_BLOCK
        assert sizes == [min(rows, m - lo) for lo in range(0, m, rows)]


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_angle_path_block_holds_six_arrays_of_its_rows(strategies, p):
    # at most six float64 arrays of a block's rows are alive at once, where
    # ten were when the path counted in ROW_BLOCK rows; the peak, 2.9-3.6
    # arrays, comes before the exact z
    for decomposition in (standard_decomposition(p), symmetric_decomposition(p)):
        batch_hits = _cap_hits(strategies["cos4"], decomposition, math.cos(0.2))
        batch_hits(substream(31), CAP_ROW_BLOCK)
        tracemalloc.start()
        try:
            batch_hits(substream(31), CAP_ROW_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.25 * 8 * CAP_ROW_BLOCK


class PlantedDraws:
    """The draws of one row block, handed out from given columns in order:
    `random` and `uniform` return the next column as it is, `skip` passes
    over it."""

    def __init__(self, *columns):
        self._columns = list(columns)

    def _next(self, size):
        column = self._columns.pop(0)
        assert len(column) == size
        return column.copy()

    def random(self, size):
        return self._next(size)

    def uniform(self, low, high, size):
        return self._next(size)

    def skip(self, size):
        self._next(size)


def planted_uniforms(strategy, decomposition, cap_cos):
    """u = 0, and the u on and two doubles either side of: each member's
    window ends (`_u_windows`), the polar step's thresholds in [0, pi]
    mapped through `polar_uniform` without the margin, and the flat
    (zero-mass) cells of a tabulated CDF; all within [0, 1)."""
    dirs = decomposition.directions
    alpha = np.arctan2(np.hypot(dirs[:, 0], dirs[:, 1]), dirs[:, 2])
    u_low, u_high, _, _ = _u_windows(strategy, alpha, cap_cos)
    miss_beyond, hit_beyond = _polar_bounds(cap_cos)
    thresholds = np.concatenate([alpha - miss_beyond, alpha + miss_beyond,
                                 math.pi - alpha - hit_beyond, math.pi - alpha + hit_beyond])
    thresholds = thresholds[(thresholds >= 0.0) & (thresholds <= math.pi)]
    centres = [u_low, u_high, strategy.polar_uniform(thresholds)]
    if isinstance(strategy, TabulatedStrategy):
        xp = strategy._xp
        centres.append(xp[:-1][np.diff(xp) == 0.0])
    u = [np.zeros(1)]
    for c in np.concatenate(centres):
        below, above = np.nextafter(c, -math.inf), np.nextafter(c, math.inf)
        u.append([np.nextafter(below, -math.inf), below, c, above, np.nextafter(above, math.inf)])
    u = np.concatenate(u)
    return u[(u >= 0.0) & (u < 1.0)]


# members at +-z, at the cap's edge and in a generic position
PLANTED_MEMBERS = {"+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0), "cap": None, "generic": (0.3, -0.4, 0.5)}


@pytest.mark.parametrize("cap", [1e-4, 0.2, math.pi - 1e-9])
@pytest.mark.parametrize("member", sorted(PLANTED_MEMBERS))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_polar_step_counts_planted_edge_rows_as_the_z_coordinate(strategies, monkeypatch, tag, member, cap):
    # the polar column holds the planted u, once for each member: the
    # member alone (its bounds are shared), then with its antipode (the two
    # members' bounds differ, so each row takes its member's); the count
    # must be the z coordinate's over all rows
    direction = PLANTED_MEMBERS[member] or (math.sin(cap), 0.0, math.cos(cap))
    antipode = tuple(-c for c in direction)
    strategy, cap_cos = strategies[tag], math.cos(cap)
    real_polar_cos = strategy.polar_cos
    for decomposition in (members((1.0, direction)), members((0.5, direction), (0.5, antipode))):
        dirs = decomposition.directions
        u = planted_uniforms(strategy, decomposition, cap_cos)
        idx = np.repeat(np.arange(len(dirs)), len(u))
        u = np.tile(u, len(dirs))
        m = len(u)
        pick = np.cumsum(decomposition.weights)[idx] - 0.25
        phi = substream(32).uniform(0.0, 2.0 * math.pi, size=m)
        batch_hits = _cap_hits(strategy, decomposition, cap_cos)
        exact_rows = []

        def record(u_rows, exact_rows=exact_rows):
            exact_rows.append(len(u_rows))
            return real_polar_cos(u_rows)

        monkeypatch.setattr(strategy, "polar_cos", record)
        monkeypatch.setattr(streams, "map_row_blocks",
                            lambda fn, rng, m, columns, rows, draws=PlantedDraws(pick, u, phi): [fn(draws, 0, m)])
        got = batch_hits(None, m)
        monkeypatch.undo()
        cos_theta = (np.cos(interp_inverse_cdf(strategy, u)) if tag == "cos4"
                     else _ab_inverse_cdf(strategy.form, u))
        a_z, e1_z, e2_z = (None if c is None else c[idx] for c in frame_z(dirs))
        assert got == np.count_nonzero(z_at_angle(a_z, e1_z, e2_z, cos_theta, phi) >= cap_cos)
        # the u step decided some rows itself
        assert exact_rows == [exact_rows[0]] and exact_rows[0] < m


def test_polar_step_counts_planted_rows_at_a_given_up_bound_as_the_z_coordinate(monkeypatch):
    # AB with a_frac 1.0, the tilted pair at p = 0.975 and a cap of
    # np.linspace(1e-4, pi, 60)[53]: the low u bound, 8.3e-13, fails its
    # check and is given up, so the rows on and around it, planted in the
    # polar column, all go to the exact z and count as the z coordinate does
    strategy = ABFormStrategy(GuessingForm.from_a_fraction(1.0))
    decomposition = symmetric_decomposition(0.975)
    cap_cos = math.cos(np.linspace(1e-4, math.pi, 60)[53])
    real_checked_bound = nosignal._checked_bound
    checked = {}

    def record(strategy, bound, toward, *args):
        checked[toward] = (np.clip(bound, 0.0, 1.0), real_checked_bound(strategy, bound, toward, *args))
        return checked[toward][1]

    monkeypatch.setattr(nosignal, "_checked_bound", record)
    batch_hits = _cap_hits(strategy, decomposition, cap_cos)
    monkeypatch.undo()
    before, after = checked[-math.inf]
    assert np.all((before > 0.0) & (before < 1e-12)) and np.all(after == 0.0)
    u = [0.0, before[0] / 2.0, 2.0 * before[0]]
    for c in (np.nextafter(before[0], -math.inf), before[0], np.nextafter(before[0], math.inf)):
        u += [np.nextafter(c, -math.inf), c, np.nextafter(c, math.inf)]
    u = np.array(u)
    dirs = decomposition.directions
    idx = np.repeat(np.arange(len(dirs)), len(u))
    u = np.tile(u, len(dirs))
    m = len(u)
    pick = np.cumsum(decomposition.weights)[idx] - 0.25
    phi = substream(36).uniform(0.0, 2.0 * math.pi, size=m)
    exact_rows = []
    real_polar_cos = strategy.polar_cos

    def record_rows(u_rows):
        exact_rows.append(len(u_rows))
        return real_polar_cos(u_rows)

    monkeypatch.setattr(strategy, "polar_cos", record_rows)
    monkeypatch.setattr(streams, "map_row_blocks",
                        lambda fn, rng, m, columns, rows, draws=PlantedDraws(pick, u, phi): [fn(draws, 0, m)])
    got = batch_hits(None, m)
    monkeypatch.undo()
    a_z, e1_z, e2_z = (None if c is None else c[idx] for c in frame_z(dirs))
    z = z_at_angle(a_z, e1_z, e2_z, _ab_inverse_cdf(strategy.form, u), phi)
    assert got == np.count_nonzero(z >= cap_cos)
    assert exact_rows == [m]


@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_u_windows_check_their_bounds_with_the_polar_map(strategies, monkeypatch, tag):
    # a polar_uniform 0.01 too high puts each window's low bound inside the
    # window; the check against polar_cos gives up its side, so the counts
    # stay those of the whole batches
    strategy = strategies[tag]
    real_polar_uniform = strategy.polar_uniform
    monkeypatch.setattr(strategy, "polar_uniform", lambda theta: real_polar_uniform(theta) + 0.01)
    for decomposition in (standard_decomposition(0.9), symmetric_decomposition(0.9)):
        got = sum(streams.map_batches(_cap_hits(strategy, decomposition, math.cos(0.2)), 35, CAP_ROW_BLOCK, 1))
        assert [got] == whole_batch_cap_hits(strategy, decomposition, CAP_ROW_BLOCK, 35, 1)


def test_u_step_leaves_few_rows_to_the_inverse_map(strategies, monkeypatch):
    # cos4 at p = 0.9 and a cap of 0.2, one batch per arm: the pole arm
    # hands at most 1e-4 of its rows to the inverse CDF, the tilted arm 30%
    strategy = strategies["cos4"]
    real_inverse_cdf = strategy.inverse_cdf
    for decomposition, share in ((standard_decomposition(0.9), 1e-4), (symmetric_decomposition(0.9), 0.3)):
        batch_hits = _cap_hits(strategy, decomposition, math.cos(0.2))
        rows = []

        def record(u, rows=rows):
            rows.append(len(u))
            return real_inverse_cdf(u)

        monkeypatch.setattr(strategy, "inverse_cdf", record)
        batch_hits(substream(33), BATCH_CAP)
        monkeypatch.undo()
        assert len(rows) == BATCH_CAP // CAP_ROW_BLOCK
        assert sum(rows) <= share * BATCH_CAP


class TrigRecorder:
    """numpy as `bloch` sees it, noting which of cos, sin and sqrt are looked up."""

    def __init__(self):
        self.called = set()

    def __getattr__(self, name):
        if name in ("cos", "sin", "sqrt"):
            self.called.add(name)
        return getattr(np, name)


@pytest.mark.parametrize("name", sorted(AZIMUTH_TERMS))
@pytest.mark.parametrize("tag", ["ab", "cos4"])
def test_cap_hits_evaluate_only_the_azimuth_terms_the_members_move(strategies, monkeypatch, tag, name):
    batch_hits = _cap_hits(strategies[tag], member_sets()[name], math.cos(0.2))
    recorder = TrigRecorder()
    monkeypatch.setattr(bloch, "np", recorder)
    batch_hits(substream(28), ROW_BLOCK + 1)
    terms = AZIMUTH_TERMS[name]
    # s = sqrt(1 - t^2) scales the azimuth terms, so it goes with them
    assert recorder.called == (terms | {"sqrt"} if terms else set())


def test_directions_at_angle_keeps_both_azimuth_terms_at_the_poles(monkeypatch):
    recorder = TrigRecorder()
    monkeypatch.setattr(bloch, "np", recorder)
    directions_at_angle(member_sets()["poles"].directions, np.array([0.5, -0.5]), np.array([1.0, 2.0]))
    assert {"cos", "sin", "sqrt"} <= recorder.called
