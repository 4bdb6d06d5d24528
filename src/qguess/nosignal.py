"""Operational indistinguishability of mixture decompositions.

One mixed qubit state admits many ensemble decompositions; a remote party
able to steer which decomposition is prepared must not be detectable from
estimation outcomes alone. For an isotropic estimator with outcome density
g(t) in the angle t between guess and input, indistinguishability of the
weighted-pole decomposition and the symmetric tilted-pair decomposition of
the same mixture requires, for every outcome direction m and mixing weight p,

    (1/2) g(angle(m, up_tilt)) + (1/2) g(angle(m, down_tilt))
        = p g(angle(m, +z)) + (1-p) g(angle(m, -z)).

Densities of the two-parameter family A cos^2(t/2) + B sin^2(t/2) satisfy
this identically (they are affine in cos t, and the two decompositions share
first moments); any density with curvature in cos t violates it. This module
checks the identity on direction grids, derives the nearest two-parameter
form from endpoint values, fits the form to sampled histograms with errors,
and runs the counting experiment that tries to tell the two preparations
apart from cap frequencies alone.

The experiment counts a guess by its z coordinate alone, `z >= cap_cos`
as `sample_batch`'s guess gives it. MP's guess is a measured axis, so its
blocks run `sample_batch`. A strategy with `polar_cos` takes the angle
path, set up once per arm in each call, and a block returns as soon as a
step leaves no row:

- Members alike in the z coordinates of their direction and their frame's
  e1 are merged (`_merged_members`). One drawn word w per row gives its
  member and its polar uniform u (`_recycled_uniforms`), which moves the
  law of (member, u) by about 2^-53 per member on any interval of u (the
  inversion trick; Devroye 1986, *Non-Uniform Random Variate Generation*).
- u step. Outside a member's window of u its rows are sure hits or sure
  misses (`_u_windows`). u never decreases with w within a member, so the
  windows and sure hits are intervals of the word indices k of the words
  k / 2^53 that numpy draws (`_word_edges`, `_word_classes`).
- Azimuth step. The windows are cut at the edges of CAP_CELLS equal cells
  of the words into segments (`_segments`). A cell gives two thresholds
  on a row's half-turn |h|, a sure hit and a sure miss (`_azimuth_table`),
  and `uniform(-1, 1)` makes h = j 2^-52 - 1 of a j uniform on [0, 2^53),
  so each segment's sure-hit, undecided and sure-miss half-turns are exact
  intervals of j (`_half_turn_bands`).
- Draws. A row is an iid (word, half-turn) pair, so a block's counts in
  these classes are multinomials at their exact counts over 2^53, and
  given the counts its rows are iid uniform within their classes (Devroye
  1986, ch. XI). A block draws its counts of sure hits, of each segment's
  words and of sure misses; then in one 2-D multinomial each segment's
  counts of its three bands; then, for each undecided row alone, a word
  of its segment and a j of its band. Its hit count has the law of one
  word and one half-turn per row.
- Exact step. The undecided rows form their member, u, cos t
  (`polar_cos`) and z (`bloch.z_at_angle`, column 2 of `sample_batch`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass

import numpy as np

from . import bloch, streams
from .ensembles import EnsembleDecomposition, standard_decomposition, symmetric_decomposition, tilt_angle
from .errors import QGuessError, UnfittableHistogramError
from .estimator import (
    DensityHistogram,
    EstimatorStrategy,
    GuessingForm,
    TabulatedStrategy,
    TWO_PI,
    composite_gauss_legendre,
    guessing_density,
)

DEFAULT_P_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_CAP_HALF_ANGLE = 0.2
DEFAULT_DIRECTIONS = 200

# z-statistic bands for the discrimination verdict
Z_NOT_DETECTABLE = 4.0
Z_DETECTABLE = 5.0

# required_trials: chance of clearing Z_DETECTABLE, and the margin on the count
DETECTION_POWER = 0.999
TRIAL_SAFETY = 1.2

VERDICT_NOT_DETECTABLE = "not detectable"
VERDICT_DETECTABLE = "detectable"
VERDICT_INDETERMINATE = "indeterminate"

# Rows per block of the angle path. A block's memory follows its undecided
# rows and its segments, not its rows, and each block draws two
# multinomials over its segments, so blocks are large: the criterion-5 arms
# (568 954 trials) take one block per worker. Like streams.ROW_BLOCK, it is
# part of the reproducibility contract.
CAP_ROW_BLOCK = 2 ** 20

# Margin on a guess's z coordinate by which the u step's bounds
# (`_polar_bounds`) and the azimuth step's thresholds (`_azimuth_table`)
# clear the cap's edge.
CAP_Z_MARGIN = 1e-6

# Margin on the polar angle by which `_u_windows` widens the polar window
# before mapping it to u, so that the mapped bounds pass their check at
# once: above the rounding of the maps between u and the polar angle, far
# below the window itself (about 1e-5 rad wide at a cap of 0.2).
CAP_THETA_MARGIN = 1e-9

# Equal cells of the drawn words in the azimuth step (`_azimuth_table`). A
# power of two, so a word's cell is exact. More cells leave fewer rows to
# the exact z, but cost more set-up per arm and more categories in both of
# a block's multinomials, about 85 ns each.
CAP_CELLS = 2 ** 10

# numpy draws a double in [0, 1) as a word k / 2^53, k uniform on [0, 2^53)
_LATTICE = 2 ** 53
_HALF = _LATTICE // 2
_CELL_WORDS = _LATTICE // CAP_CELLS


def fibonacci_directions(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors (Fibonacci sphere lattice), as an (n, 3) array."""
    streams.require_integer("direction count", n)
    if n < 1:
        raise QGuessError(f"need at least one direction, got {n}")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _direction_array(m_grid) -> np.ndarray:
    dirs = np.asarray(m_grid, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) == 0:
        raise QGuessError("m_grid must be a non-empty collection of 3-vectors")
    if not np.all(np.isfinite(dirs)):
        raise QGuessError("m_grid directions must be finite")
    return dirs


def _acos(x) -> np.ndarray:
    """arccos of each of x clipped to [-1, 1], by math.acos, whose bytes,
    unlike np.arccos's, do not follow numpy's SIMD level."""
    return np.array([math.acos(c) for c in np.clip(x, -1.0, 1.0).tolist()])


@dataclass(frozen=True)
class ConstraintResidual:
    """Pointwise violation of the two-decomposition identity at one weight p."""

    p: float
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def constraint_residual(density, p: float, m_grid) -> ConstraintResidual:
    """|lhs - rhs| of the decomposition identity over outcome directions.

    `density` must map an ndarray of angles to densities (vectorized). The
    four reference directions come from the two decompositions at weight p.
    A density that gives a non-finite residual raises QGuessError. The
    angles take `bloch.dots` and `_acos`, whose bytes, unlike those of `@`
    and `np.arccos`, do not follow numpy's SIMD level.
    """
    dirs = _direction_array(m_grid)
    std = standard_decomposition(p)
    sym = symmetric_decomposition(p)

    def dens_to(ref: np.ndarray) -> np.ndarray:
        return np.asarray(density(_acos(bloch.dots(dirs, np.broadcast_to(ref, dirs.shape)))))

    lhs = 0.5 * dens_to(sym.directions[0]) + 0.5 * dens_to(sym.directions[1])
    rhs = p * dens_to(std.directions[0]) + (1.0 - p) * dens_to(std.directions[1])
    residuals = np.abs(lhs - rhs)
    if not np.all(np.isfinite(residuals)):
        raise QGuessError(f"constraint residuals must be finite, got {residuals.max()} at p = {p}")
    return ConstraintResidual(p=p, residuals=residuals)


def constraint_residual_grid(density, p_values=DEFAULT_P_GRID) -> list[ConstraintResidual]:
    """constraint_residual at each weight on the DEFAULT_DIRECTIONS-point Fibonacci grid."""
    m_grid = fibonacci_directions(DEFAULT_DIRECTIONS)
    return [constraint_residual(density, p, m_grid) for p in p_values]


@dataclass(frozen=True)
class AbDerivation:
    """Two-parameter form read off a density's endpoints, with its worst misfit."""

    form: GuessingForm
    max_deviation: float


def derive_ab_form(density) -> AbDerivation:
    """Form with A = density(0), B = density(pi); deviation maxed over 1001
    equally spaced angles in [0, pi].

    A density obeying the decomposition identity matches its endpoint form
    everywhere (deviation at rounding level); curvature in cos t shows up as
    a non-trivial deviation, largest near t = pi/2. A density that is not
    finite at every grid angle raises QGuessError.
    """
    grid = np.linspace(0.0, math.pi, 1001)
    g = np.asarray(density(grid))
    finite = np.isfinite(g)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QGuessError(f"density must be finite on [0, pi], got {g[i]} at t = {grid[i]}")
    form = GuessingForm(float(g[0]), float(g[-1]))
    deviation = np.abs(g - guessing_density(form, grid))
    return AbDerivation(form=form, max_deviation=float(np.max(deviation)))


# ---------------------------------------------------------------------------
# counterexample density with curvature in cos t

def cos4_density(theta):
    """(3/4pi) cos^4(t/2): normalized, but quadratic in cos t. The fourth
    power is two exact products, c2 = c*c and c2*c2, whose bytes, unlike
    those of `** 4`, do not depend on the SIMD kernels numpy dispatches.
    They are taken in place: the quadrature of `required_trials` evaluates
    the density on 393 216 angles at once."""
    out = np.cos(np.asarray(theta) / 2.0)
    out *= out
    out *= out
    out *= 3.0 / (2.0 * TWO_PI)
    return float(out) if np.isscalar(theta) else out


def cos4_strategy() -> TabulatedStrategy:
    """Tabulated sampler of the cos^4 density on 4001 equally spaced angles
    (fine enough to renormalize within the tabulation tolerance)."""
    grid = np.linspace(0.0, math.pi, 4001)
    return TabulatedStrategy(grid, cos4_density(grid))


# ---------------------------------------------------------------------------
# expected cap frequencies (quadrature oracle for the counting experiment)

def cap_frequency(density, axis_angle: float, cap_half_angle: float) -> float:
    """Probability that a guess lands in the cap about +z when the input
    direction makes `axis_angle` with +z, for an isotropic outcome density.

    Quadrature over the cap: polar angle by composite Gauss-Legendre,
    azimuth by the midpoint rule (periodic, so spectrally accurate). A
    non-finite axis angle, a cap half-angle outside (0, pi], or a density
    that makes the frequency non-finite raises QGuessError.
    """
    streams.require_real("axis angle", axis_angle)
    if not math.isfinite(axis_angle):
        raise QGuessError(f"axis angle must be finite, got {axis_angle}")
    streams.require_real("cap half-angle", cap_half_angle)
    if not 0.0 < cap_half_angle <= math.pi:
        raise QGuessError(f"cap half-angle must lie in (0, pi], got {cap_half_angle}")
    u, wu = composite_gauss_legendre(np.linspace(0.0, cap_half_angle, 17), 24)
    n_v = 1024
    v = (np.arange(n_v) + 0.5) * (TWO_PI / n_v)
    cos_t = np.cos(u)[:, None] * math.cos(axis_angle) + np.sin(u)[:, None] * math.sin(
        axis_angle
    ) * np.cos(v)[None, :]
    vals = np.asarray(density(np.arccos(np.clip(cos_t, -1.0, 1.0))))
    frequency = float(np.sum(wu * np.sin(u) * vals.sum(axis=1)) * (TWO_PI / n_v))
    if not math.isfinite(frequency):
        raise QGuessError(f"cap frequency must be finite, got {frequency}")
    return frequency


def expected_cap_frequencies(density, p: float, cap_half_angle: float) -> tuple[float, float]:
    """(standard, symmetric) cap frequencies for the two decompositions at weight p.

    Both members of the symmetric pair make the same angle with +z, so its
    frequency needs a single kernel evaluation.
    """
    f_std = p * cap_frequency(density, 0.0, cap_half_angle) + (1.0 - p) * cap_frequency(
        density, math.pi, cap_half_angle
    )
    f_sym = cap_frequency(density, tilt_angle(p), cap_half_angle)
    return f_std, f_sym


def required_trials(density, p: float, cap_half_angle: float = DEFAULT_CAP_HALF_ANGLE) -> int:
    """Trials per decomposition so the experiment flags a frequency gap with
    probability DETECTION_POWER at the Z_DETECTABLE threshold.

    Sized from the quadrature frequencies: z grows like gap * sqrt(N / (v1+v2))
    with v = f(1-f), so N = TRIAL_SAFETY * ((Z_DETECTABLE + z_power) / gap)^2 * (v1+v2),
    z_power the standard normal quantile at DETECTION_POWER.
    """
    f_std, f_sym = expected_cap_frequencies(density, p, cap_half_angle)
    gap = abs(f_std - f_sym)
    if gap == 0.0:
        raise QGuessError("decompositions have identical cap frequencies; no finite trial count separates them")
    z_power = statistics.NormalDist().inv_cdf(DETECTION_POWER)
    variance = f_std * (1.0 - f_std) + f_sym * (1.0 - f_sym)
    return math.ceil(TRIAL_SAFETY * ((Z_DETECTABLE + z_power) / gap) ** 2 * variance)


# ---------------------------------------------------------------------------
# discrimination experiment

@dataclass(frozen=True)
class DiscriminationReport:
    """Cap-frequency comparison between the two preparations of one mixture.

    z is None, and the verdict indeterminate, when both binomial standard
    errors vanish (each arm saw all hits or none).
    """

    p: float
    cap_half_angle: float
    trials: int
    freq_standard: float
    freq_symmetric: float
    se_standard: float
    se_symmetric: float
    z: float | None
    verdict: str
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def verdict_for(z: float) -> str:
    if z < Z_NOT_DETECTABLE:
        return VERDICT_NOT_DETECTABLE
    if z > Z_DETECTABLE:
        return VERDICT_DETECTABLE
    return VERDICT_INDETERMINATE


def _member_index(cum: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Member index of each uniform `pick` for the non-decreasing cumulative
    weights `cum`, `np.minimum(np.searchsorted(cum, pick, "right"), len(cum)
    - 1)`, by one comparison per member and row."""
    idx = np.zeros(len(pick), dtype=np.intp)
    for c in cum[:-1]:
        idx += pick >= c
    return idx


def _cap_hits(strategy: EstimatorStrategy, decomposition: EnsembleDecomposition, cap_cos: float):
    """(block_fn, rows) for `streams.map_blocks`: block_fn(rng, lo, hi)
    counts the guesses with z >= cap_cos over the hi - lo preparations of
    the decomposition in one row block. A strategy with `polar_cos` takes
    the angle path (`_u_block_hits`) in CAP_ROW_BLOCK rows; the others pick
    members (`_member_index`) and run `sample_batch`, in streams.ROW_BLOCK
    rows."""
    if strategy.polar_cos is not None:
        return _u_block_hits(strategy, decomposition, cap_cos), CAP_ROW_BLOCK
    cum = np.cumsum(decomposition.weights)
    dirs = decomposition.directions

    def block_hits(rng, lo, hi):
        idx = _member_index(cum, rng.random(hi - lo))
        z = strategy.sample_batch(dirs.take(idx, axis=0), rng)[:, 2]
        return int(np.count_nonzero(z >= cap_cos))

    return block_hits, streams.ROW_BLOCK


def _merged_members(decomposition: EnsembleDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_z, e1_z, weights): the members merged by the z coordinates of
    their direction and of their frame's e1, all that `bloch.z_at_angle`
    reads of them, with the weights of each summed in member order. The
    merged members keep the order of their first member, and those of no
    positive weight are dropped."""
    dirs = decomposition.directions
    pairs = zip(dirs[:, 2].tolist(), bloch.orthonormal_frames(dirs)[0][:, 2].tolist())
    merged: dict = {}
    for pair, weight in zip(pairs, decomposition.weights.tolist()):
        merged[pair] = merged.get(pair, 0.0) + weight
    kept = [(pair, weight) for pair, weight in merged.items() if weight > 0.0]
    a_z, e1_z = np.array([pair for pair, _ in kept]).T
    return a_z, e1_z, np.array([weight for _, weight in kept])


# the largest double below 1, where a recycled polar uniform is clipped
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _recycled_uniforms(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cum, lower, scale) of members with these weights: a drawn word w's
    member is `_member_index(cum, w)`, whose words are [lower, cum) ([lower,
    1) for the last member), and its polar uniform is `_recycled(w, lower,
    scale)` of that member. scale is 1 / weight, and 1 / (1 - lower) for
    the last member, as cum[-1] may miss 1 by rounding; a width below the
    least normal double is taken at that double, so no scale is infinite."""
    cum = np.cumsum(weights)
    lower = np.concatenate([[0.0], cum[:-1]])
    width = np.append(weights[:-1], 1.0 - lower[-1])
    return cum, lower, 1.0 / np.maximum(width, np.finfo(float).tiny)


def _recycled(w, lower, scale) -> np.ndarray:
    """The polar uniform of drawn words w: (w - lower) * scale of their
    member, clipped below 1, so in [0, 1) for every w of the member."""
    u = np.subtract(w, lower)
    u *= scale
    return np.minimum(u, _BELOW_ONE, out=u)


def _word_edges(lower, scale, u_low, u_high) -> tuple[np.ndarray, ...]:
    """(start, low, high, end), word indices k of the words k / 2^53 per
    member, on the last axis (u_low and u_high broadcast): the member's
    words are [start, end), and [low, high) are those whose `_recycled` u
    lies in [u_low, u_high]. low is the member's least word whose u is
    u_low or more, high its least whose u is beyond u_high, or end where
    there is none."""
    ends = np.minimum(np.ceil(np.append(lower, 1.0) * _LATTICE), _LATTICE).astype(np.int64)
    start, end = ends[:-1], ends[1:]
    t = np.stack(np.broadcast_arrays(u_low, np.nextafter(u_high, math.inf)))
    # u is non-decreasing in the word, and the estimate within a few words of the edge
    k = np.clip(np.ceil((lower + t / scale) * _LATTICE).astype(np.int64), start, end)
    while True:
        down = (k > start) & (_recycled((k - 1) / _LATTICE, lower, scale) >= t)
        up = (k < end) & (_recycled(k / _LATTICE, lower, scale) < t)
        if not (down.any() or up.any()):
            return start, k[0], k[1], end
        k += up
        k -= down


def _polar_bounds(cap_cos: float) -> tuple[float, float]:
    """(miss_beyond, hit_beyond): a guess at polar angle theta about a
    member at polar angle alpha lies between |theta - alpha| and
    pi - |theta + alpha - pi| from +z, so it is a sure miss when
    |theta - alpha| > acos(cap_cos - CAP_Z_MARGIN) = miss_beyond, and a
    sure hit when |theta + alpha - pi| > pi - acos(cap_cos + CAP_Z_MARGIN)
    = hit_beyond. A bound whose argument leaves [-1, 1] is inf."""
    low, high = cap_cos - CAP_Z_MARGIN, cap_cos + CAP_Z_MARGIN
    miss_beyond = math.acos(low) if low >= -1.0 else math.inf
    hit_beyond = math.pi - math.acos(high) if high <= 1.0 else math.inf
    return miss_beyond, hit_beyond


def _u_windows(strategy: EstimatorStrategy, alpha: np.ndarray, cap_cos: float):
    """(u_low, u_high, hits_low, hits_high), one entry per member at polar
    angle alpha: rows whose u lies in [u_low, u_high] are left to the next
    steps, and those below or above are all hits or all misses, as hits_low
    and hits_high say. `_polar_bounds` leaves the polar window
    [max(pi - alpha - hit_beyond, alpha - miss_beyond), min(pi - alpha +
    hit_beyond, alpha + miss_beyond)]; a hit threshold lies 2e-6 or more
    inside the miss ones, so a side is all hits where its edge is one.
    One `polar_uniform` call maps the window, widened by CAP_THETA_MARGIN,
    and 0 and pi to u. One `polar_cos` call checks every bound: the first u
    beyond it must give a cos t strictly beyond its edge's, or the bound is
    given up (0 below, 1 above). The maps from u to cos t are monotone up
    to a few ulps, 1e-7 rad at the poles, which CAP_Z_MARGIN covers.
    """
    miss_beyond, hit_beyond = _polar_bounds(cap_cos)
    hit_lo, hit_hi = math.pi - alpha - hit_beyond, math.pi - alpha + hit_beyond
    miss_lo, miss_hi = alpha - miss_beyond, alpha + miss_beyond
    edges = np.clip([np.maximum(hit_lo, miss_lo), np.minimum(hit_hi, miss_hi)], 0.0, math.pi)
    hits = np.array([hit_lo >= miss_lo, hit_hi <= miss_hi])
    # below the window cos t > cos(edges[0]) (side 1), above it cos t < cos(edges[1]) (side -1)
    side = np.array([[1.0], [-1.0]])
    u = strategy.polar_uniform(np.append(np.clip(edges - side * CAP_THETA_MARGIN, 0.0, math.pi), [0.0, math.pi]))
    bound, cos_edge = np.clip(u[:-2].reshape(edges.shape), 0.0, 1.0), np.cos(edges)
    if u[-2] >= u[-1]:  # a decreasing map takes u_low from the window's upper edge
        bound, cos_edge, side, hits = bound[::-1], cos_edge[::-1], side[::-1], hits[::-1]
    first = np.nextafter(bound, [[-math.inf], [math.inf]])
    drawn = (first >= 0.0) & (first < 1.0)
    gap = np.zeros_like(bound)
    gap[drawn] = strategy.polar_cos(first[drawn]) - cos_edge[drawn]
    bound = np.where(drawn & (side * gap <= 0.0), [[0.0], [1.0]], bound)
    return bound[0], bound[1], hits[0], hits[1]


def _azimuth_table(strategy: EstimatorStrategy, a_z: np.ndarray, e1_z: np.ndarray, cum: np.ndarray,
                   lower: np.ndarray, scale: np.ndarray, low: list, high: list,
                   cap_cos: float) -> tuple[np.ndarray, np.ndarray]:
    """(h_hit, h_miss), CAP_CELLS half-turn thresholds each: a window row
    whose word index lies in cell c, [c, c + 1) * _CELL_WORDS, is a sure
    hit at |h| >= h_hit[c] and a sure miss at |h| < h_miss[c], and 0 <=
    h_miss[c] <= h_hit[c] <= 2. They set the segments' band counts
    (`_half_turn_bands`), so their arccos are `_acos`'s.

    Only cells holding words of the windows [low, high) of members off the
    poles (e1_z != 0), all of whose words are one member's, are worked out;
    every other cell has h_hit 2 and h_miss 0, and without such a window
    `polar_cos` is not called. A cell's polar angles run between
    arccos(polar_cos) at the u of its first and last double, half-width r
    about their middle m, and z = cos(theta) a_z + sin(theta) cos(pi h)
    e1_z lies within r of z at m. So a row is a sure hit where z at m is
    cap_cos + CAP_Z_MARGIN + r or more, cos(pi h) <= c_hit as e1_z < 0,
    and a sure miss where it is below cap_cos - CAP_Z_MARGIN - r, cos(pi h)
    > c_miss. The margin covers the rounding.
    """
    h_hit, h_miss = np.full(CAP_CELLS, 2.0), np.zeros(CAP_CELLS)
    window = np.zeros(CAP_CELLS, dtype=bool)
    for a, b, e in zip(low, high, e1_z.tolist()):
        if a < b and e != 0.0:
            window[a // _CELL_WORDS:-(-b // _CELL_WORDS)] = True
    if not window.any():
        return h_hit, h_miss
    cell = np.flatnonzero(window)
    ends = np.stack([cell, cell + 1]) / CAP_CELLS
    ends[1] = np.nextafter(ends[1], 0.0)  # each cell's first and last double
    member = _member_index(cum, ends[0])
    decided = np.flatnonzero(member == _member_index(cum, ends[1]))
    cell, member = cell.take(decided), member.take(decided)
    u = _recycled(ends.take(decided, axis=1), lower.take(member), scale.take(member))
    start, stop = _acos(strategy.polar_cos(u.ravel())).reshape(u.shape)
    middle, half = (start + stop) / 2.0, np.abs(stop - start) / 2.0
    z_mid = np.cos(middle) * a_z.take(member)
    spread = np.sin(middle) * -e1_z.take(member)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hit = (z_mid - (cap_cos + CAP_Z_MARGIN + half)) / spread
        c_miss = (z_mid - (cap_cos - CAP_Z_MARGIN - half)) / spread
    # a NaN (z at m on the threshold, at a spread of 0) decides no row
    hit = np.where(c_hit >= -1.0, _acos(c_hit) / math.pi, 2.0)
    miss = np.where(c_miss <= 1.0, _acos(c_miss) / math.pi, 0.0)
    miss[c_miss < -1.0] = 2.0
    h_hit[cell], h_miss[cell] = hit, np.minimum(miss, hit)
    return h_hit, h_miss


def _word_classes(start, low, high, end, hits_low, hits_high) -> tuple[list, list]:
    """(hits, windows): the non-empty intervals [a, b) of word indices, in
    word order, of the sure hits and of the u windows, from each member's
    `_word_edges`. A member's words below its window are hits if hits_low,
    and those from its end on if hits_high; every other word is a miss."""
    hits, windows = [], []
    for s, a, b, e, below, above in zip(start, low, high, end, hits_low, hits_high):
        hits += [(s, a)] if below and s < a else []
        windows += [(a, b)] if a < b else []
        hits += [(b, e)] if above and b < e else []
    return hits, windows


def _segments(windows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, words, cell): the `_word_classes` windows cut at the cell
    edges, in word order, each piece within one cell: its first word index,
    its count of words and its cell."""
    a, b = np.array(windows, dtype=np.int64).reshape(-1, 2).T
    first = a // _CELL_WORDS
    span = -(-b // _CELL_WORDS) - first
    window = np.repeat(np.arange(len(a)), span)
    cell = first.take(window) + np.arange(span.sum()) - (np.cumsum(span) - span).take(window)
    start = np.maximum(cell * _CELL_WORDS, a.take(window))
    return start, np.minimum((cell + 1) * _CELL_WORDS, b.take(window)) - start, cell


def _half_turn_bands(h_hit, h_miss) -> tuple[np.ndarray, ...]:
    """(a, b, c, d), int64 arrays, of thresholds 0 <= h_miss <= h_hit <= 2:
    the half-turn h = j 2^-52 - 1 of a j on [0, 2^53) has |h| >= h_hit
    where j lies outside [a, d) and |h| < h_miss where it lies in [b, c),
    so [a, b) and [c, d) are the undecided j, and a <= b <= c <= d. For
    0 < t <= 1, |h| >= t exactly where j < 2^52 - ceil(t 2^52) + 1 or
    j >= 2^52 + ceil(t 2^52), and t 2^52 and its ceiling are exact."""

    def outside(t):
        width = np.ceil(np.multiply(t, 2.0 ** 52)).astype(np.int64)
        low = np.clip(_HALF - width + 1, 0, _LATTICE)
        return low, np.maximum(np.clip(_HALF + width, 0, _LATTICE), low)  # at t = 0, every j

    (a, d), (b, c) = outside(h_hit), outside(h_miss)
    return a, b, c, d


def _u_block_hits(strategy: EstimatorStrategy, decomposition: EnsembleDecomposition, cap_cos: float):
    """Block function of `_cap_hits` on the angle path (see the module
    docstring), with the arm's set-up made once: merged members, u
    windows, word classes, azimuth table, segments and their half-turn
    bands. An undecided row's band index counts the j of [a, b), then of
    [c, d), of its segment's `_half_turn_bands`, and h = j 2^-52 - 1 is
    the double `uniform(-1, 1)` gives of that j."""
    a_z, e1_z, weights = _merged_members(decomposition)
    # -e1_z is a member's distance from the z axis (`bloch.orthonormal_frames`);
    # math.atan2's bytes, unlike np.arctan2's, do not follow numpy's SIMD level
    alpha = np.array([math.atan2(-e, a) for a, e in zip(a_z.tolist(), e1_z.tolist())])
    u_low, u_high, hits_low, hits_high = _u_windows(strategy, alpha, cap_cos)
    cum, lower, scale = _recycled_uniforms(weights)
    start, low, high, end = (k.tolist() for k in _word_edges(lower, scale, u_low, u_high))
    sure_hits, windows = _word_classes(start, low, high, end, hits_low, hits_high)
    h_hit, h_miss = _azimuth_table(strategy, a_z, e1_z, cum, lower, scale, low, high, cap_cos)
    first, words, cell = _segments(windows)
    a, b, c, d = _half_turn_bands(h_hit.take(cell), h_miss.take(cell))
    undecided, split, gap = b - a + d - c, b - a, c - b
    bands = np.stack([a + _LATTICE - d, undecided, gap], axis=1) / _LATTICE
    hit_words = sum(y - x for x, y in sure_hits)
    pvals = np.concatenate([[hit_words], words, [_LATTICE - hit_words - words.sum()]]) / _LATTICE

    def block_hits(rng, lo, hi):
        counts = rng.multinomial(hi - lo, pvals)
        live = np.flatnonzero(counts[1:-1])
        if not live.size:
            return int(counts[0])
        band = rng.multinomial(counts.take(live + 1), bands.take(live, axis=0))
        hits = int(counts[0] + band[:, 0].sum())
        seg = live.repeat(band[:, 1])
        if not seg.size:
            return hits
        w = np.multiply(first.take(seg) + rng.integers(0, words.take(seg)), 1.0 / _LATTICE)
        j = rng.integers(0, undecided.take(seg))
        j += a.take(seg) + np.where(j >= split.take(seg), gap.take(seg), 0)
        h = np.multiply(j, 2.0 ** -52)
        h -= 1.0
        idx = _member_index(cum, w)
        u = _recycled(w, lower.take(idx), scale.take(idx))
        z = bloch.z_at_angle(a_z.take(idx), e1_z.take(idx), strategy.polar_cos(u), h)
        return int(hits + np.count_nonzero(z >= cap_cos))

    return block_hits


def run_discrimination_experiment(
    strategy: EstimatorStrategy,
    p: float,
    cap_half_angle: float = DEFAULT_CAP_HALF_ANGLE,
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    stream_block: int = 0,
) -> DiscriminationReport:
    """Prepare the same mixture both ways, estimate, and compare cap frequencies.

    Each run draws `trials` member choices and guesses per decomposition on
    its own substreams (blocks 2*stream_block and 2*stream_block + 1, each
    split over `workers`; both arms run concurrently in one
    `streams.map_blocks` call), counts the guesses inside the cap about +z
    (`_cap_hits`, each arm set up once per call), and scores the frequency
    gap as a two-sample z statistic with binomial standard errors; with
    both errors zero the run carries no information and is indeterminate.
    """
    streams.require_real("cap half-angle", cap_half_angle)
    if not 0.0 < cap_half_angle <= math.pi:
        raise QGuessError(f"cap half-angle must lie in (0, pi], got {cap_half_angle}")
    streams.require_integer("trials", trials)
    if trials < 2:
        raise QGuessError(f"need at least 2 trials, got {trials}")
    streams.require_integer("stream_block", stream_block)
    cap_cos = math.cos(cap_half_angle)
    arms = []
    for arm, decomposition in enumerate((standard_decomposition(p), symmetric_decomposition(p))):
        block_hits, rows = _cap_hits(strategy, decomposition, cap_cos)
        arms.append((block_hits, 2 * stream_block + arm, rows))
    hits_std, hits_sym = (sum(hits) for hits in streams.map_blocks(arms, seed, trials, workers))

    f_std = hits_std / trials
    f_sym = hits_sym / trials
    se_std = math.sqrt(f_std * (1.0 - f_std) / trials)
    se_sym = math.sqrt(f_sym * (1.0 - f_sym) / trials)
    spread = math.hypot(se_std, se_sym)
    if spread == 0.0:
        z, verdict = None, VERDICT_INDETERMINATE
    else:
        z = abs(f_std - f_sym) / spread
        verdict = verdict_for(z)
    return DiscriminationReport(
        p=p,
        cap_half_angle=cap_half_angle,
        trials=trials,
        freq_standard=f_std,
        freq_symmetric=f_sym,
        se_standard=se_std,
        se_symmetric=se_sym,
        z=z,
        verdict=verdict,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# least-squares recovery of the two-parameter form from a histogram

@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares estimate of the two-parameter form.

    A and B are the densities at t = 0 and t = pi; alpha and beta the
    equivalent affine coefficients in cos t. Unlike GuessingForm, fitted A or
    B may come out slightly negative when the true value sits on the boundary.
    """

    A: float
    B: float
    se_A: float
    se_B: float
    alpha: float
    beta: float
    se_alpha: float
    se_beta: float
    chi2: float
    dof: int
    bins: int
    trials: int

    def as_dict(self) -> dict:
        return asdict(self)


def _wls_line(x: np.ndarray, y: np.ndarray, variances: np.ndarray):
    w = 1.0 / variances
    s00 = float(np.sum(w))
    s01 = float(np.sum(w * x))
    s11 = float(np.sum(w * x * x))
    det = s00 * s11 - s01 * s01
    if det <= 0.0 or not math.isfinite(det):
        raise UnfittableHistogramError("degenerate abscissa spread; cannot fit a slope")
    r0 = float(np.sum(w * y))
    r1 = float(np.sum(w * x * y))
    alpha = (s11 * r0 - s01 * r1) / det
    beta = (s00 * r1 - s01 * r0) / det
    cov = np.array([[s11, -s01], [-s01, s00]]) / det
    return alpha, beta, cov


def fit_ab_least_squares(hist: DensityHistogram) -> FitResult:
    """Fit density = alpha + beta cos t to a histogram, weights from counts.

    The abscissa per bin is the solid-angle mean of cos t (midpoint of the
    edge cosines), which makes the affine model exactly unbiased. Weights are
    Poisson: a first pass uses observed counts (occupied bins only), a second
    pass reweights every bin by the expected counts of the first-pass model
    (floored at one count) so sparse bins near t = pi neither drop out nor
    dominate.
    """
    if np.count_nonzero(hist.counts) < 2:
        raise UnfittableHistogramError("need at least two occupied bins to fit the form")
    t_edges = np.cos(hist.theta_edges)
    tbar = (t_edges[:-1] + t_edges[1:]) / 2.0
    density = hist.empirical_density
    scale = hist.trials * hist.solid_angles

    live = hist.counts > 0
    var1 = hist.counts[live] / scale[live] ** 2
    alpha, beta, _ = _wls_line(tbar[live], density[live], var1)

    expected = np.maximum((alpha + beta * tbar) * scale, 1.0)
    var2 = expected / scale ** 2
    alpha, beta, cov = _wls_line(tbar, density, var2)

    fitted = alpha + beta * tbar
    chi2 = float(np.sum((density - fitted) ** 2 / var2))
    var_a = cov[0, 0] + cov[1, 1] + 2.0 * cov[0, 1]
    var_b = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
    return FitResult(
        A=alpha + beta,
        B=alpha - beta,
        se_A=math.sqrt(max(var_a, 0.0)),
        se_B=math.sqrt(max(var_b, 0.0)),
        alpha=alpha,
        beta=beta,
        se_alpha=math.sqrt(cov[0, 0]),
        se_beta=math.sqrt(cov[1, 1]),
        chi2=chi2,
        dof=hist.bins - 2,
        bins=hist.bins,
        trials=hist.trials,
    )
