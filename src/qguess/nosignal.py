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
    uniform_azimuths,
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

# Rows per block of the discrimination's angle path (`_cap_hits`). A block
# draws its rows' class counts at once and words only for its window rows,
# so its memory follows those rows: it peaks at about 1.8 arrays of its
# rows in the cos4 tilted arm at p = 0.9 and a cap of 0.2 (0.93 MB at
# 2^16), and at next to nothing in the pole arm. One signal-detect call
# took a median of 4.48 ms at 2^16 rows, 4.47 ms at 2^17 (faster in 103
# of 150 interleaved rounds, median paired ratio 0.973, for twice the
# memory) and 4.69 ms at one block per worker (8.1 MB per tilted block),
# one process, 2-core x86-64 host. Like streams.ROW_BLOCK, it is part of
# the reproducibility contract.
CAP_ROW_BLOCK = 4 * streams.ROW_BLOCK

# Margin on a guess's z coordinate within which the polar step of the
# angle path leaves a row to the next steps (`_polar_bounds`), and by which
# the azimuth step's thresholds clear the cap's edge (`_azimuth_table`).
CAP_Z_MARGIN = 1e-6

# Margin on the polar angle by which `_u_windows` widens the polar step's
# window before mapping it to the drawn u, so that the mapped bounds pass
# their check at once: above the rounding of the maps between u and the
# polar angle away from the poles, far below the window itself (about
# 1e-5 rad wide at a cap of 0.2).
CAP_THETA_MARGIN = 1e-9

# Equal cells of the drawn word w in the azimuth step of the angle path
# (`_azimuth_table`). A power of two, so a word's cell, int(w * CAP_CELLS),
# is exact. More cells leave fewer rows to the exact z and cost more set-up
# per arm: 2^11 to 2^14 cells left 439, 219, 105 and 49 of the 162 124
# window rows of the cos4 tilted arm at p = 0.9, a cap of 0.2 and 568 954
# trials.
CAP_CELLS = 2 ** 12


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
    A density that gives a non-finite residual raises QGuessError.
    """
    dirs = _direction_array(m_grid)
    std = standard_decomposition(p)
    sym = symmetric_decomposition(p)

    def dens_to(ref: np.ndarray) -> np.ndarray:
        return np.asarray(density(np.arccos(np.clip(dirs @ ref, -1.0, 1.0))))

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
    """Member index of each uniform `pick` for the cumulative weights `cum`:
    the count of cum[j], j < len(cum) - 1, at or below the pick.

    `cum` is non-decreasing (weights are non-negative), so this is
    `np.minimum(np.searchsorted(cum, pick, "right"), len(cum) - 1)`, one
    comparison per member and row instead of a binary search per row.
    """
    idx = np.zeros(len(pick), dtype=np.intp)
    for c in cum[:-1]:
        idx += pick >= c
    return idx


def _cap_hits(strategy: EstimatorStrategy, decomposition: EnsembleDecomposition, cap_cos: float):
    """(block_fn, rows) for `streams.map_blocks`: block_fn(rng, lo, hi)
    counts the guesses inside the cap about +z over the hi - lo
    preparations of the decomposition in one row block: a member pick
    (`_member_index`), then what the block reads of the strategy's guess.

    Only the guess's z coordinate is counted, and `z >= cap_cos` is the
    count of `sample_batch`. A strategy with `polar_cos` takes its member
    and its polar uniform from one word per row; a block draws its rows'
    counts of sure hits, window words and sure misses as one multinomial,
    then a word and an azimuth for each window row alone, counts most of
    those from their azimuth and their word's cell, forms the member and
    polar uniform of the rows left alone, and builds no guess
    (`_u_block_hits`), in CAP_ROW_BLOCK rows; its set-up, the merged
    members, the u windows, the word classes and the azimuth step's table,
    is made here, once per call. Other strategies run `sample_batch` on
    the picked members, in streams.ROW_BLOCK rows.
    """
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
    """(a_z, e1_z, weights) of the members as the angle path reads them.

    The count reads a member only through the z coordinates of its
    direction and of its frame's e1 (`bloch.z_at_angle`), so members with
    the same pair, such as a pair turned about z, are one member, whose
    weight is the sum of theirs in member order. The merged members keep
    the order of their first member, and those of no positive weight are
    dropped.
    """
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
    """(cum, lower, scale) of members with these weights, for one drawn
    word w per row: the row's member is `_member_index(cum, w)`, whose rows
    have w in [lower, cum) ([lower, 1) for the last member), and its polar
    uniform is `_recycled(w, lower, scale)` of that member.

    Given the member, (w - lower) / weight is uniform and independent of
    the member (the inversion trick; Devroye 1986, *Non-Uniform Random
    Variate Generation*), so scale is 1 / weight, and 1 / (1 - lower) for
    the last member, since cum[-1] may miss 1 by rounding. A width below
    the least normal double is taken at that double, so no scale is
    infinite: no drawn w but its lower end reaches such a member.
    """
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


def _w_edges(t, lower, upper, scale) -> np.ndarray:
    """The least w in [lower, upper] whose `_recycled` polar uniform is t
    or more, and upper where no w below upper has one, entry by entry
    (broadcast). `_recycled` is non-decreasing in w, so a w of the member's
    [lower, upper) lies below its edge exactly when its u lies below t.

    The edge starts at lower + t / scale, where u is t but for rounding,
    and moves one double at a time until the double below it maps below t
    and it maps to t or more: the rounding puts the start within a few
    doubles of the edge.
    """
    w = np.clip(lower + t / scale, lower, upper)
    while True:
        below = np.nextafter(w, -math.inf)
        down = (w > lower) & (_recycled(below, lower, scale) >= t)
        up = (w < upper) & (_recycled(w, lower, scale) < t)
        if not (down.any() or up.any()):
            return w
        w = np.where(down, below, np.where(up, np.nextafter(w, math.inf), w))


def _polar_bounds(cap_cos: float) -> tuple[float, float]:
    """(miss_beyond, hit_beyond) for the polar step of `_u_windows`.

    A guess at polar angle theta about a member at polar angle alpha about
    +z lies between |theta - alpha| and pi - |theta + alpha - pi| from +z.
    So it is a sure miss when |theta - alpha| > acos(cap_cos - CAP_Z_MARGIN)
    = miss_beyond, and a sure hit when |theta + alpha - pi| >
    pi - acos(cap_cos + CAP_Z_MARGIN) = hit_beyond. Where the margin leaves
    [-1, 1], near a cap of pi or 0, the bound is inf: no row is sure.
    """
    low, high = cap_cos - CAP_Z_MARGIN, cap_cos + CAP_Z_MARGIN
    miss_beyond = math.acos(low) if low >= -1.0 else math.inf
    hit_beyond = math.pi - math.acos(high) if high <= 1.0 else math.inf
    return miss_beyond, hit_beyond


def _u_windows(strategy: EstimatorStrategy, alpha: np.ndarray, cap_cos: float):
    """(u_low, u_high, hits_low, hits_high), one entry per member at polar
    angle alpha about +z: rows whose drawn polar uniform u lies in
    [u_low, u_high] are left to the azimuth and exact steps, and rows below
    or above that window are all cap hits or all misses, as hits_low and
    hits_high say.

    Polar step: a row at angle theta about its member is a sure hit when
    |theta + alpha - pi| > hit_beyond and otherwise a sure miss when
    |theta - alpha| > miss_beyond (`_polar_bounds`). What it leaves is the
    window [w_lo, w_hi] = [max(pi - alpha - hit_beyond, alpha - miss_beyond),
    min(pi - alpha + hit_beyond, alpha + miss_beyond)], never empty (the
    bounds sum to more than pi). A sure-hit threshold in [0, pi] lies 2e-6
    or more inside [alpha - miss_beyond, alpha + miss_beyond] (a guess on it
    is 2 * CAP_Z_MARGIN above where a sure miss can be), so below the
    window every row is a hit when the window's lower edge is the hit
    threshold and a miss otherwise, and likewise above.

    The window, widened by CAP_THETA_MARGIN and clipped to [0, pi], goes
    through the strategy's `polar_uniform` to the u window, whose ends swap
    where that map decreases. Then each bound is checked with the
    strategy's own `polar_cos`: the first u beyond it must give a cos t
    strictly beyond cos(w_lo) or cos(w_hi), on its side. A bound that fails
    gives up its side (0 below, 1 above: no u is drawn beyond them), and its
    rows stay in the window. Both maps from u to cos t are monotone up to a
    few ulps of cos t (the tabulated one within each CDF cell, and across a
    cell edge theta falls back at most an ulp), so every row beyond a
    checked bound has its cos t on the bound's side to within about 3e-15,
    or 1e-7 rad in theta at the poles. CAP_Z_MARGIN puts the thresholds
    1e-6 in z, and so at least 1e-6 rad in theta, from where the guess can
    be on either side of the cap's edge, so a row decided from u is decided
    as the polar step decides it.
    """
    miss_beyond, hit_beyond = _polar_bounds(cap_cos)
    hit_lo, hit_hi = math.pi - alpha - hit_beyond, math.pi - alpha + hit_beyond
    miss_lo, miss_hi = alpha - miss_beyond, alpha + miss_beyond
    w_lo = np.clip(np.maximum(hit_lo, miss_lo), 0.0, math.pi)
    w_hi = np.clip(np.minimum(hit_hi, miss_hi), 0.0, math.pi)
    hits_below, hits_above = hit_lo >= miss_lo, hit_hi <= miss_hi
    u_below = strategy.polar_uniform(np.clip(w_lo - CAP_THETA_MARGIN, 0.0, math.pi))
    u_above = strategy.polar_uniform(np.clip(w_hi + CAP_THETA_MARGIN, 0.0, math.pi))
    # below the window cos t > cos(w_lo) (side 1), above it cos t < cos(w_hi) (side -1)
    ends = strategy.polar_uniform(np.array([0.0, math.pi]))
    if ends[0] < ends[1]:
        u_low = _checked_bound(strategy, u_below, -math.inf, 1.0, np.cos(w_lo))
        u_high = _checked_bound(strategy, u_above, math.inf, -1.0, np.cos(w_hi))
        return u_low, u_high, hits_below, hits_above
    u_low = _checked_bound(strategy, u_above, -math.inf, -1.0, np.cos(w_hi))
    u_high = _checked_bound(strategy, u_below, math.inf, 1.0, np.cos(w_lo))
    return u_low, u_high, hits_above, hits_below


def _checked_bound(strategy: EstimatorStrategy, bound: np.ndarray, toward: float, side: float,
                   cos_edge: np.ndarray) -> np.ndarray:
    """`bound` clipped to [0, 1], where the drawn u lie, with each entry
    whose first u beyond it, toward `toward`, fails side * (polar_cos(u) -
    cos_edge) > 0 (see `_u_windows`) given up: set to 0 or 1 on that side."""
    bound = np.clip(bound, 0.0, 1.0)
    first = np.nextafter(bound, toward)
    drawn = np.flatnonzero((first >= 0.0) & (first < 1.0))
    wrong = drawn[side * (strategy.polar_cos(first[drawn]) - cos_edge[drawn]) <= 0.0]
    bound[wrong] = 0.0 if toward < 0.0 else 1.0
    return bound


def _azimuth_table(strategy: EstimatorStrategy, a_z: np.ndarray, e1_z: np.ndarray, cum: np.ndarray,
                   lower: np.ndarray, scale: np.ndarray, w_low: list, w_high: list,
                   cap_cos: float) -> tuple[np.ndarray, np.ndarray]:
    """(h_hit, h_miss), CAP_CELLS half-turn thresholds each, of the azimuth
    step: a window row whose word w lies in cell c = int(w * CAP_CELLS), the
    words [c, c + 1) / CAP_CELLS, is a sure hit at |h| >= h_hit[c] and a
    sure miss at |h| < h_miss[c].

    Only the cells holding words of the windows [w_low, w_high) of members
    off the poles (e1_z != 0, so z moves with the azimuth) are worked out,
    and of those only the cells whose words are all of one member; every
    other cell has h_hit 2 and h_miss 0, and decides no row, and an arm
    with no such window, the pole arm, gets that table at once. The cell's
    index is exact, as CAP_CELLS is a power of two. Within a member u never
    decreases as w grows, so the polar angles of cell c's rows run from
    the strategy's own arccos(polar_cos) at the `_recycled` u of its first
    word to that of its last. Over a range of polar angles of half-width r
    about its middle m, a row's z = cos(theta) a_z + sin(theta) cos(pi h)
    e1_z lies within r of z at m, since |dz/dtheta| <= 1. So the row is a
    sure hit where z at m is at least cap_cos + CAP_Z_MARGIN + r, which,
    as e1_z < 0, is cos(pi h) <= c_hit, and a sure miss where z at m is
    below cap_cos - CAP_Z_MARGIN - r, cos(pi h) > c_miss. The margin covers
    the few ulps by which polar_cos falls back (1e-7 rad at the poles) and
    the rounding of z and of the thresholds (1e-15 in z). A c_hit below -1
    gives 2 (no row) and one above 1 gives 0 (every row); likewise for
    c_miss. h_miss <= h_hit in every cell.
    """
    h_hit, h_miss = np.full(CAP_CELLS, 2.0), np.zeros(CAP_CELLS)
    window = np.zeros(CAP_CELLS, dtype=bool)
    for a, b, e in zip(w_low, w_high, e1_z.tolist()):
        if a < b and e != 0.0:
            window[math.floor(a * CAP_CELLS):math.ceil(b * CAP_CELLS)] = True
    if not window.any():
        return h_hit, h_miss
    cell = np.flatnonzero(window)
    ends = np.stack([cell, cell + 1]) / CAP_CELLS
    ends[1] = np.nextafter(ends[1], 0.0)  # each cell's first and last word
    member = _member_index(cum, ends[0])
    decided = np.flatnonzero(member == _member_index(cum, ends[1]))
    cell, member = cell.take(decided), member.take(decided)
    u = _recycled(ends.take(decided, axis=1), lower.take(member), scale.take(member))
    start, stop = np.arccos(np.clip(strategy.polar_cos(u.ravel()), -1.0, 1.0)).reshape(u.shape)
    middle, half = (start + stop) / 2.0, np.abs(stop - start) / 2.0
    z_mid = np.cos(middle) * a_z.take(member)
    spread = np.sin(middle) * -e1_z.take(member)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hit = (z_mid - (cap_cos + CAP_Z_MARGIN + half)) / spread
        c_miss = (z_mid - (cap_cos - CAP_Z_MARGIN - half)) / spread
    # a NaN (z at m on the threshold, at a spread of 0) decides no row
    hit = np.where(c_hit >= -1.0, np.arccos(np.clip(c_hit, -1.0, 1.0)) / math.pi, 2.0)
    miss = np.where(c_miss <= 1.0, np.arccos(np.clip(c_miss, -1.0, 1.0)) / math.pi, 0.0)
    miss[c_miss < -1.0] = 2.0
    h_hit[cell], h_miss[cell] = hit, np.minimum(miss, hit)
    return h_hit, h_miss


# numpy draws a double in [0, 1) as a word k / 2^53, k uniform on [0, 2^53)
_LATTICE = 2 ** 53


def _lattice(x: float) -> int:
    """The count of words k / 2^53 below x, for x in [0, 1]: ceil(x * 2^53),
    exact because the scaling is by a power of two, and at most 2^53."""
    return min(math.ceil(x * _LATTICE), _LATTICE)


def _word_classes(lower, upper, w_low, w_high, hits_low, hits_high) -> tuple[list, list]:
    """(hits, windows): the non-empty intervals [a, b) of word indices k, in
    word order, of the sure hits and of the u windows.

    Member j's words are [lower[j], upper[j]) and its window is [w_low[j],
    w_high[j]) (`_u_block_hits`); its words below the window are hits if
    hits_low[j], and those from w_high[j] on if hits_high[j]. Every other
    word is a sure miss. Each end becomes the count of words below it
    (`_lattice`), so the intervals partition the words with the misses.
    """
    hits, windows = [], []
    for j, ends in enumerate(zip(lower, w_low, w_high, upper)):
        start, a, b, end = map(_lattice, ends)
        if hits_low[j] and start < a:
            hits.append((start, a))
        if a < b:
            windows.append((a, b))
        if hits_high[j] and b < end:
            hits.append((b, end))
    return hits, windows


def _window_words(index: np.ndarray, windows: list) -> np.ndarray:
    """The words the indices name, in place: index i is the i-th word of
    the `_word_classes` windows taken in order. Past the first window's
    first word, each word at or past the end of a window skips the gap to
    the next one."""
    index += windows[0][0]
    for (_, end), (start, _) in zip(windows, windows[1:]):
        index[index >= end] += start - end
    return index


def _u_block_hits(strategy: EstimatorStrategy, decomposition: EnsembleDecomposition, cap_cos: float):
    """Block function of `_cap_hits` for a strategy with `polar_cos`.

    Members: the decomposition's members merged by what the count reads of
    them (`_merged_members`); the cos4 tilted pair is one member. A row's
    word w gives its member J, `_member_index(cum, w)`, and its polar
    uniform u = (w - lower[J]) * scale[J], below 1 (`_recycled_uniforms`).
    Given J = j, u lies on a grid of step 2^-53 / w_j, w_j the member's
    weight, so on any interval of u the law of (J, u) differs from that of
    a member drawn by weight and an independent uniform u by at most about
    2^-53 per member: the bound in total variation over such events.

    u step: the members' polar angles alpha about +z give, once per arm,
    each member's window of u (`_u_windows`), and rows outside their
    member's window are decided by u alone. u is non-decreasing in w within
    a member, so the window ends and the bounds of the sure hits are made
    once per arm into edges on w (`_w_edges`), and then into intervals of
    the words k / 2^53 that numpy draws (`_word_classes`): sure hits, the
    windows, and sure misses. For cos4 at p = 0.9 and a cap of 0.2 the
    windows hold about 3e-6 of the pole arm's words and 28.5% of the
    tilted arm's.

    The n words of a block are iid uniform on the 2^53 words, so the counts
    of its rows in the three classes are multinomial with the classes'
    word counts over 2^53, exact doubles, as probabilities; given the
    counts, the words in each class are iid uniform on its words (Devroye
    1986, *Non-Uniform Random Variate Generation*, ch. XI). So a block
    draws the counts, one `multinomial`, counts its sure hits from them,
    and draws words for its k window rows alone, as indices uniform on the
    windows' words (`integers`, `_window_words`). Its hit count
    has the law it has when every row draws its word. The k rows then take
    azimuths as half-turns h.

    Azimuth step (`_azimuth_table`, one table per arm): the cell of a
    window row's word, int(w * CAP_CELLS), gives two thresholds, and the
    row is a sure hit at |h| >= h_hit and a sure miss at |h| < h_miss. A
    cell of a pole member's words, or of two members' words, decides no
    row. For the cos4 tilted arm above that leaves 0.14% of the window
    rows.

    Exact step, on the rows left: their member and u, formed for them
    alone, their cos t (`polar_cos` of their u, the bytes the whole column
    gives them), their members' z coordinates and those of their frames'
    e1, and their h give `bloch.z_at_angle`, column 2 of `sample_batch`,
    tested `>= cap_cos`. The z coordinate has no sin(phi) term (e2_z is
    0). A block returns as soon as a step leaves no row, so it draws a
    multinomial and 2k words, and a block with no window row draws no word
    and calls neither `polar_cos` nor `z_at_angle`.
    """
    a_z, e1_z, weights = _merged_members(decomposition)
    # -e1_z is a member's distance from the z axis (`bloch.orthonormal_frames`);
    # math.atan2's bytes, unlike np.arctan2's, do not follow numpy's SIMD level
    alpha = np.array([math.atan2(-e, a) for a, e in zip(a_z.tolist(), e1_z.tolist())])
    u_low, u_high, hits_low, hits_high = _u_windows(strategy, alpha, cap_cos)
    cum, lower, scale = _recycled_uniforms(weights)
    upper = np.append(cum[:-1], 1.0)
    w_low, w_high = _w_edges(np.stack([u_low, np.nextafter(u_high, math.inf)]), lower, upper, scale).tolist()
    sure_hits, windows = _word_classes(lower.tolist(), upper.tolist(), w_low, w_high, hits_low, hits_high)
    hit_words = sum(b - a for a, b in sure_hits)
    window_words = sum(b - a for a, b in windows)
    pvals = np.array([hit_words, window_words, _LATTICE - hit_words - window_words]) / _LATTICE
    h_hit, h_miss = _azimuth_table(strategy, a_z, e1_z, cum, lower, scale, w_low, w_high, cap_cos)

    def block_hits(rng, lo, hi):
        hits, k, _ = rng.multinomial(hi - lo, pvals).tolist()
        if not k:
            return hits
        word = _window_words(rng.integers(0, window_words, size=k), windows)
        h = uniform_azimuths(rng, k)
        w = np.multiply(word, 1.0 / _LATTICE)
        cell = word // (_LATTICE // CAP_CELLS)
        turn = np.abs(h)
        sure = turn >= h_hit.take(cell)
        hits += np.count_nonzero(sure)
        rows = turn >= h_miss.take(cell)
        rows ^= sure
        rows = np.flatnonzero(rows)
        if not rows.size:
            return int(hits)
        w, h = w.take(rows), h.take(rows)
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
    split over `workers`), counts guesses inside the cap about +z, and scores
    the frequency gap as a two-sample z statistic with binomial standard
    errors; with both errors zero the run carries no information and is
    indeterminate. Both decompositions' workers run concurrently, in one
    `streams.map_blocks` call, and each arm's block hits are summed.
    A guess counts by its z coordinate alone (`_cap_hits`):
    for a strategy with `polar_cos` (the two-parameter and tabulated
    samplers) one word per row gives both its member and its polar uniform
    u (`_u_block_hits`). Member j's u then lies on a grid of step 2^-53 /
    w_j, w_j its weight, which moves the law of (member, u) by at most
    about 2^-53 per member on any interval of u. Most rows are decided by
    the class of their word, so a block draws its rows' class counts as
    one multinomial and a word and an azimuth for each of its k window
    rows alone, 2k words where one word per row took n + k; the count has
    the same law. Most window rows are counted from their azimuth against
    the thresholds of their word's cell, and the few left from a z
    computed from the drawn angles and the members' frames, without
    `sample_batch`. The windows, word classes, thresholds and frames are
    made once per arm, in each call.
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
