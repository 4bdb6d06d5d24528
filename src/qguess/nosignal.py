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

# Rows per block of the discrimination's angle path (`_cap_hits`). The two
# arms run on two threads, and each numpy call hands the interpreter lock
# over; the angle path does few float operations per call, so at
# streams.ROW_BLOCK rows the handovers took a share of each call that swung
# with the host's load. Twice the rows halve the calls per trial. A block's
# peak, reached before its exact z, is 2.9-3.6 arrays of its rows, where
# ten were alive at streams.ROW_BLOCK rows, so it takes less memory.
CAP_ROW_BLOCK = 2 * streams.ROW_BLOCK

# Margin on a guess's z coordinate within which the polar step of the
# angle path leaves a row to the exact z (`_polar_bounds`).
CAP_Z_MARGIN = 1e-6

# Margin on the polar angle by which `_u_windows` widens the polar step's
# window before mapping it to the drawn u, so that the mapped bounds pass
# their check at once: above the rounding of the maps between u and the
# polar angle away from the poles, far below the window itself (about
# 1e-5 rad wide at a cap of 0.2).
CAP_THETA_MARGIN = 1e-9


def fibonacci_directions(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors (Fibonacci sphere lattice), as an (n, 3) array."""
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
    """
    dirs = _direction_array(m_grid)
    std = standard_decomposition(p)
    sym = symmetric_decomposition(p)

    def dens_to(ref: np.ndarray) -> np.ndarray:
        return np.asarray(density(np.arccos(np.clip(dirs @ ref, -1.0, 1.0))))

    lhs = 0.5 * dens_to(sym.directions[0]) + 0.5 * dens_to(sym.directions[1])
    rhs = p * dens_to(std.directions[0]) + (1.0 - p) * dens_to(std.directions[1])
    return ConstraintResidual(p=p, residuals=np.abs(lhs - rhs))


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
    a non-trivial deviation, largest near t = pi/2.
    """
    grid = np.linspace(0.0, math.pi, 1001)
    g = np.asarray(density(grid))
    form = GuessingForm(float(g[0]), float(g[-1]))
    deviation = np.abs(g - guessing_density(form, grid))
    return AbDerivation(form=form, max_deviation=float(np.max(deviation)))


# ---------------------------------------------------------------------------
# counterexample density with curvature in cos t

def cos4_density(theta):
    """(3/4pi) cos^4(t/2): normalized, but quadratic in cos t."""
    out = (3.0 / (2.0 * TWO_PI)) * np.cos(np.asarray(theta) / 2.0) ** 4
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
    non-finite axis angle, or a cap half-angle outside (0, pi], raises
    QGuessError.
    """
    if not math.isfinite(axis_angle):
        raise QGuessError(f"axis angle must be finite, got {axis_angle}")
    if not 0.0 < cap_half_angle <= math.pi:
        raise QGuessError(f"cap half-angle must lie in (0, pi], got {cap_half_angle}")
    u, wu = composite_gauss_legendre(np.linspace(0.0, cap_half_angle, 17), 24)
    n_v = 1024
    v = (np.arange(n_v) + 0.5) * (TWO_PI / n_v)
    cos_t = np.cos(u)[:, None] * math.cos(axis_angle) + np.sin(u)[:, None] * math.sin(
        axis_angle
    ) * np.cos(v)[None, :]
    vals = np.asarray(density(np.arccos(np.clip(cos_t, -1.0, 1.0))))
    return float(np.sum(wu * np.sin(u) * vals.sum(axis=1)) * (TWO_PI / n_v))


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
    if not math.isfinite(gap):
        raise QGuessError(f"cap frequencies must be finite, got {f_std} and {f_sym}")
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
    """Batch function for `streams.map_batches`: fn(rng, m) counts the
    guesses inside the cap about +z over m preparations of the
    decomposition, drawn one row block at a time (`streams.map_row_blocks`):
    a member pick (`_member_index`), then the strategy's guess.

    Only the guess's z coordinate is counted, and `z >= cap_cos` is the
    count of `sample_batch`. A strategy with `polar_cos` counts most rows
    from the drawn polar uniform alone and builds no guess
    (`_u_block_hits`), in CAP_ROW_BLOCK rows. Other strategies run
    `sample_batch` on the picked members, in streams.ROW_BLOCK rows.
    """
    cum = np.cumsum(decomposition.weights)
    dirs = decomposition.directions
    if strategy.polar_cos is None:
        rows = streams.ROW_BLOCK

        def block_hits(draws, lo, hi):
            idx = _member_index(cum, draws.random(hi - lo))
            z = strategy.sample_batch(dirs.take(idx, axis=0), draws)[:, 2]
            return int(np.count_nonzero(z >= cap_cos))
    else:
        rows = CAP_ROW_BLOCK
        block_hits = _u_block_hits(strategy, dirs, cum, cap_cos)

    def batch_hits(rng, m):
        return sum(streams.map_row_blocks(block_hits, rng, m, 1 + strategy.UNIFORMS, rows))

    return batch_hits


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
    [u_low, u_high] are left to the exact z, and rows below or above that
    window are all cap hits or all misses, as hits_low and hits_high say.

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
    rows go to the exact z. Both maps from u to cos t are monotone up to a
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


def _shared(values: np.ndarray):
    """values[0] as a float when every member has it, else the array."""
    return float(values[0]) if np.all(values == values[0]) else values


def _per_row(value, idx: np.ndarray):
    """Each row's member's value: a shared float as it is."""
    return value if isinstance(value, float) else value.take(idx)


def _u_block_hits(strategy: EstimatorStrategy, dirs: np.ndarray, cum: np.ndarray, cap_cos: float):
    """Block function of `_cap_hits` for a strategy with `polar_cos`.

    u step: the members' polar angles alpha about +z give, once per arm,
    each member's window of the drawn polar uniform u (`_u_windows`), and
    rows outside their member's window are counted from u alone. For cos4
    at p = 0.9 and a cap of 0.2 that is all but about 3e-6 of the pole
    arm's rows and 71.5% of the tilted arm's. A bound the members share is
    compared as one number (the tilted pair has one alpha); otherwise each
    row takes its member's.

    Exact step, on the rows in the windows alone: their cos t (`polar_cos`
    of their u, the bytes the whole column gives them), the picked members'
    z coordinates from frames made once per arm (`bloch.frame_z`) and their
    azimuths give `bloch.z_at_angle`, column 2 of `sample_batch`, tested
    `>= cap_cos`. An azimuth term whose frame coordinate is zero for every
    member is left out (both for the poles, sin(phi)*e2_z for a tilted pair
    in the y-z plane); that can change only the sign of a zero z, which the
    test cannot see. With both left out no azimuth is read, and the block
    skips the azimuth column (`streams._BlockDraws.skip`).
    """
    members_z = bloch.frame_z(dirs)
    reads_azimuth = members_z[1] is not None or members_z[2] is not None
    alpha = np.arctan2(np.hypot(dirs[:, 0], dirs[:, 1]), dirs[:, 2])
    u_low, u_high, hits_low, hits_high = _u_windows(strategy, alpha, cap_cos)
    # rows of a member whose rows there are misses compare with 0 or 1, which no u is beyond
    hit_low = _shared(np.where(hits_low, u_low, 0.0)) if hits_low.any() else None
    hit_high = _shared(np.where(hits_high, u_high, 1.0)) if hits_high.any() else None
    u_low, u_high = _shared(u_low), _shared(u_high)

    def block_hits(draws, lo, hi):
        n = hi - lo
        idx = _member_index(cum, draws.random(n))
        u = draws.random(n)
        hits = 0
        if hit_low is not None:
            hits += np.count_nonzero(u < _per_row(hit_low, idx))
        if hit_high is not None:
            hits += np.count_nonzero(u > _per_row(hit_high, idx))
        exact = u >= _per_row(u_low, idx)
        exact &= u <= _per_row(u_high, idx)
        rows = np.flatnonzero(exact)
        del exact
        cos_theta = strategy.polar_cos(u.take(rows))
        del u
        if reads_azimuth:
            phi = uniform_azimuths(draws, n).take(rows)
        else:
            draws.skip(n)
            phi = None
        idx = idx.take(rows)
        z = bloch.z_at_angle(*(None if c is None else c.take(idx) for c in members_z), cos_theta, phi)
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
    `streams.map_arms` call, and each arm's hits are summed in worker-then-
    batch order. A guess counts by its z coordinate alone (`_cap_hits`):
    for a strategy with `polar_cos` (the two-parameter and tabulated
    samplers) most rows are counted from the drawn polar uniform, and the
    rest from a z computed from the drawn angles and the members' frames,
    made once per arm, without `sample_batch`.
    """
    if not 0.0 < cap_half_angle <= math.pi:
        raise QGuessError(f"cap half-angle must lie in (0, pi], got {cap_half_angle}")
    if trials < 2:
        raise QGuessError(f"need at least 2 trials, got {trials}")
    cap_cos = math.cos(cap_half_angle)
    arms = [
        (_cap_hits(strategy, standard_decomposition(p), cap_cos), 2 * stream_block),
        (_cap_hits(strategy, symmetric_decomposition(p), cap_cos), 2 * stream_block + 1),
    ]
    hits_std, hits_sym = (sum(hits) for hits in streams.map_arms(arms, seed, trials, workers))

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
