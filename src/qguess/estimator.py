"""Estimation strategies and empirical guessing densities over outcome directions.

A strategy maps an input direction to a guessed direction; every strategy here
is isotropic, so the outcome distribution depends on the input only through
the angle t between guess and input. The two-parameter family

    density(t) = A cos^2(t/2) + B sin^2(t/2) = alpha + beta cos t,
    alpha = (A + B)/2,  beta = (A - B)/2

covers the random-axis measurement strategy (A = 1/2pi, B = 0) and the
uniform guesser (A = B = 1/4pi). Tabulated strategies carry an arbitrary
non-negative density on a grid of t, linear in cos t between the nodes.
Both are sampled by inverting their CDF in cos t exactly: it is quadratic
in cos t, over the sphere or within each grid cell.

Histogram bins are equal width in t (not equal solid angle) so the
cos^2-versus-cos^4 shapes stay resolved near the poles; densities are
reported per steradian.
"""

from __future__ import annotations

import functools
import math
import statistics
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import streams
from .bloch import (
    ALGEBRA_TOL,
    angles_between,
    directions_at_angle,
    dots,
    random_directions,
)
from .errors import InvalidFormError, QGuessError

TWO_PI = 2.0 * math.pi

DEFAULT_BINS = 50
DEFAULT_TRIALS = 1_000_000

# linear-interpolant sphere integral must hit 1 within this
TABULATED_NORM_TOL = 1e-6


@dataclass(frozen=True)
class GuessingForm:
    """The (A, B) pair of the two-parameter guessing density.

    A and B are probability densities per steradian (the values at t = 0 and
    t = pi); they must be finite and non-negative. Normalization,
    2pi(A + B) = 1, is required only where the form is used as a density and
    is checked there.
    """

    A: float
    B: float

    def __post_init__(self):
        if not (0.0 <= self.A < math.inf and 0.0 <= self.B < math.inf):
            raise InvalidFormError(f"A and B must be finite and non-negative, got ({self.A}, {self.B})")

    @property
    def alpha(self) -> float:
        return (self.A + self.B) / 2.0

    @property
    def beta(self) -> float:
        return (self.A - self.B) / 2.0

    @property
    def is_normalized(self) -> bool:
        return abs(TWO_PI * (self.A + self.B) - 1.0) <= ALGEBRA_TOL

    def require_normalized(self) -> "GuessingForm":
        if not self.is_normalized:
            raise InvalidFormError(
                f"form must satisfy 2pi(A+B)=1 to be a density, got A={self.A}, B={self.B}"
            )
        return self

    @classmethod
    def from_a_fraction(cls, a_frac: float) -> "GuessingForm":
        """Normalized form with A = a_frac/2pi, B = (1 - a_frac)/2pi."""
        streams.require_real("a_frac", a_frac)
        if not 0.0 <= a_frac <= 1.0:
            raise InvalidFormError(f"a_frac must lie in [0, 1], got {a_frac}")
        return cls(a_frac / TWO_PI, (1.0 - a_frac) / TWO_PI)


MASSAR_POPESCU_FORM = GuessingForm(1.0 / TWO_PI, 0.0)


def guessing_density(form: GuessingForm, theta):
    """A cos^2(t/2) + B sin^2(t/2) at angle(s) theta in [0, pi]."""
    c2 = np.cos(np.asarray(theta) / 2.0) ** 2
    out = form.A * c2 + form.B * (1.0 - c2)
    return float(out) if np.isscalar(theta) else out


def cap_probability(form: GuessingForm, cap_half_angle: float) -> float:
    """Closed-form integral of the density over a cap of given half-angle.

    The integrand is linear in cos t, so the antiderivative is quadratic in
    cos t; for the full sphere and a normalized form this returns 1.
    """
    streams.require_real("cap half-angle", cap_half_angle)
    if not 0.0 < cap_half_angle <= math.pi:
        raise InvalidFormError(f"cap half-angle must lie in (0, pi], got {cap_half_angle}")
    c = math.cos(cap_half_angle)
    return TWO_PI * (1.0 - c) * (form.alpha + form.beta * (1.0 + c) / 2.0)


def ab_bin_probabilities(form: GuessingForm, theta_edges: np.ndarray) -> np.ndarray:
    """Exact per-bin probabilities of the form over a theta grid."""
    t = np.cos(np.asarray(theta_edges, dtype=float))
    lo, hi = t[:-1], t[1:]
    return TWO_PI * (form.alpha * (lo - hi) + form.beta * (lo * lo - hi * hi) / 2.0)


def _ab_inverse_cdf(form: GuessingForm, u: np.ndarray) -> np.ndarray:
    """cos t such that the form's cap CDF equals u; branch stable as beta -> 0.

    With g = u - 1/2 + pi*beta the quadratic CDF inverts to
    t = 2g / (1/2 + sqrt(1/4 + 4*pi*beta*g)); the discriminant is a perfect
    square at u in {0, 1} and non-negative throughout for admissible forms.
    """
    pb = math.pi * form.beta
    g = np.subtract(u, 0.5)
    g += pb
    disc = np.multiply(g, 4.0 * pb)
    disc += 0.25
    np.clip(disc, 0.0, None, out=disc)
    np.sqrt(disc, out=disc)
    disc += 0.5
    g *= 2.0
    g /= disc
    return np.clip(g, -1.0, 1.0, out=g)


def uniform_azimuths(rng: np.random.Generator, n: int) -> np.ndarray:
    """The azimuth column of an angle strategy's draws: n half-turns h,
    uniform on [-1, 1), for the azimuths pi*h (`bloch._cos_sin`)."""
    return rng.uniform(-1.0, 1.0, size=n)


# ---------------------------------------------------------------------------
# strategies

class EstimatorStrategy(ABC):
    """Isotropic estimator: output density depends only on the angle to the input.

    `sample_batch` draws whole columns of uniforms, one double per row each,
    in a fixed order, from the generator of the row block it is handed
    (`streams.map_blocks`).

    A strategy whose guess is the input's `directions_at_angle` at a drawn
    (cos t, azimuth) pair draws a polar column u, then the azimuth column
    (`uniform_azimuths`), and defines two maps of the polar column for a
    caller that needs less than the whole guess (the cap counts of
    `nosignal.run_discrimination_experiment`): `polar_cos(u)`, the cos t of
    each row, element by element, so a subset of rows gets the bytes the
    whole column gives them; and `polar_uniform(theta)`, the monotone map
    back from polar angles to the u at which they are drawn. Other
    strategies leave `polar_cos` None.
    """

    polar_cos = None

    @abstractmethod
    def density(self, theta):
        """Analytic outcome density (per steradian) at angle(s) theta to the input."""

    @abstractmethod
    def sample_batch(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Guess directions for an (n, 3) array of inputs, one guess per row,
        from calls `rng.random(n)` / `rng.uniform(low, high, n)` in a fixed
        order."""

    @abstractmethod
    def bin_probabilities(self, theta_edges: np.ndarray) -> np.ndarray:
        """Probability mass of the outcome angle in each [edge_i, edge_i+1) bin."""


class ABFormStrategy(EstimatorStrategy):
    """Direct sampler of a normalized two-parameter guessing density.

    Inverse CDF in cos t plus a uniform azimuth.
    """

    def __init__(self, form: GuessingForm):
        self.form = form.require_normalized()

    def density(self, theta):
        return guessing_density(self.form, theta)

    def polar_cos(self, u: np.ndarray) -> np.ndarray:
        """cos t is what is drawn: the inverse of the CDF of cos t."""
        return _ab_inverse_cdf(self.form, u)

    def polar_uniform(self, theta) -> np.ndarray:
        """The CDF of cos t that `_ab_inverse_cdf` inverts, (1 + t)(1/2 + pi*beta*(t - 1))
        at t = cos theta: decreasing in theta, 1 at 0 and 0 at pi."""
        t = np.cos(np.asarray(theta, dtype=float))
        return (1.0 + t) * (0.5 + math.pi * self.form.beta * (t - 1.0))

    def sample_batch(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(inputs)
        return directions_at_angle(inputs, self.polar_cos(rng.random(n)), uniform_azimuths(rng, n))

    def bin_probabilities(self, theta_edges: np.ndarray) -> np.ndarray:
        return ab_bin_probabilities(self.form, theta_edges)


class MassarPopescuStrategy(ABFormStrategy):
    """Measure along a uniformly random axis and report the observed eigendirection.

    The two-parameter form with B = 0, outcome density (1/2pi) cos^2(t/2),
    sampled by the measurement itself.
    """

    # the guess is a measured axis, not an angle about the input
    polar_cos = None

    def __init__(self):
        super().__init__(MASSAR_POPESCU_FORM)

    def sample_batch(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        axes = random_directions(rng, len(inputs))
        born = rng.random(len(inputs))
        # Born probability (1 + a.n)/2 of the +a outcome, formed in place
        p = dots(axes, inputs)
        p += 1.0
        p /= 2.0
        # the measured axis, or its negation: times +-1.0, exact for signed zeros too
        sign = np.less(born, p).astype(float)
        sign *= 2.0
        sign -= 1.0
        np.multiply(axes.T, sign, out=axes.T)
        return axes


class TabulatedStrategy(EstimatorStrategy):
    """Density tabulated on a theta grid, linear in c = cos t within each cell.

    The grid must span [0, pi]; values must be non-negative and the sphere
    integral of the interpolant, the trapezoid rule in c, must be 1 within
    1e-6; it is renormalized to 1. A two-parameter form, linear in c, is
    exact on any grid. Within a cell the CDF is quadratic in c
    (`polar_uniform`), and `polar_cos` inverts it exactly: the cell from a
    guide table (Chen & Asau 1974; Devroye 1986, sec. III.2), checked
    against the CDF, then the root of the quadratic in the form that does
    not cancel.
    """

    GUIDE_PER_NODE = 2  # guide-table cells per CDF node
    # below this many rows a binary search of every row beats the guide table's
    # fixed numpy calls; on cos4's 4001 nodes the two meet near 512 rows
    GUIDE_MIN_ROWS = 512

    def __init__(self, thetas, values):
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if thetas.ndim != 1 or thetas.shape != values.shape or len(thetas) < 2:
            raise InvalidFormError("need matching 1-d theta and value grids with >= 2 nodes")
        if thetas[0] != 0.0 or abs(thetas[-1] - math.pi) > 1e-12 or not np.all(np.diff(thetas) > 0):
            raise InvalidFormError("theta grid must increase strictly from 0 to pi")
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise InvalidFormError("tabulated densities must be finite and non-negative")
        self.thetas = thetas
        self.values = values
        # cosines kept non-increasing; nodes whose cosines round equal bound a
        # cell of no width and no mass, which no u selects
        c = np.minimum.accumulate(np.cos(thetas))
        width = c[:-1] - c[1:]
        cdf = np.concatenate([[0.0], np.cumsum(math.pi * width * (values[:-1] + values[1:]))])
        self.sphere_integral = float(cdf[-1])
        if not abs(self.sphere_integral - 1.0) <= TABULATED_NORM_TOL:
            raise InvalidFormError(
                f"tabulated density must integrate to 1 over the sphere, got {self.sphere_integral}"
            )
        self._neg_cos = -c  # increasing, for np.interp and np.searchsorted
        self._xp = cdf / self.sphere_integral
        # in cell j the CDF is u = xp + d (2h + k d) at d = c_top - c, 2h its
        # slope at the top; h is floored at the least normal double, so that
        # u = xp at h = 0 inverts to d = 0, not 0/0
        v = values * (TWO_PI / self.sphere_integral)
        h = np.maximum(v[:-1] / 2.0, np.finfo(float).tiny)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(width > 0.0, (v[1:] - v[:-1]) / (2.0 * width), 0.0)
        self._cells = np.stack([self._xp[:-1], c[:-1], h, h * h, k, c[1:]])
        # guide[i]: cell of the CDF value i/n; n + 1 entries so that u*n rounding up to n is covered
        n = self.GUIDE_PER_NODE * len(thetas)
        self._guide = np.minimum(np.searchsorted(self._xp, np.arange(n + 1) / n, "right") - 1, len(c) - 2)

    def density(self, theta):
        out = np.interp(-np.cos(np.asarray(theta, dtype=float)), self._neg_cos, self.values)
        return float(out) if np.isscalar(theta) else out

    def polar_cos(self, u: np.ndarray) -> np.ndarray:
        """cos t at which the CDF takes the values u (1-d, in [0, 1)): in the
        cell j with xp[j] <= u < xp[j+1], c_top - r / (h + sqrt(h^2 + k r)),
        r = u - xp[j], kept in the cell. From GUIDE_MIN_ROWS rows on, j
        starts at the guide entry of u's guide cell, one step up, and rows
        outside their cell (more than one node in a guide cell, rounding at
        guide-cell edges) take the binary search that fewer rows all take."""
        xp, inner = self._xp, self._xp[1:-1]
        if len(u) < self.GUIDE_MIN_ROWS:
            j = np.searchsorted(inner, u, side="right")
        else:
            j = self._guide.take((u * (len(self._guide) - 1)).astype(np.intp))
            j += xp.take(j + 1) <= u
            miss = ((u < xp.take(j)) | (u >= xp.take(j + 1))).nonzero()[0]
            j[miss] = np.searchsorted(inner, u.take(miss), side="right")
        r, top, h, h2, k, bottom = self._cells.take(j, axis=1)
        r = np.subtract(u, r, out=r)
        d = np.sqrt(np.maximum(r * k + h2, 0.0))
        d += h
        return np.maximum(top - r / d, bottom)

    def polar_uniform(self, theta) -> np.ndarray:
        """The CDF that `polar_cos` inverts, at theta: increasing, 0 at 0 and 1 at pi."""
        c = np.cos(np.asarray(theta, dtype=float))
        x, top, h, _, k, _ = self._cells.take(np.searchsorted(self._neg_cos[1:-1], -c, side="right"), axis=1)
        d = top - c
        return x + d * (k * d + 2.0 * h)

    def sample_batch(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(inputs)
        return directions_at_angle(inputs, self.polar_cos(rng.random(n)), uniform_azimuths(rng, n))

    def bin_probabilities(self, theta_edges: np.ndarray) -> np.ndarray:
        return np.diff(self.polar_uniform(theta_edges))

    def sphere_expectation(self, score) -> float:
        """Sphere average of a vectorized angle score under the sampled
        (renormalized) density, by 5-point Gauss-Legendre per grid cell."""
        theta, weights = composite_gauss_legendre(self.thetas, 5)
        y = self.density(theta) * score(theta) * np.sin(theta)
        return TWO_PI * float(np.sum(y * weights)) / self.sphere_integral


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def composite_gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (nodes, weights) of the `order`-point Gauss-Legendre rule on each
    panel [edges[i], edges[i+1]]; the Legendre table is computed once per order.

    Exact for polynomials of degree < 2 * order on every panel, so panel edges
    belong at the kinks of a piecewise integrand.
    """
    x, w = _legendre_rule(order)
    edges = np.asarray(edges, dtype=float)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


# ---------------------------------------------------------------------------
# histograms

@dataclass(frozen=True)
class DensityHistogram:
    """Counts of outcome angles on an equal-width theta grid over [0, pi]."""

    theta_edges: np.ndarray
    counts: np.ndarray
    trials: int

    def __post_init__(self):
        streams.require_integer("trials", self.trials)
        edges = np.asarray(self.theta_edges, dtype=float)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iuf" or not np.all(np.isfinite(counts)) or np.any(counts % 1 != 0):
            raise QGuessError(f"counts must be integers, got {self.counts!r}")
        counts = counts.astype(np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or len(edges) != len(counts) + 1 or len(counts) < 1:
            raise QGuessError("need 1-d theta_edges and counts with len(theta_edges) == len(counts) + 1")
        if edges[0] != 0.0 or abs(edges[-1] - math.pi) > 1e-12:
            raise QGuessError("theta grid must span [0, pi]")
        widths = np.diff(edges)
        if not np.allclose(widths, widths[0], rtol=0.0, atol=1e-12):
            raise QGuessError("theta bins must have equal width")
        if counts.min() < 0 or counts.sum() != self.trials:
            raise QGuessError("counts must be non-negative and sum to the trial count")
        edges = edges.copy()
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "theta_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bins(self) -> int:
        return len(self.counts)

    @property
    def solid_angles(self) -> np.ndarray:
        """Per-bin solid angle 2pi (cos t_lo - cos t_hi); sums to 4pi."""
        t = np.cos(self.theta_edges)
        return TWO_PI * (t[:-1] - t[1:])

    @property
    def empirical_density(self) -> np.ndarray:
        """count / (trials * bin solid angle), per steradian."""
        return self.counts / (self.trials * self.solid_angles)


def collect_histogram(
    strategy: EstimatorStrategy,
    trials: int = DEFAULT_TRIALS,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
    workers: int = 1,
) -> DensityHistogram:
    """Monte Carlo outcome-angle histogram with isotropically drawn inputs.

    Trials are split across per-worker substreams of (seed, worker), drawn
    and binned in row blocks of streams.ROW_BLOCK rows (`streams.map_blocks`),
    and the block counts aggregate by summation, so the result is
    bit-identical for a fixed worker count whatever the thread count.
    """
    streams.require_integer("bins", bins)
    if bins < 2:
        raise QGuessError(f"bins must be >= 2, got {bins}")
    edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(0.0, math.pi))

    def block_counts(rng, lo, hi):
        inputs = random_directions(rng, hi - lo)
        outcomes = strategy.sample_batch(inputs, rng)
        return np.histogram(angles_between(inputs, outcomes), bins=edges)[0]

    [blocks] = streams.map_blocks([(block_counts, 0, streams.ROW_BLOCK)], seed, trials, workers)
    return DensityHistogram(edges, np.sum(blocks, axis=0), trials)


def histogram_chi2(hist: DensityHistogram, bin_probs: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of observed counts against expected probabilities.

    Returns (chi2, dof) with dof = bins - 1; bins with zero expected mass and
    zero observed count are skipped, a count where none is expected gives inf.
    Probabilities that are not one finite, non-negative value per bin raise
    QGuessError.
    """
    bin_probs = np.asarray(bin_probs, dtype=float)
    if bin_probs.shape != hist.counts.shape:
        raise QGuessError(f"need {hist.bins} bin probabilities, got shape {bin_probs.shape}")
    if not np.all(bin_probs >= 0.0) or not np.all(np.isfinite(bin_probs)):
        raise QGuessError("bin probabilities must be finite and non-negative")
    expected = hist.trials * bin_probs
    observed = hist.counts.astype(float)
    live = expected > 0.0
    if np.any(observed[~live] > 0):
        return math.inf, hist.bins - 1
    chi2 = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
    return chi2, hist.bins - 1


def chi2_threshold_999(dof: int) -> float:
    """0.999 quantile of the chi-square law with `dof` degrees of freedom.

    The quantile is 2x where Q(a, x) = 1/1000, a = dof/2, and Q is the
    regularized upper incomplete gamma. Newton steps start from the
    Wilson-Hilferty approximation (Wilson & Hilferty 1931). Each step takes
    Q from its continued fraction by the modified Lentz method (Press et al.,
    *Numerical Recipes*, section 6.2). The quantile lies near a + 3.09 sqrt(a),
    and every iterate stays more than 3.8 above a + 1, where the fraction's
    denominators stay positive and it converges within about 50 terms; so
    the series that serves x < a + 1 is not needed. The prefactor
    x^a e^-x / Gamma(a) is taken as exp(a (log1p(y) - y) + ln(a/2pi)/2 -
    stirlerr(a)), y = (x - a)/a, whose terms do not cancel at large a. A dof
    that is not an integer in [1, 2^53] raises QGuessError: far above 2^53,
    x and a + 1 round to the same double.
    """
    streams.require_integer("dof", dof)
    if not 1 <= dof <= 2**53:
        raise QGuessError(f"dof must lie in [1, 2^53], got {dof}")
    a = dof / 2.0
    if a >= 10.0:
        # Stirling's series; its first omitted term is below 2e-14
        r = 1.0 / (a * a)
        stirlerr = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / a
    else:
        stirlerr = math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    h = 2.0 / (9.0 * dof)
    x = a * (1.0 - h + statistics.NormalDist().inv_cdf(0.999) * math.sqrt(h)) ** 3
    while True:
        y = (x - a) / a
        g = math.exp(a * (math.log1p(y) - y) + 0.5 * math.log(a / (2.0 * math.pi)) - stirlerr)
        b = x + 1.0 - a
        c = math.inf
        d = frac = 1.0 / b
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            frac *= delta
            if abs(delta - 1.0) <= 2.0**-52:
                break
        # Q(a, x) = g frac is convex and falling in x, so Newton converges
        step = x * (frac - 0.001 / g)
        x += step
        if abs(step) <= 1e-15 * x:
            return 2.0 * x


def histogram_csv(hist: DensityHistogram, analytic_density: np.ndarray) -> str:
    """CSV block with the declared columns; one row per bin.

    `analytic_density` is the strategy's bin-averaged density per steradian
    (bin probability / bin solid angle), directly comparable to the empirical
    column: one value per bin, or QGuessError.
    """
    analytic_density = np.asarray(analytic_density, dtype=float)
    if analytic_density.shape != hist.counts.shape:
        raise QGuessError(f"need {hist.bins} analytic densities, got shape {analytic_density.shape}")
    lines = ["theta_lo,theta_hi,solid_angle,count,empirical_density,analytic_density"]
    edges = hist.theta_edges
    emp = hist.empirical_density
    sa = hist.solid_angles
    for i in range(hist.bins):
        lines.append(
            f"{float(edges[i])!r},{float(edges[i + 1])!r},{float(sa[i])!r},{int(hist.counts[i])},"
            f"{float(emp[i])!r},{float(analytic_density[i])!r}"
        )
    return "\n".join(lines) + "\n"
