"""Merit functionals over guessing densities and their optimization.

A merit function scores a guess by the angle t it makes with the true input
direction, monotonically non-increasing in t. The average merit of a
two-parameter density A cos^2(t/2) + B sin^2(t/2) is affine in (A, B), so
over the normalized family 2pi(A+B) = 1 every monotone merit is maximized at
an endpoint; for the fidelity score cos^2(t/2) the average has the closed
form (2pi/3)(2A + B), peaking at 2/3 when B = 0.

Averages are computed by composite Gauss-Legendre quadrature (panels split at
the merit's tabulation nodes when it has them) so the closed form and the
optimizer scan stay independent checks of each other rather than one
construction.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import streams
from .bloch import dots, random_directions
from .errors import QGuessError
from .estimator import (
    ABFormStrategy,
    DEFAULT_TRIALS,
    EstimatorStrategy,
    GuessingForm,
    TWO_PI,
    composite_gauss_legendre,
    guessing_density,
)


class MeritFunction(ABC):
    """Score of a guess as a function of its angle to the input, in [0, 1]."""

    label: str = "merit"

    @abstractmethod
    def score(self, theta):
        """Vectorized score at angle(s) theta in [0, pi]."""

    def quad_points(self):
        """Interior kinks of the score in (0, pi), used as quadrature panel
        edges; empty when the score is smooth."""
        return ()


class FidelityMerit(MeritFunction):
    """score(t) = cos^2(t/2), the squared overlap of guess and input."""

    label = "fidelity"

    def score(self, theta):
        out = (1.0 + np.cos(np.asarray(theta))) / 2.0
        return float(out) if np.isscalar(theta) else out


class MonotoneTabulatedMerit(MeritFunction):
    """Merit tabulated on a theta grid, interpolated linearly.

    Node scores must lie in [0, 1] and be non-increasing in theta; constant
    tables are allowed (every density then earns the same average).
    """

    def __init__(self, thetas, scores, label: str = "tabulated-merit"):
        thetas = np.asarray(thetas, dtype=float)
        scores = np.asarray(scores, dtype=float)
        if thetas.ndim != 1 or thetas.shape != scores.shape or len(thetas) < 2:
            raise QGuessError("need matching 1-d theta and score grids with >= 2 nodes")
        if thetas[0] != 0.0 or abs(thetas[-1] - math.pi) > 1e-12 or not np.all(np.diff(thetas) > 0):
            raise QGuessError("theta grid must increase strictly from 0 to pi")
        if not (scores.min() >= 0.0 and scores.max() <= 1.0):
            raise QGuessError("merit scores must lie in [0, 1]")
        if np.any(np.diff(scores) > 1e-12):
            raise QGuessError("merit scores must be non-increasing in theta")
        self.thetas = thetas
        self.scores = scores
        self.label = label

    def score(self, theta):
        out = np.interp(np.asarray(theta, dtype=float), self.thetas, self.scores)
        return float(out) if np.isscalar(theta) else out

    def quad_points(self):
        return self.thetas[1:-1]


def named_merit(name: str) -> MeritFunction:
    """Merit functions exposed on the command line."""
    if name == "fidelity":
        return FidelityMerit()
    if name == "cos4":
        grid = np.linspace(0.0, math.pi, 41)
        return MonotoneTabulatedMerit(grid, ((1.0 + np.cos(grid)) / 2.0) ** 2, label="cos4")
    if name == "constant":
        grid = np.linspace(0.0, math.pi, 11)
        return MonotoneTabulatedMerit(grid, np.full(len(grid), 0.5), label="constant")
    raise QGuessError(f"unknown merit {name!r}")


# ---------------------------------------------------------------------------
# averages

def average_fidelity_exact(form: GuessingForm) -> float:
    """Closed-form sphere average of cos^2(t/2) against the density: (2pi/3)(2A+B)."""
    return (TWO_PI / 3.0) * (2.0 * form.A + form.B)


def average_merit(form: GuessingForm, merit: MeritFunction) -> float:
    """Sphere average of the merit against the density, by 24-point
    Gauss-Legendre on each panel between the merit's kinks; a non-finite
    average (the merit scored nan or inf) raises QGuessError."""
    form.require_normalized()
    theta, weights = composite_gauss_legendre([0.0, *merit.quad_points(), math.pi], 24)
    y = merit.score(theta) * guessing_density(form, theta) * np.sin(theta)
    average = TWO_PI * float(np.sum(y * weights))
    if not math.isfinite(average):
        raise QGuessError(f"average merit must be finite, got {average}")
    return average


def expected_fidelity(strategy: EstimatorStrategy) -> float:
    """Analytic average fidelity of a strategy, (1 + E[cos t]) / 2: closed
    form when it carries a two-parameter form. A table's density is linear
    in c = cos t on each cell [c1, c0] between its nodes, with values g1 and
    g0 there, so its cell moments are exact: (c0 - c1)(g0 + g1) / 2 is the
    integral of g dc, and (c0 - c1)(c0 (2 g0 + g1) + c1 (g0 + 2 g1)) / 6 that
    of c g dc. E[cos t] is the ratio of their sums, so it is normalized as
    the table's sampler is."""
    if isinstance(strategy, ABFormStrategy):
        return average_fidelity_exact(strategy.form)
    c, g = strategy.cosines, strategy.values
    width = c[:-1] - c[1:]
    mass = width * (g[:-1] + g[1:])
    first = width * (c[:-1] * (2.0 * g[:-1] + g[1:]) + c[1:] * (g[:-1] + 2.0 * g[1:]))
    return 0.5 + float(np.sum(first)) / (6.0 * float(np.sum(mass)))


def reverse_outcomes(form: GuessingForm) -> GuessingForm:
    """Density after flipping every guess to its antipode: swaps A and B.

    Averages are conserved in the sense avg(form) + avg(reversed) integrates
    score(t) + score(pi - t); for fidelity that sum is 1.
    """
    return GuessingForm(form.B, form.A)


# ---------------------------------------------------------------------------
# optimization over the normalized family

@dataclass(frozen=True)
class ScanResult:
    """Merit values over the normalized family, parameterized by a_frac = 2pi A."""

    a_fractions: np.ndarray
    values: np.ndarray
    best_index: int
    tie: bool

    @property
    def best_form(self) -> GuessingForm:
        return GuessingForm.from_a_fraction(float(self.a_fractions[self.best_index]))

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])


def optimize_ab(merit: MeritFunction) -> ScanResult:
    """Maximize the average merit over normalized forms by scanning 1001
    equally spaced a_frac in [0, 1].

    The average is affine in a_frac, so the maximum must sit at an endpoint;
    the scan verifies the shape and an explicit endpoint check guards the
    affine assumption. A flat scan (constant merit) is reported as a tie
    rather than an arbitrary argmax.
    """
    a_fractions = np.linspace(0.0, 1.0, 1001)
    values = np.array([average_merit(GuessingForm.from_a_fraction(a), merit) for a in a_fractions])
    best = int(np.argmax(values))
    scale = max(1.0, float(np.max(np.abs(values))))
    tie = float(values.max() - values.min()) <= 1e-12 * scale
    if values[best] - max(values[0], values[-1]) > 1e-9 * scale:
        raise QGuessError("merit scan has an interior maximum; average is not affine in the density")
    return ScanResult(
        a_fractions=a_fractions,
        values=values,
        best_index=best,
        tie=tie,
    )


# ---------------------------------------------------------------------------
# Monte Carlo fidelity

@dataclass(frozen=True)
class MeritReport:
    """A Monte Carlo merit average: the sample mean, its standard error and
    the number of trials behind it."""

    value: float
    std_error: float
    trials: int


def monte_carlo_fidelity(
    strategy: EstimatorStrategy,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    workers: int = 1,
) -> MeritReport:
    """Sample mean of cos^2(t/2) over isotropic inputs, with standard error.

    Inputs are drawn uniformly and guesses from the strategy, in row blocks
    of streams.ROW_BLOCK rows (`streams.map_blocks`); each block yields its
    (sum s, sum s^2), and the block sums are added in worker-then-block
    order, so the value is bit-identical for a fixed (seed, workers)
    whatever the thread count.
    """
    streams.require_integer("trials", trials)
    if trials < 2:
        raise QGuessError(f"need at least 2 trials, got {trials}")

    def block_moments(rng, lo, hi):
        inputs = random_directions(rng, hi - lo)
        s = dots(inputs, strategy.sample_batch(inputs, rng))
        s += 1.0
        s /= 2.0
        total = float(np.sum(s))
        s *= s
        return total, float(np.sum(s))

    [blocks] = streams.map_blocks([(block_moments, 0, streams.ROW_BLOCK)], seed, trials, workers)
    total = 0.0
    total_sq = 0.0
    for block_sum, block_sum_sq in blocks:
        total += block_sum
        total_sq += block_sum_sq
    mean = total / trials
    variance = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return MeritReport(value=mean, std_error=math.sqrt(variance / trials), trials=trials)
