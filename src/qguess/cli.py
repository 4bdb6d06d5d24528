"""Reproducible command-line front end for the estimation experiments.

Every subcommand is a pure function of its flags: seeds expand into
counter-based substreams keyed on (seed, worker), and all numbers are
written in shortest round-trip decimal form, so rerunning a command with
identical flags (including --workers) reproduces the report byte for byte.

Reports go to stdout or --out. JSON for scalar summaries (fidelity,
nosignal, fit), CSV for per-bin and per-grid-point tables (density, scan);
CSV run metadata rides in trailing `# key=value` comment lines. Every report
ends with its provenance: the package version and the stream contract
(`streams.STREAM_CONTRACT`) it was made under.

Exit codes: 0 success, 2 usage error, 3 runtime failure (invalid physics
inputs, unfittable histograms).
"""

from __future__ import annotations

import functools
import json
import math

import click
import numpy as np

from . import __version__
from .errors import QGuessError
from .estimator import (
    ABFormStrategy,
    DEFAULT_BINS,
    DEFAULT_TRIALS,
    GuessingForm,
    MassarPopescuStrategy,
    chi2_threshold_999,
    collect_histogram,
    histogram_chi2,
    histogram_csv,
)
from .merit import expected_fidelity, monte_carlo_fidelity, named_merit, optimize_ab
from .nosignal import (
    DEFAULT_CAP_HALF_ANGLE,
    DEFAULT_DIRECTIONS,
    DEFAULT_P_GRID,
    constraint_residual_grid,
    cos4_strategy,
    fit_ab_least_squares,
    run_discrimination_experiment,
)
from .streams import MAX_SEED, STREAM_CONTRACT

STRATEGY_CHOICES = ("massar-popescu", "ab", "cos4")
MERIT_CHOICES = ("fidelity", "cos4", "constant")


class RuntimeFailure(click.ClickException):
    exit_code = 3


class FiniteFloatRange(click.FloatRange):
    """click.FloatRange that rejects nan too, which fails no range comparison."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


def guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except QGuessError as exc:
            raise RuntimeFailure(str(exc)) from exc

    return wrapper


def build_strategy(name: str, a_frac: float):
    if name == "massar-popescu":
        return MassarPopescuStrategy()
    if name == "ab":
        return ABFormStrategy(GuessingForm.from_a_fraction(a_frac))
    return cos4_strategy()


def emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def strategy_options(f):
    f = click.option(
        "--A-frac",
        "a_frac",
        type=FiniteFloatRange(0.0, 1.0),
        default=1.0,
        show_default=True,
        help="With --strategy ab: A = A-frac/2pi and B = (1 - A-frac)/2pi.",
    )(f)
    f = click.option(
        "--strategy",
        type=click.Choice(STRATEGY_CHOICES),
        default="massar-popescu",
        show_default=True,
        help="Estimator to run.",
    )(f)
    return f


def run_options(f):
    f = click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Substream count; substreams run on up to one thread per usable "
                          "core, and output is fixed for a fixed value.")(f)
    f = click.option("--seed", type=click.IntRange(0, MAX_SEED), default=0, show_default=True,
                     help="Master seed for all substreams.")(f)
    f = click.option("--trials", type=click.IntRange(min=2), default=DEFAULT_TRIALS,
                     show_default=True, help="Monte Carlo sample count.")(f)
    return f


out_option = click.option("--out", type=click.Path(dir_okay=False), default=None,
                          help="Write the report to this file instead of stdout.")
bins_option = click.option("--bins", type=click.IntRange(min=2), default=DEFAULT_BINS,
                           show_default=True, help="Equal-width angle bins over [0, pi].")


def _strategy_fields(payload: dict, strategy: str, a_frac: float) -> dict:
    payload["strategy"] = strategy
    if strategy == "ab":
        payload["a_frac"] = a_frac
    return payload


def _provenance() -> dict:
    return {"qguess_version": __version__, "stream_contract": STREAM_CONTRACT}


def _json(payload: dict) -> str:
    """Strict JSON with the provenance fields last: a NaN or infinity raises
    instead of printing `NaN`/`Infinity`."""
    return json.dumps({**payload, **_provenance()}, indent=2, allow_nan=False) + "\n"


def _csv_metadata(lines: list[str]) -> str:
    """The trailing `# key=value` lines, provenance last."""
    return "\n".join(lines + [f"# {key}={value}" for key, value in _provenance().items()]) + "\n"


def _pull(estimate: float, true: float, se: float) -> float | None:
    """(estimate - true) / se, or None (JSON null) unless se is positive: a
    fit with a zero standard error has no pull."""
    return (estimate - true) / se if se > 0.0 else None


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Single-qubit estimation experiments: fidelity, outcome densities,
    decomposition discrimination, form fits, and merit scans."""


@main.command()
@strategy_options
@run_options
@out_option
@guarded
def fidelity(strategy, a_frac, trials, seed, workers, out):
    """Monte Carlo average fidelity over isotropic inputs."""
    est = build_strategy(strategy, a_frac)
    report = monte_carlo_fidelity(est, trials=trials, seed=seed, workers=workers)
    payload = _strategy_fields({"command": "fidelity"}, strategy, a_frac)
    payload.update(
        {
            "trials": trials,
            "seed": seed,
            "workers": workers,
            "mean": report.value,
            "std_error": report.std_error,
            "analytic": expected_fidelity(est),
        }
    )
    emit(_json(payload), out)


@main.command()
@strategy_options
@run_options
@bins_option
@out_option
@guarded
def density(strategy, a_frac, trials, seed, workers, bins, out):
    """Empirical vs analytic outcome-angle density, with a chi-square summary."""
    est = build_strategy(strategy, a_frac)
    hist = collect_histogram(est, trials=trials, bins=bins, seed=seed, workers=workers)
    probs = est.bin_probabilities(hist.theta_edges)
    chi2_val, dof = histogram_chi2(hist, probs)
    text = histogram_csv(hist, probs / hist.solid_angles)
    lines = [f"# strategy={strategy}"]
    if strategy == "ab":
        lines.append(f"# a_frac={a_frac!r}")
    lines += [
        f"# trials={trials}",
        f"# bins={bins}",
        f"# seed={seed}",
        f"# workers={workers}",
        f"# chi2={chi2_val!r}",
        f"# dof={dof}",
        f"# chi2_threshold_999={chi2_threshold_999(dof)!r}",
    ]
    emit(text + _csv_metadata(lines), out)


@main.command()
@strategy_options
@run_options
@click.option("--p", "p_values", type=FiniteFloatRange(0.0, 1.0), multiple=True,
              default=DEFAULT_P_GRID, show_default=True,
              help="Mixing weights to test; repeat the flag for several.")
@click.option("--cap", type=FiniteFloatRange(0.0, math.pi, min_open=True),
              default=DEFAULT_CAP_HALF_ANGLE, show_default=True,
              help="Counting-cap half-angle about +z, radians.")
@out_option
@guarded
def nosignal(strategy, a_frac, trials, seed, workers, p_values, cap, out):
    """Try to tell two preparations of one mixture apart from cap counts."""
    est = build_strategy(strategy, a_frac)
    p_list = list(p_values)
    residuals = constraint_residual_grid(est.density, p_list)
    stacked = np.concatenate([r.residuals for r in residuals])
    reports = [
        run_discrimination_experiment(
            est, p_i, cap_half_angle=cap, trials=trials, seed=seed, workers=workers, stream_block=i
        ).as_dict()
        for i, p_i in enumerate(p_list)
    ]
    verdicts = {r["verdict"] for r in reports}
    if "detectable" in verdicts:
        overall = "detectable"
    elif "indeterminate" in verdicts:
        overall = "indeterminate"
    else:
        overall = "not detectable"
    payload = _strategy_fields({"command": "nosignal"}, strategy, a_frac)
    payload.update(
        {
            "cap_half_angle": cap,
            "trials": trials,
            "seed": seed,
            "workers": workers,
            "constraint": {
                "directions": DEFAULT_DIRECTIONS,
                "p_values": p_list,
                "max_residual": float(np.max(stacked)),
                "rms_residual": float(np.sqrt(np.mean(stacked**2))),
            },
            "reports": reports,
            "overall_verdict": overall,
        }
    )
    emit(_json(payload), out)


@main.command()
@strategy_options
@run_options
@bins_option
@out_option
@guarded
def fit(strategy, a_frac, trials, seed, workers, bins, out):
    """Sample a strategy, bin the angles, and fit the two-parameter form."""
    est = build_strategy(strategy, a_frac)
    hist = collect_histogram(est, trials=trials, bins=bins, seed=seed, workers=workers)
    result = fit_ab_least_squares(hist)
    payload = _strategy_fields({"command": "fit"}, strategy, a_frac)
    payload.update(
        {"trials": trials, "bins": bins, "seed": seed, "workers": workers, "fit": result.as_dict()}
    )
    if isinstance(est, ABFormStrategy):
        form = est.form
        payload["true"] = {"A": form.A, "B": form.B}
        payload["pull_A"] = _pull(result.A, form.A, result.se_A)
        payload["pull_B"] = _pull(result.B, form.B, result.se_B)
    emit(_json(payload), out)


@main.command()
@click.option("--merit", type=click.Choice(MERIT_CHOICES), default="fidelity",
              show_default=True, help="Merit function to scan.")
@out_option
@guarded
def scan(merit, out):
    """Scan the average merit over the normalized two-parameter family."""
    result = optimize_ab(named_merit(merit))
    lines = ["a_frac,A,B,value,best"]
    for i, (a, v) in enumerate(zip(result.a_fractions, result.values)):
        form = GuessingForm.from_a_fraction(float(a))
        best = 1 if (i == result.best_index and not result.tie) else 0
        lines.append(f"{float(a)!r},{form.A!r},{form.B!r},{float(v)!r},{best}")
    lines.append(f"# merit={merit}")
    lines.append(f"# grid_points={len(result.a_fractions)}")
    lines.append(f"# tie={'true' if result.tie else 'false'}")
    if not result.tie:
        lines.append(f"# best_a_frac={float(result.a_fractions[result.best_index])!r}")
        lines.append(f"# best_value={result.best_value!r}")
    emit(_csv_metadata(lines), out)


if __name__ == "__main__":
    main()
