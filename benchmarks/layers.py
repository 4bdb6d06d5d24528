"""Wall time of qguess's kernels and drivers, layer by layer.

Run from anywhere, against the checkout this file sits in:

    python benchmarks/layers.py --label change --out BENCH_5.json

Each kernel is timed on one full batch of 2^19 rows, each driver at the
benchmark's sizes with workers 1 and 2; a time is the best and the median of
11 repeats after one untimed call. The kernels are also run once under
tracemalloc for their peak allocation; for `sample_batch` that run draws
its input directions too, as a driver's batch does. The results are
stored under `runs[<label>]` of the `--out` file, next to the runs already
there, with the machine facts (cores, numpy and Python versions), so running
this script in two checkouts with the same `--out` gives one comparable file.
It is not a test module: the test suite never collects it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qguess import bloch, estimator, merit, nosignal, streams  # noqa: E402

ROWS = 1 << 19
DRIVER_TRIALS = 1 << 21
REPEATS = 11
SIGNAL_P = 0.9
SIGNAL_CAP = 0.2


def timed(fn) -> dict:
    fn()
    seconds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return {"best_s": min(seconds), "median_s": statistics.median(seconds)}


def peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def kernels() -> dict:
    mp = estimator.MassarPopescuStrategy()
    ab = estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5))
    cos4 = nosignal.cos4_strategy()
    rng = streams.substream(1)
    axes = bloch.random_directions(rng, ROWS)
    cos_t = rng.uniform(-1.0, 1.0, size=ROWS)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=ROWS)
    u = rng.random(ROWS)

    def sample(strategy):
        return lambda: strategy.sample_batch(axes, streams.substream(3))

    def sample_from_scratch(strategy):
        return lambda: strategy.sample_batch(bloch.random_directions(streams.substream(2), ROWS),
                                             streams.substream(3))

    # name: (timed call, call whose peak allocation is reported)
    cases = {
        "random_directions": (lambda: bloch.random_directions(streams.substream(2), ROWS),) * 2,
        "orthonormal_frames": (lambda: bloch.orthonormal_frames(axes),) * 2,
        "directions_at_angle": (lambda: bloch.directions_at_angle(axes, cos_t, phi),) * 2,
        "inverse_cdf.cos4": (lambda: cos4.inverse_cdf(u),) * 2,
        # timed on fixed inputs; the peak includes drawing the inputs
        "sample_batch.mp": (sample(mp), sample_from_scratch(mp)),
        "sample_batch.ab": (sample(ab), sample_from_scratch(ab)),
        "sample_batch.cos4": (sample(cos4), sample_from_scratch(cos4)),
    }
    return {name: {**timed(fn), "peak_mb": peak_mb(whole)} for name, (fn, whole) in cases.items()}


def drivers() -> dict:
    mp = estimator.MassarPopescuStrategy()
    ab = estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5))
    cos4 = nosignal.cos4_strategy()
    signal_trials = nosignal.required_trials(nosignal.cos4_density, SIGNAL_P, SIGNAL_CAP)
    out = {}
    for workers in (1, 2):
        for tag, strategy in (("mp", mp), ("ab", ab)):
            out[f"monte_carlo_fidelity.{tag}.workers{workers}"] = timed(
                lambda: merit.monte_carlo_fidelity(strategy, trials=DRIVER_TRIALS, seed=1, workers=workers))
            out[f"collect_histogram.{tag}.workers{workers}"] = timed(
                lambda: estimator.collect_histogram(strategy, trials=DRIVER_TRIALS, seed=1, workers=workers))
        out[f"run_discrimination_experiment.cos4.workers{workers}"] = timed(
            lambda: nosignal.run_discrimination_experiment(
                cos4, SIGNAL_P, cap_half_angle=SIGNAL_CAP, trials=signal_trials, seed=1, workers=workers))
    return out


def machine() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cores": cores,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="Key of this run in the output file.")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the run to.")
    args = parser.parse_args(argv)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("rows", ROWS)
    record.setdefault("driver_trials", DRIVER_TRIALS)
    record.setdefault("repeats", REPEATS)
    run = {"machine": machine(), "kernels": kernels(), "drivers": drivers()}
    record.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for layer in ("kernels", "drivers"):
        for name, t in run[layer].items():
            peak = f"  peak {t['peak_mb']:.1f} MB" if "peak_mb" in t else ""
            print(f"{name:48s} best {t['best_s'] * 1e3:8.1f} ms  median {t['median_s'] * 1e3:8.1f} ms{peak}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
