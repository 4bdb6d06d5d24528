"""Wall time of qguess's kernels and drivers, layer by layer.

Run from anywhere, against the checkout this file sits in:

    python benchmarks/layers.py --label change --out BENCH_25.json

Each kernel is timed on 2^19 rows, handed to it one block of 2^14 rows at
a time as the drivers do, and each driver at the benchmark's sizes with
workers 1 and 2. The `cos_sin` arm is the (cos, sin) pair of an azimuth
column of half-turns as the direction kernels take it (`bloch._cos_sin`),
and the `inverse_cdf.cos4` arm the cos t of a column of polar uniforms as
cos4's `sample_batch` draws it (`TabulatedStrategy.polar_cos`).
The discrimination's block function, from `nosignal._cap_hits`, is timed
on 2^19 rows per strategy (MP, AB with a_frac = 0.5, cos4) and arm, set-up
included, through `streams.map_blocks` with one worker, in blocks of the
rows `_cap_hits` gives with it (2^20 on the angle path, so one block,
and 2^14 for MP). The arms are the standard and symmetric decompositions
at the benchmark's weight and cap, and the generic arm, the symmetric pair
turned 1 rad about z. The `nosignal` module docstring describes the angle
path. The
`cap_setup` arms time `_cap_hits` alone for the same strategies and arms:
the set-up each discrimination call makes per arm in one pass, with one
`polar_uniform` and one `polar_cos` call for the u windows, the word
classes in word indices, and the azimuth table, which calls `polar_cos`
once more only where a member off the poles has a window.

Before anything is timed, the library's own allocator step runs
(`streams._prime_heap`, which `streams.map_blocks` runs once per
process): glibc then raises its mmap threshold above the 128 KiB
temporaries of a 2^14-row block, which are otherwise mapped and faulted in
anew on every call.

Every timed call runs once untimed, then the 11 repeats go round-robin:
each round times every call once, in a fixed order. So a noisy stretch of a
shared host lands on one round of every call rather than on all repeats of
a few. A time is the best and the median of the repeats, and `ratio` is the
median, over the rounds, of the call's time over that of the reference
call in the same round, `np.cos` of 2^19 doubles, which no qguess change
touches. A ratio of one round compares two calls timed seconds apart, so a
slow stretch of the host that lasts a round moves both; the best times of
two calls, taken in different rounds, need not share one.

The kernels are also run once on one block under tracemalloc for their peak
allocation; for `sample_batch` that run draws its input directions too, as
a driver's block does. Each driver is run once more under tracemalloc on
2^19 trials at one worker for the peak of a worker in flight; the
discrimination experiment runs one worker per arm, and both arms may be in
flight at once. The results are stored under
`runs[<label>]` of the `--out` file, next to the runs already there, with
the machine facts (cores, numpy and Python versions), so running this
script in two checkouts with the same `--out` gives one comparable file.
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

from qguess import bloch, ensembles, estimator, merit, nosignal, streams  # noqa: E402

ROWS = 1 << 19
# rows the drivers hand a kernel at once (streams.ROW_BLOCK)
BLOCK = 1 << 14
DRIVER_TRIALS = 1 << 21
REPEATS = 11
SIGNAL_P = 0.9
SIGNAL_CAP = 0.2
REFERENCE = "reference.np_cos"
REFERENCE_INPUT = np.linspace(0.0, math.pi, ROWS)


def round_robin(calls: dict) -> dict:
    """{name: {best_s, median_s, ratio}} of each zero-argument call, timed
    once in each of REPEATS rounds after one untimed call; ratio is the
    median over the rounds of its time over the REFERENCE call's."""
    calls = {REFERENCE: lambda: np.cos(REFERENCE_INPUT), **calls}
    for fn in calls.values():
        fn()
    seconds = {name: [] for name in calls}
    for _ in range(REPEATS):
        for name, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            seconds[name].append(time.perf_counter() - t0)
    reference = seconds[REFERENCE]
    return {name: {"best_s": min(ts), "median_s": statistics.median(ts),
                   "ratio": statistics.median(t / ref for t, ref in zip(ts, reference))}
            for name, ts in seconds.items()}


def peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def kernels() -> tuple[dict, dict]:
    """({name: timed call}, {name: peak MB of one block})."""
    mp = estimator.MassarPopescuStrategy()
    ab = estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5))
    cos4 = nosignal.cos4_strategy()
    rng = streams.substream(1)
    axes = bloch.random_directions(rng, ROWS)
    other = bloch.random_directions(rng, ROWS)
    cos_t = rng.uniform(-1.0, 1.0, size=ROWS)
    h = rng.uniform(-1.0, 1.0, size=ROWS)
    u = rng.random(ROWS)

    # name: kernel call on the rows `r` of the ROWS
    calls = {
        "random_directions": lambda r: bloch.random_directions(rng, r.stop - r.start),
        # one azimuth column of half-turns
        "cos_sin": lambda r: bloch._cos_sin(h[r]),
        "orthonormal_frames": lambda r: bloch.orthonormal_frames(axes[r]),
        "dots": lambda r: bloch.dots(axes[r], other[r]),
        "directions_at_angle": lambda r: bloch.directions_at_angle(axes[r], cos_t[r], h[r]),
        "inverse_cdf.cos4": lambda r: cos4.polar_cos(u[r]),
        "sample_batch.mp": lambda r: mp.sample_batch(axes[r], rng),
        "sample_batch.ab": lambda r: ab.sample_batch(axes[r], rng),
        "sample_batch.cos4": lambda r: cos4.sample_batch(axes[r], rng),
    }
    blocks = [slice(lo, lo + BLOCK) for lo in range(0, ROWS, BLOCK)]

    def one_block(name):
        if name.startswith("sample_batch."):
            # the peak includes drawing the block's inputs
            strategy = {"mp": mp, "ab": ab, "cos4": cos4}[name.split(".")[1]]
            return lambda: strategy.sample_batch(bloch.random_directions(rng, BLOCK), rng)
        return lambda: calls[name](blocks[0])

    return ({name: lambda call=call: [call(r) for r in blocks] for name, call in calls.items()},
            {name: peak_mb(one_block(name)) for name in calls})


def turned_about_z(decomposition, angle: float):
    """The decomposition with every member rotated by `angle` about z: the
    same mixture when its Bloch vector lies on z."""
    c, s = math.cos(angle), math.sin(angle)
    return bloch.EnsembleDecomposition(tuple(
        (w, bloch.BlochVector.normalized(c * d.x - s * d.y, s * d.x + c * d.y, d.z))
        for w, d in decomposition.members))


def cap_arms() -> list:
    """(name, strategy, decomposition) of each strategy and arm of the cap counts."""
    arms = {
        "standard": ensembles.standard_decomposition(SIGNAL_P),
        "symmetric": ensembles.symmetric_decomposition(SIGNAL_P),
        "generic": turned_about_z(ensembles.symmetric_decomposition(SIGNAL_P), 1.0),
    }
    strategies = {
        "mp": estimator.MassarPopescuStrategy(),
        "ab": estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5)),
        "cos4": nosignal.cos4_strategy(),
    }
    return [(f"{tag}.{arm}", strategy, decomposition)
            for tag, strategy in strategies.items() for arm, decomposition in arms.items()]


def cap_hits() -> dict:
    cap_cos = math.cos(SIGNAL_CAP)

    def count(strategy, decomposition):
        block_hits, rows = nosignal._cap_hits(strategy, decomposition, cap_cos)
        [hits] = streams.map_blocks([(block_hits, 0, rows)], 1, ROWS, 1)
        return sum(hits)

    return {f"cap_hits.{name}": lambda s=strategy, d=decomposition: count(s, d)
            for name, strategy, decomposition in cap_arms()}


def cap_setup() -> dict:
    """The set-up of each `_cap_hits` arm alone, which every discrimination
    call makes once per arm: on the angle path, the merged members, the u
    windows (one `polar_uniform` and one `polar_cos` call), the word classes
    and the azimuth step's table (one more `polar_cos` call for the tilted
    and generic arms)."""
    cap_cos = math.cos(SIGNAL_CAP)
    return {f"cap_setup.{name}": lambda s=strategy, d=decomposition: nosignal._cap_hits(s, d, cap_cos)
            for name, strategy, decomposition in cap_arms()}


def drivers() -> dict:
    mp = estimator.MassarPopescuStrategy()
    ab = estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5))
    cos4 = nosignal.cos4_strategy()
    signal_trials = nosignal.required_trials(nosignal.cos4_density, SIGNAL_P, SIGNAL_CAP)
    out = {}
    for workers in (1, 2):
        for tag, strategy in (("mp", mp), ("ab", ab)):
            out[f"monte_carlo_fidelity.{tag}.workers{workers}"] = lambda s=strategy, w=workers: (
                merit.monte_carlo_fidelity(s, trials=DRIVER_TRIALS, seed=1, workers=w))
            out[f"collect_histogram.{tag}.workers{workers}"] = lambda s=strategy, w=workers: (
                estimator.collect_histogram(s, trials=DRIVER_TRIALS, seed=1, workers=w))
        out[f"run_discrimination_experiment.cos4.workers{workers}"] = lambda w=workers: (
            nosignal.run_discrimination_experiment(
                cos4, SIGNAL_P, cap_half_angle=SIGNAL_CAP, trials=signal_trials, seed=1, workers=w))
    return out


def batch_peaks() -> dict:
    mp = estimator.MassarPopescuStrategy()
    ab = estimator.ABFormStrategy(estimator.GuessingForm.from_a_fraction(0.5))
    cos4 = nosignal.cos4_strategy()
    trials = ROWS
    out = {}
    for tag, strategy in (("mp", mp), ("ab", ab)):
        out[f"monte_carlo_fidelity.{tag}"] = peak_mb(
            lambda: merit.monte_carlo_fidelity(strategy, trials=trials, seed=1))
        out[f"collect_histogram.{tag}"] = peak_mb(
            lambda: estimator.collect_histogram(strategy, trials=trials, seed=1))
    out["run_discrimination_experiment.cos4"] = peak_mb(
        lambda: nosignal.run_discrimination_experiment(cos4, SIGNAL_P, cap_half_angle=SIGNAL_CAP, trials=trials, seed=1))
    return {name: {"peak_mb": mb} for name, mb in out.items()}


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
    streams._prime_heap()  # see the module docstring
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("rows", ROWS)
    record.setdefault("driver_trials", DRIVER_TRIALS)
    record.setdefault("repeats", REPEATS)
    kernel_calls, kernel_peaks = kernels()
    layers = {"kernels": kernel_calls, "cap_hits": cap_hits(), "cap_setup": cap_setup(), "drivers": drivers()}
    times = round_robin({name: fn for calls in layers.values() for name, fn in calls.items()})
    run = {"machine": machine(), "reference": times[REFERENCE]}
    for layer, calls in layers.items():
        run[layer] = {name: times[name] for name in calls}
    for name, mb in kernel_peaks.items():
        run["kernels"][name]["peak_mb"] = mb
    run["batch_peaks"] = batch_peaks()
    record.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, t in [(REFERENCE, run["reference"])] + [
            item for layer in layers for item in run[layer].items()]:
        peak = f"  peak {t['peak_mb']:.1f} MB" if "peak_mb" in t else ""
        print(f"{name:48s} best {t['best_s'] * 1e3:8.1f} ms  median {t['median_s'] * 1e3:8.1f} ms"
              f"  ratio {t['ratio']:6.2f}{peak}")
    for name, t in run["batch_peaks"].items():
        print(f"{'batch ' + name:48s} peak {t['peak_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
