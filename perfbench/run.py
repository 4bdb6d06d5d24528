#!/usr/bin/env python3
"""Benchmark of qguess, run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md):
    cli-cold       cold `python -m qguess.cli` invocations of a fixed command list
    mc-admissible  monte_carlo_fidelity and collect_histogram + fit, MP and a_frac 0.5
    signal-detect  run_discrimination_experiment on cos4 at the criterion-5 trials

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json;
with --trace 1 it makes an untraced pass and a traced pass over the same
operations and seeds, and reports the per-layer metrics. Every operation's
output is checked. The last line of stdout is one JSON object; the full
record, with provenance, goes to perfbench/out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up samples per run, half before the timed phase and half after it:
# the machine's speed drifts by up to a third over tens of seconds, and
# samples taken together share one stretch of it
SETUP_REPEATS = 4
PROBE_TIMEOUT_S = 60
# rows per sample_batch call in the draw-count probe; two sizes must agree
DRAW_PROBE_ROWS = (1000, 4097)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def provenance(load_start) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "git_commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def timed_probe(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(argv, -1, "", f"no exit in {PROBE_TIMEOUT_S} s")
    return time.perf_counter() - t0, proc


def setup_samples(name: str, env: dict, errors: list, count: int) -> list[float]:
    """Wall time of fresh interpreters doing the workload's set-up."""
    samples = []
    for _ in range(count):
        seconds, proc = timed_probe([sys.executable, str(HERE / "child.py"), "setup", name], env)
        samples.append(seconds)
        if proc.returncode != 0:
            errors.append(f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}")
    return samples


def import_probes(env: dict, errors: list) -> dict:
    """Cold `import qguess.cli` time, and the scipy share from -X importtime."""
    code = "import time; t = time.perf_counter(); import qguess.cli; print(time.perf_counter() - t)"
    _, plain = timed_probe([sys.executable, "-c", code], env)
    _, traced = timed_probe([sys.executable, "-X", "importtime", "-c", "import qguess.cli"], env)
    if plain.returncode or traced.returncode:
        errors.append("import probe failed: " + (plain.stderr or traced.stderr)[-300:])
        return {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0}
    return {
        "cli.import_s": float(plain.stdout),
        "cli.import_scipy_s": tracing.scipy_import_seconds(traced.stderr),
    }


def draw_counts(seed: int, errors: list) -> dict:
    """Uniforms per trial of each strategy's sample_batch, from the Philox
    state of a substream the benchmark owns, read before and after the call."""
    from qguess import bloch, streams

    tags = ("mp", "ab", "cos4")
    strategies = dict(zip(tags, (s for _, s, _, _ in workloads.setup_mc_admissible())))
    strategies["cos4"] = workloads.setup_signal_detect()[0]
    base = workloads.seed_base(seed)
    out = {}
    for block, tag in enumerate(tags):
        per_trial = set()
        for rows in DRAW_PROBE_ROWS:
            inputs = bloch.random_directions(streams.substream(base, 1, block), rows)
            rng = streams.substream(base, 0, block)
            before = rng.bit_generator.state
            strategies[tag].sample_batch(inputs, rng)
            per_trial.add(tracing.words_drawn(before, rng.bit_generator.state) / rows)
        count = per_trial.pop()
        if per_trial or count != int(count):
            errors.append(f"uniforms per trial of {tag} do not repeat: {sorted(per_trial | {count})}")
        out[f"streams.uniforms_per_trial.{tag}"] = int(count)
    return out


WORKLOADS = {cls.name: cls for cls in (workloads.CliCold, workloads.McAdmissible, workloads.SignalDetect)}


def check_checkout() -> str | None:
    if not (SRC / "qguess" / "__init__.py").is_file():
        return f"no qguess sources under {SRC}; run from the root of a qguess checkout"
    sys.path.insert(0, str(SRC))
    import qguess

    if SRC.resolve() not in Path(qguess.__file__).resolve().parents:
        return f"qguess resolves to {qguess.__file__}, not to this checkout"
    return None


# ---------------------------------------------------------------------------

def timing_metrics(ops, wall: float) -> dict:
    seconds = [op.seconds for op in ops]
    pct, tail_value, n = stats.tail(seconds)
    return {
        "op_s.p50": statistics.median(seconds),
        "op_s.tail": tail_value,
        "op_s.tail_percentile": pct,
        "op_s.samples": n,
        "trials_per_s": sum(op.trials for op in ops) / wall,
    }


def run_untraced(args, env, errors) -> tuple[dict, list, dict]:
    setup = setup_samples(args.workload, env, errors, SETUP_REPEATS // 2)
    wl = WORKLOADS[args.workload](args.seed, env)
    # untimed rounds first, so that first-call costs stay out of the timings;
    # their outputs are checked like any other
    warm, _, _ = workloads.run_rounds(wl.round_ops(), min_rounds=wl.warmup_rounds)
    ops, wall, rounds = workloads.run_rounds(wl.round_ops(), args.seconds, wl.min_rounds,
                                             first=wl.warmup_rounds)
    setup += setup_samples(args.workload, env, errors, SETUP_REPEATS - SETUP_REPEATS // 2)
    # cli-cold's work runs in children; the largest one counts
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        **timing_metrics(ops, wall),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"probes": SETUP_REPEATS, "setup_samples": setup, "warmup_ops": len(warm), "rounds": rounds,
             "timed_wall_s": wall, **wl.summary(ops)}
    return metrics, warm + ops, extra


def run_traced(args, env, errors) -> tuple[dict, list, dict]:
    """A fixed number of rounds untraced, then the same rounds and seeds
    traced. The work is fixed, not timed, so per-layer totals and counts
    compare across commits."""
    wl = WORKLOADS[args.workload](args.seed, env)
    rounds = wl.trace_rounds
    tracer = tracing.Tracer()
    layers: dict = {}
    warm: list = []
    if args.workload == "cli-cold":
        untraced, wall_u, _ = workloads.run_rounds(wl.round_ops(), min_rounds=rounds)
        span_files = [OUT / f"cli-spans-{i}.json" for i in range(len(workloads.CLI_COMMANDS))]
        traced_ops = wl.round_ops(lambda i: [sys.executable, str(HERE / "child.py"), "cli", str(span_files[i])])
        traced, wall_t, _ = workloads.run_rounds(traced_ops, min_rounds=rounds)
        for path in span_files:
            if path.exists():
                dump = json.loads(path.read_text())
                offset = len(tracer.spans)
                for s in dump["spans"]:
                    s["parent"] = None if s["parent"] is None else s["parent"] + offset
                    tracer.spans.append(tracing.Span(**s))
                tracer.counts.update(dump["counts"])
                path.unlink()
        for op in untraced:
            layers[f"cli.cmd.{op.name}.s"] = op.seconds
    else:
        # warm-up on round numbers past the compared ones, so that
        # trace.overhead_ratio compares two warm passes
        warm, _, _ = workloads.run_rounds(wl.round_ops(), min_rounds=wl.warmup_rounds, first=rounds)
        untraced, wall_u, _ = workloads.run_rounds(wl.round_ops(), min_rounds=rounds)
        tracer.install()
        try:
            tracer.op = "setup"
            wl.setup()

            def with_id(i, op):
                def run(r):
                    tracer.op = f"{r}.{i}"
                    return op(r)
                return run

            ops = [with_id(i, op) for i, op in enumerate(wl.round_ops())]
            traced, wall_t, _ = workloads.run_rounds(ops, min_rounds=rounds)
        finally:
            tracer.uninstall()
    for u, t in zip(untraced, traced):
        if t.error is None and u.digest != t.digest:
            t.error = "traced output differs from the untraced output of the same operation"
    layers.update(tracing.aggregate(tracer.spans, tracer.counts))
    layers.update(import_probes(env, errors))
    layers.update(draw_counts(args.seed, errors))
    layers["trace.overhead_ratio"] = wall_t / wall_u
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
    # probes: the import pair and one draw count per strategy
    extra = {"probes": 1 + 3, "rounds": rounds, "untraced_wall_s": wall_u, "traced_wall_s": wall_t}
    return layers, warm + untraced + traced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.seed_base(args.seed)  # validates the seed before any work
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    env = child_env()
    errors: list[str] = []

    if args.trace:
        measured, ops, extra = run_traced(args, env, errors)
        wanted = spec["per_layer"]
    else:
        measured, ops, extra = run_untraced(args, env, errors)
        wanted = spec["end_to_end"]
    errors += [f"{op.name}: {op.error}" for op in ops if op.error]
    attempted = len(ops) + extra["probes"]
    failed = len(errors)

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": errors,
        "measured": measured,
        "operations": [{"name": op.name, "seconds": op.seconds, "trials": op.trials,
                        "sha256": op.digest, "error": op.error} for op in ops],
        **extra,
        "provenance": provenance(load_start),
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {out_file.relative_to(ROOT)}")
    label = WORKLOADS[args.workload].op_label
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(measured.items()):
        shown = name.replace("op_s", label, 1) if name.startswith("op_s") else name
        print(f"#   {shown} = {value!r} {units.get(name, '')}".rstrip())
    for key in ("call_s.p50", "z_gt_5_rate", "required_trials"):
        if key in extra:
            print(f"#   {key} = {extra[key]!r}")
    print(f"#   failed_ratio = {failed}/{attempted}")
    for err in errors[:10]:
        print(f"#   FAILED {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
