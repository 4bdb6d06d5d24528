"""The benchmark's tracer (perfbench/tracing.py) wraps qguess functions in the
namespaces their callers resolve them from, and `sample_batch` in the body of
each strategy class. A refactor that drops one of those names, or moves a
`sample_batch` into a base class, breaks only traced benchmark runs; these
tests catch it in the ordinary suite. Likewise `benchmarks/layers.py` calls
private helpers of the library, so its kernels and cap arms run here too,
and so do the first calls of the benchmark's signal-detect workload
(`perfbench/workloads.py`) with the checks the benchmark holds them to."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qguess import merit, nosignal
from qguess.estimator import ABFormStrategy, GuessingForm, MassarPopescuStrategy
from qguess.nosignal import cos4_strategy
from qguess.streams import ROW_BLOCK

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
LAYERS = ROOT / "benchmarks" / "layers.py"


def load(path: Path, name: str):
    """The script at `path`, imported as module `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load(TRACING, "perfbench_tracing")


def hook_points(tracing) -> dict:
    """Every attribute the tracer replaces, mapped to its current value."""
    owners = [(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.FUNCTIONS]
    owners.append((importlib.import_module("qguess.streams"), "worker_batches"))
    for mod, cls, _ in tracing.STRATEGIES:
        owners.append((getattr(importlib.import_module(mod), cls), "sample_batch"))
    return {(owner, attr): owner.__dict__[attr] for owner, attr in owners}


def test_tracer_install_patches_every_hook_and_uninstall_restores_it(tracing):
    before = hook_points(tracing)
    tracer = tracing.Tracer()
    tracer.install(with_cli=True)
    try:
        patched = hook_points(tracing)
    finally:
        tracer.uninstall()
    assert all(patched[key] is not before[key] for key in before)
    assert hook_points(tracing) == before


@pytest.mark.parametrize(
    "strategy, tag",
    [
        (MassarPopescuStrategy(), "mp"),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.5)), "ab"),
        (cos4_strategy(), "cos4"),
    ],
    ids=["mp", "ab", "cos4"],
)
def test_traced_fidelity_run_records_each_layer(tracing, strategy, tag):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        merit.monte_carlo_fidelity(strategy, trials=4, seed=1)
    finally:
        tracer.uninstall()
    agg = tracing.aggregate(tracer.spans, tracer.counts)
    assert agg["merit.monte_carlo_fidelity.calls"] == 1
    assert agg[f"estimator.sample_batch.{tag}.rows"] == 4
    assert agg["streams.worker_batches.batches"] == 1
    assert agg["bloch.random_directions.rows"] == (8 if tag == "mp" else 4)


@pytest.mark.parametrize(
    "strategy, tag",
    [
        (MassarPopescuStrategy(), "mp"),
        (ABFormStrategy(GuessingForm.from_a_fraction(0.5)), "ab"),
        (cos4_strategy(), "cos4"),
    ],
    ids=["mp", "ab", "cos4"],
)
def test_traced_threaded_run_counts_exactly(tracing, strategy, tag):
    # two workers of one batch each: the batches run on two threads, and
    # the tracer's counts stay exact (its span parents and self times do not,
    # since it keeps one span stack for all threads)
    trials = 8 * ROW_BLOCK + 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        merit.monte_carlo_fidelity(strategy, trials=trials, seed=1, workers=2)
    finally:
        tracer.uninstall()
    agg = tracing.aggregate(tracer.spans, tracer.counts)
    assert agg["merit.monte_carlo_fidelity.calls"] == 1
    assert agg["streams.worker_batches.batches"] == 2
    assert agg["streams.substream.calls"] == 2
    assert agg[f"estimator.sample_batch.{tag}.rows"] == trials
    # sample_batch runs once per row block: each worker's 4 * ROW_BLOCK + 2
    # or + 1 rows are 4 full blocks and a ragged one
    assert agg[f"estimator.sample_batch.{tag}.calls"] == 2 * 5
    assert agg["bloch.random_directions.rows"] == (2 * trials if tag == "mp" else trials)


def test_traced_discrimination_builds_frames_once_per_arm(tracing):
    # one batch of several row blocks per arm: the members' frames are built
    # once per arm, on its two members, not per row block, and the
    # cos4 guesses are counted by their z coordinate alone, so neither
    # sample_batch nor directions_at_angle runs
    strategy = cos4_strategy()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        nosignal.run_discrimination_experiment(strategy, 0.9, trials=4 * nosignal.CAP_ROW_BLOCK + 3, seed=1)
    finally:
        tracer.uninstall()
    agg = tracing.aggregate(tracer.spans, tracer.counts)
    assert agg["nosignal.run_discrimination_experiment.calls"] == 1
    assert agg["bloch.orthonormal_frames.calls"] == 2
    assert agg["bloch.orthonormal_frames.rows"] == 4
    assert agg["streams.worker_batches.batches"] == 2
    assert agg["streams.substream.calls"] == 2
    assert not [key for key in agg if key.startswith(("estimator.sample_batch.", "bloch.directions_at_angle."))]


def test_signal_detect_workload_passes_its_checks():
    # the benchmark's own check of its first 512 signal-detect calls: the
    # report's fields, each arm's cap frequency within 6 SE of the
    # quadrature oracle, and z >= 4. A fault that shows on a few seeds in a
    # hundred fails it
    detect = load(WORKLOADS, "perfbench_workloads").SignalDetect(0, {})
    errors = {r: op.error for r in range(512) if (op := detect.discriminate(r)).error is not None}
    assert errors == {}


def test_layers_script_runs_its_kernels_cap_set_up_and_a_cos4_cap_count():
    # every private name the script reads off a qguess module resolves,
    # every kernel runs on one block, each `cap_setup` arm builds its arm
    # once, and one cos4 `cap_hits` arm counts
    layers = load(LAYERS, "benchmarks_layers")
    private = {(node.value.id, node.attr) for node in ast.walk(ast.parse(LAYERS.read_text()))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("bloch", "estimator", "nosignal", "streams") and node.attr.startswith("_")}
    assert {("nosignal", "_cap_hits"), ("streams", "_prime_heap")} <= private
    assert all(hasattr(getattr(layers, module), name) for module, name in private)
    assert "inverse_cdf.cos4" in layers.kernels()[1]
    setups = layers.cap_setup()
    assert len(setups) == 9
    for build in setups.values():
        build()
    assert layers.cap_hits()["cap_hits.cos4.symmetric"]() > 0


def test_layers_script_times_the_cos4_cap_frequencies():
    # the `cap_frequencies` arms run, and their trial count is the
    # signal-detect workload's
    calls, peaks = load(LAYERS, "benchmarks_layers").cap_frequencies()
    assert sorted(calls) == sorted(peaks) == ["expected_cap_frequencies.cos4", "required_trials.cos4"]
    assert calls["required_trials.cos4"]() == 568_954
    assert all(mb > 0.0 for mb in peaks.values())
