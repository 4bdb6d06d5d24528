"""Substream determinism, trial splitting, and the threaded worker map."""

import concurrent.futures
import os
import sys
import threading

import numpy as np
import pytest

from qguess import streams
from qguess.errors import QGuessError
from qguess.estimator import MassarPopescuStrategy, collect_histogram
from qguess.merit import monte_carlo_fidelity
from qguess.nosignal import CAP_ROW_BLOCK, cos4_strategy, run_discrimination_experiment
from qguess.streams import (
    ROW_BLOCK,
    map_blocks,
    split_trials,
    substream,
    usable_cores,
    worker_batches,
)


def test_substream_is_reproducible():
    a = substream(123, worker=2, block=5).random(16)
    b = substream(123, worker=2, block=5).random(16)
    assert np.array_equal(a, b)


def test_substreams_differ_across_lattice_cells():
    base = substream(7).random(8)
    assert not np.array_equal(base, substream(8).random(8))
    assert not np.array_equal(base, substream(7, worker=1).random(8))
    assert not np.array_equal(base, substream(7, block=1).random(8))


def test_substream_validation():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(2**64)
    with pytest.raises(ValueError):
        substream(0, worker=-1)


# each integer argument of the streams, given through the outermost call
# that takes it; numpy would truncate a float seed to an integer one
NON_INTEGER_CALLS = {
    "seed": lambda bad: monte_carlo_fidelity(MassarPopescuStrategy(), trials=1000, seed=bad),
    "worker": lambda bad: substream(0, worker=bad),
    "block": lambda bad: substream(0, block=bad),
    "trials": lambda bad: monte_carlo_fidelity(MassarPopescuStrategy(), trials=bad),
    "workers": lambda bad: collect_histogram(MassarPopescuStrategy(), trials=1000, workers=bad),
    # numpy's histogram would raise its own TypeError for 2.5 or 3.0
    "bins": lambda bad: collect_histogram(MassarPopescuStrategy(), trials=1000, bins=bad),
    # twice the stream block is an integer block even for 1.5 or True
    "stream_block": lambda bad: run_discrimination_experiment(MassarPopescuStrategy(), 0.8, trials=100,
                                                              stream_block=bad),
}


@pytest.mark.parametrize("bad", [1.5, 2.5, 3.0, 1000.0, True, None, "5"])
@pytest.mark.parametrize("argument", sorted(NON_INTEGER_CALLS))
def test_stream_arguments_must_be_integers(argument, bad):
    # the drivers check that a trial count is an integer before its range,
    # which None and "5" cannot be compared with
    with pytest.raises(QGuessError):
        NON_INTEGER_CALLS[argument](bad)


def test_numpy_integers_are_stream_arguments():
    a = substream(np.uint64(123), worker=np.int64(2), block=np.int32(5)).random(4)
    assert np.array_equal(a, substream(123, worker=2, block=5).random(4))
    assert split_trials(np.int64(10), np.int8(3)) == [4, 3, 3]


def test_split_trials_even_with_low_remainder():
    assert split_trials(10, 3) == [4, 3, 3]
    assert split_trials(9, 3) == [3, 3, 3]
    assert split_trials(2, 4) == [1, 1, 0, 0]
    assert sum(split_trials(1_000_003, 7)) == 1_000_003
    with pytest.raises(ValueError):
        split_trials(0, 1)
    with pytest.raises(ValueError):
        split_trials(5, 0)


def test_worker_batches_yield_one_batch_per_worker_with_trials():
    # a worker's trials are one batch, drawn from its own substream; a
    # worker assigned no trials yields nothing
    for trials, workers, sizes in ((20, 3, [7, 7, 6]), (2, 4, [1, 1])):
        got = [(m, rng.random(3).tolist()) for rng, m in worker_batches(5, trials, workers, block=2)]
        assert got == [(m, substream(5, w, 2).random(3).tolist()) for w, m in enumerate(sizes)]


# ---------------------------------------------------------------------------
# map_blocks: threads change the schedule, never the result


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every thread pool map_blocks builds, starting from no
    pool kept."""
    monkeypatch.setattr(streams, "_POOLS", {})
    seen = []

    class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    return seen


def test_usable_cores_is_the_affinity_set():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    assert usable_cores() == len(os.sched_getaffinity(0))


def draw_block(arm):
    """Block function that returns its arm, its rows and the uniforms it draws."""
    return lambda rng, lo, hi: (arm, lo, hi, rng.random(hi - lo).tolist())


@pytest.mark.parametrize("workers, spans", [
    (2, [[(0, 4), (4, 8), (8, 12), (0, 4), (4, 8), (8, 11)],
         [(0, 5), (5, 10), (10, 12), (0, 5), (5, 10), (10, 11)]]),
    (3, [[(0, 4), (4, 8), (0, 4), (4, 8), (0, 4), (4, 7)],
         [(0, 5), (5, 8), (0, 5), (5, 8), (0, 5), (5, 7)]]),
])
def test_map_blocks_returns_each_arm_in_worker_then_block_order(workers, spans):
    # two arms of 4- and 5-row blocks over 23 trials, ragged last blocks
    # included: each arm's blocks and draws are those of a serial loop over
    # its workers' batches
    arms = [(draw_block(0), 3, 4), (draw_block(1), 8, 5)]
    got = map_blocks(arms, seed=5, trials=23, workers=workers)
    assert [[(lo, hi) for _, lo, hi, _ in blocks] for blocks in got] == spans
    want = []
    for arm, (_, block, rows) in enumerate(arms):
        want.append([])
        for rng, m in worker_batches(5, 23, workers, block):
            for lo in range(0, m, rows):
                hi = min(lo + rows, m)
                want[-1].append((arm, lo, hi, rng.random(hi - lo).tolist()))
    assert got == want


def test_map_blocks_raises_a_block_error():
    def fail_on_second_worker(rng, lo, hi):
        if hi == 3:
            raise RuntimeError("block failed")
        return hi

    with pytest.raises(RuntimeError, match="block failed"):
        map_blocks([(fail_on_second_worker, 0, 10)], seed=0, trials=7, workers=2)


# several row blocks per worker at 5 workers, so the block order inside a
# worker counts too: 4 of streams.ROW_BLOCK for the MP drivers, and 3 of
# CAP_ROW_BLOCK for the cap counts, each with a ragged one
DRIVER_TRIALS = 5 * 4 * ROW_BLOCK + 17
CAP_TRIALS = 5 * 3 * CAP_ROW_BLOCK + 17
DRIVERS = {
    "monte_carlo_fidelity": lambda workers: monte_carlo_fidelity(
        MassarPopescuStrategy(), trials=DRIVER_TRIALS, seed=3, workers=workers),
    "collect_histogram": lambda workers: collect_histogram(
        MassarPopescuStrategy(), trials=DRIVER_TRIALS, seed=3, workers=workers).counts.tobytes(),
    "cap_hits": lambda workers: run_discrimination_experiment(
        cos4_strategy(), 0.8, trials=CAP_TRIALS, seed=3, workers=workers).as_dict(),
}


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_threaded_drivers_equal_the_serial_run(monkeypatch, pool_sizes, driver, workers):
    run = DRIVERS[driver]
    cores = usable_cores()
    threaded = run(workers)
    # one pool, kept across maps (the discrimination experiment maps both
    # arms in one submission)
    assert pool_sizes == ([cores] if cores > 1 else [])
    monkeypatch.setattr(streams, "usable_cores", lambda: 1)
    assert run(workers) == threaded
    # one thread per worker, more than the cores, with a short switch
    # interval, to shake out any dependence on which thread finishes first
    pool_sizes.clear()
    monkeypatch.setattr(streams, "usable_cores", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(workers) == threaded
    finally:
        sys.setswitchinterval(interval)
    # a new core count builds a new pool; at workers == cores the kept one serves
    assert pool_sizes == ([workers] if workers != cores else [])


def test_thread_count_never_exceeds_usable_cores(pool_sizes):
    monte_carlo_fidelity(MassarPopescuStrategy(), trials=5000, seed=1, workers=1000)
    cores = usable_cores()
    assert pool_sizes == ([cores] if cores > 1 else [])
    for pool in streams._POOLS.values():
        assert len(pool._threads) <= cores


def test_the_pool_and_its_threads_are_kept(monkeypatch, pool_sizes):
    """Calls share one pool and its threads, and a process with a new id (a
    forked child) builds its own."""
    cores = usable_cores()
    if cores < 2:
        pytest.skip("one usable core: map_blocks runs inline")
    threads = set()

    def record(rng, lo, hi):
        threads.add(threading.current_thread())
        return hi - lo

    for seed in range(6):
        assert map_blocks([(record, 0, 5)], seed=seed, trials=10, workers=2) == [[5, 5]]
    assert pool_sizes == [cores]
    assert threading.main_thread() not in threads
    assert len(threads) <= 2
    monkeypatch.setattr(os, "getpid", lambda: -1)
    map_blocks([(record, 0, 5)], seed=0, trials=10, workers=2)
    assert pool_sizes == [cores, cores]


def test_one_worker_runs_inline(pool_sizes):
    monte_carlo_fidelity(MassarPopescuStrategy(), trials=5000, seed=1, workers=1)
    assert pool_sizes == []


# ---------------------------------------------------------------------------
# the two discrimination arms share one map_blocks submission


def discriminate(workers):
    return run_discrimination_experiment(cos4_strategy(), 0.8, trials=20_000, seed=4, workers=workers).as_dict()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_concurrent_arms_equal_the_one_thread_run(monkeypatch, pool_sizes, workers):
    cores = usable_cores()
    concurrent_run = discriminate(workers)
    # one pool of at most usable_cores() threads, even at one worker: the
    # arms alone make two groups
    assert pool_sizes == ([cores] if cores > 1 else [])
    for pool in streams._POOLS.values():
        assert len(pool._threads) <= cores
    monkeypatch.setattr(streams, "usable_cores", lambda: 1)
    assert discriminate(workers) == concurrent_run


def test_more_groups_than_threads_do_not_deadlock(monkeypatch, pool_sizes):
    # 2 arms x 3 workers on a 2-thread pool: no task waits on another
    want = discriminate(3)
    monkeypatch.setattr(streams, "usable_cores", lambda: 2)
    got = []
    runner = threading.Thread(target=lambda: got.append(discriminate(3)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "discrimination run did not finish: the pool deadlocked"
    assert got == [want]
    assert pool_sizes[-1] == 2
