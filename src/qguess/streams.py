"""Deterministic random streams for the Monte Carlo drivers.

A master seed expands into independent substreams through numpy's Philox
counter-based generator: the Philox key is (seed, worker index) and distinct
experiment arms get distinct high counter words, so streams are separated by
2^128 counter steps and can never overlap. Results are therefore
bit-reproducible for a fixed (seed, worker count) and independent of how the
work is scheduled: `map_batches` runs the workers' substreams on concurrent
threads, up to one per usable core, and hands their per-batch results back
in worker order.

Drivers consume substreams in whole batches with a fixed draw order; trials
are chunked so memory stays bounded without changing the draw sequence
(chunk size is a constant, never derived from the workload).
"""

from __future__ import annotations

import itertools
import operator
import os

import numpy as np

MAX_SEED = 2**64 - 1

# fixed internal batch cap; part of the reproducibility contract
BATCH_CAP = 1 << 19


def substream(seed: int, worker: int = 0, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, worker, block) cell of the stream lattice."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if worker < 0 or block < 0:
        raise ValueError("worker and block indices must be non-negative")
    key = np.array([seed, worker], dtype=np.uint64)
    counter = np.array([0, 0, worker, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def split_trials(trials: int, workers: int) -> list[int]:
    """Per-worker trial counts: as even as possible, remainder to low indices."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def batch_sizes(n: int, cap: int = BATCH_CAP) -> list[int]:
    """Chunk n trials into fixed-cap batches (all full except possibly the last)."""
    full, rest = divmod(n, cap)
    return [cap] * full + ([rest] if rest else [])


def worker_batches(seed: int, trials: int, workers: int, block: int = 0):
    """Yield (generator, batch_size) over every worker's chunked substream.

    Workers are visited in index order with one fresh substream each, so any
    order-insensitive aggregate (count sums, moment sums) is bit-identical
    for a fixed (seed, workers); a worker assigned zero trials yields nothing.
    """
    for w, n_w in enumerate(split_trials(trials, workers)):
        if n_w == 0:
            continue
        rng = substream(seed, w, block)
        for m in batch_sizes(n_w):
            yield rng, m


def usable_cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_batches(fn, seed: int, trials: int, workers: int, block: int = 0) -> list:
    """[fn(rng, m) for every batch of worker_batches], in worker-then-batch order.

    The batches are enumerated here, in the calling thread; each worker's
    batches then run in order on one thread of the process's pool of at most
    usable_cores() threads (`_thread_pool`), or inline when one core is
    usable or one worker has trials. numpy releases the interpreter lock in
    its Philox draws and ufuncs, so the workers' batches overlap. A batch
    depends only on its own substream, and the results come back in the
    order a serial loop would produce them, so a reduction over them is
    bit-identical to that loop's.
    """
    # consecutive batches of one worker share its generator
    batches = worker_batches(seed, trials, workers, block)
    groups = [list(group) for _, group in itertools.groupby(batches, key=operator.itemgetter(0))]

    def run(group):
        return [fn(rng, m) for rng, m in group]

    if min(len(groups), usable_cores()) <= 1:
        per_worker = [run(group) for group in groups]
    else:
        per_worker = list(_thread_pool().map(run, groups))
    return [result for results in per_worker for result in results]


# (process id, usable cores) -> the pool map_batches submits to
_POOLS: dict = {}


def _thread_pool():
    """This process's pool of at most usable_cores() threads.

    Made on first use. A thread starts only when a submitted worker finds
    none idle, so there are no more threads than the most workers one call
    maps, and they then stay, idle, between calls. A pool per call would start
    and end threads on every driver call, and glibc gives a new thread a new
    malloc arena whenever the arenas of the threads that just ended are not
    yet free: arenas holding freed batch arrays piled up at random, and the
    peak RSS of one mc-admissible benchmark run rose 49 MB over the others.
    Keyed by process id as well, since a forked child has none of the
    parent's threads.
    """
    key = (os.getpid(), usable_cores())
    pool = _POOLS.get(key)
    if pool is None:
        # imported here: concurrent.futures (with logging) adds about 9 ms to a
        # cold import of the package on a 2-core x86-64 host, and runs with
        # one worker or one core never use it
        from concurrent.futures import ThreadPoolExecutor

        pool = _POOLS[key] = ThreadPoolExecutor(max_workers=key[1])
    return pool
