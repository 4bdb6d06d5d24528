"""Deterministic random streams for the Monte Carlo drivers.

A master seed expands into independent substreams through numpy's Philox
counter-based generator: the Philox key is (seed, worker index) and distinct
experiment arms get distinct high counter words, so streams are separated by
2^128 counter steps and can never overlap. Results are therefore
bit-reproducible for a fixed (seed, worker count) and independent of how the
work is scheduled.

Each worker's trials are one batch, drawn in row blocks, and every driver is
a block function plus a reduction: `map_blocks` runs the workers on
concurrent threads, up to one per usable core, and hands back the block
results in worker-then-block order. The layout is block-major: each row
block draws from its worker's one generator, after the blocks before it,
exactly the draws it reads, in the order it reads them. So the block size
is part of the reproducibility contract, and a block that needs fewer
draws reads only those: the discrimination's angle path draws its rows'
class counts at once, then words and azimuths for the rows they leave
undecided alone.
"""

from __future__ import annotations

import functools
import numbers
import os

import numpy as np

from .errors import QGuessError

MAX_SEED = 2**64 - 1

# Version of the reproducibility contract: the bytes a fixed call or command
# line gives. Every report states it, and a change to any report's bytes
# bumps it; README "Determinism" has a table of what each contract moved.
STREAM_CONTRACT = 12

# Rows per block of the drivers' `map_blocks` arms: a block's draws and
# temporaries stay cache-sized, and a worker in flight holds one block of
# them beside its driver's running reduction. A block's draws follow the
# blocks before it, so the block size is part of the reproducibility
# contract. Each numpy call releases and retakes the interpreter lock, so
# with two workers on threads the block also sets how often they hand the
# lock over: 2^14 rows took that from about 4200 waits per mc-admissible
# round (2^13) to about 1200.
ROW_BLOCK = 1 << 14


def require_integer(name: str, value) -> None:
    """Raise QGuessError unless value is an integer (numpy's too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise QGuessError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise QGuessError unless value is a real number (numpy's too) and not
    a bool: `float` would take True as 1 and "0.5" as 0.5."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise QGuessError(f"{name} must be a real number, got {value!r}")


def substream(seed: int, worker: int = 0, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, worker, block) cell of the stream lattice."""
    for name, value in (("seed", seed), ("worker", worker), ("block", block)):
        require_integer(name, value)
    if not 0 <= seed <= MAX_SEED:
        raise QGuessError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if worker < 0 or block < 0:
        raise QGuessError("worker and block indices must be non-negative")
    key = np.array([seed, worker], dtype=np.uint64)
    counter = np.array([0, 0, worker, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def split_trials(trials: int, workers: int) -> list[int]:
    """Per-worker trial counts: as even as possible, remainder to low indices."""
    require_integer("trials", trials)
    require_integer("workers", workers)
    if trials < 1:
        raise QGuessError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise QGuessError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def worker_batches(seed: int, trials: int, workers: int, block: int = 0):
    """Yield (generator, trials) for each worker's substream: a worker's
    trials are one batch.

    Workers are visited in index order with one fresh substream each, so any
    order-insensitive aggregate (count sums, moment sums) is bit-identical
    for a fixed (seed, workers); a worker assigned zero trials yields nothing.
    """
    for w, n_w in enumerate(split_trials(trials, workers)):
        if n_w:
            yield substream(seed, w, block), n_w


# glibc maps an allocation of 128 KiB or more (its initial mmap threshold)
# and unmaps it on free, so every 128 KiB temporary of a ROW_BLOCK-row kernel
# would be mapped, faulted in and unmapped anew. Freeing a mapped chunk
# raises that threshold to the chunk's size, and the heap's trim threshold
# to twice it, so the temporaries then stay on the heap. So once per
# process, before its first block, `map_blocks` frees one untouched
# 4 MiB array, which faults no page in. A round of the mc-admissible
# benchmark's calls took 0.58 s with this step and 0.79 s without it
# (medians of 5 alternating fresh processes, 2-core x86-64 host).
@functools.cache
def _prime_heap() -> None:
    """Free one untouched 4 MiB array, once per process (see above)."""
    np.empty(1 << 19)


def usable_cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_blocks(arms, seed: int, trials: int, workers: int) -> list[list]:
    """One list per arm (fn, block, rows): fn(rng, lo, hi) for each block
    [lo, hi) of `rows` rows, the last one ragged, of each worker's (rng, m)
    of worker_batches(seed, trials, workers, block), in worker-then-block
    order: a reduction over them is bit-identical to a serial loop's.

    The substreams are made in the calling thread. All arms' workers then
    go in one submission to the process's pool of at most usable_cores()
    threads (`_thread_pool`), or run inline when one core is usable or one
    worker has trials; numpy releases the interpreter lock in its draws and
    ufuncs, so they overlap. A pool task never submits to the pool: one that
    waited on tasks queued behind it could deadlock a pool of waiting threads.
    """
    tasks = [(arm, fn, rng, m, rows) for arm, (fn, block, rows) in enumerate(arms)
             for rng, m in worker_batches(seed, trials, workers, block)]

    def run(task):
        _, fn, rng, m, rows = task
        return [fn(rng, lo, min(lo + rows, m)) for lo in range(0, m, rows)]

    _prime_heap()
    if min(len(tasks), usable_cores()) <= 1:
        results = [run(task) for task in tasks]
    else:
        results = list(_thread_pool().map(run, tasks))
    out = [[] for _ in arms]
    for (arm, *_), blocks in zip(tasks, results):
        out[arm].extend(blocks)
    return out


# (process id, usable cores) -> the pool map_blocks submits to
_POOLS: dict = {}


def _thread_pool():
    """This process's pool of at most usable_cores() threads.

    Made on first use. A thread starts only when a submitted worker finds
    none idle, so there are no more threads than the most workers one call
    maps, and they then stay, idle, between calls. A pool per call
    would start and end threads on every driver call, and glibc gives a new
    thread a new malloc arena whenever the arenas of the threads that just
    ended are not yet free: arenas holding freed arrays piled up at
    random, and the peak RSS of one mc-admissible benchmark run rose 49 MB
    over the others.
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
