"""Deterministic random streams for the Monte Carlo drivers.

A master seed expands into independent substreams through numpy's Philox
counter-based generator: the Philox key is (seed, worker index) and distinct
experiment arms get distinct high counter words, so streams are separated by
2^128 counter steps and can never overlap. Results are therefore
bit-reproducible for a fixed (seed, worker count) and independent of how the
work is scheduled: `map_batches` runs the workers' substreams on concurrent
threads, up to one per usable core, and hands their per-batch results back
in worker order.

Trials are chunked into batches of at most BATCH_CAP rows (a constant, never
derived from the workload), and a batch into row blocks (`map_row_blocks`).
The layout is block-major: each row block draws from its worker's one
generator, after the blocks before it, exactly the uniforms it reads, one
64-bit word per double, in the order it reads them. So the block size is
part of the reproducibility contract, and a block that needs fewer draws,
such as the azimuths of the rows it leaves undecided, reads only those.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import os

import numpy as np

from .errors import QGuessError

MAX_SEED = 2**64 - 1

# Version of the reproducibility contract: the bytes a fixed call or command
# line gives. Every report states it, and a change to any report's bytes
# bumps it.
# - Contract 1 took sin(phi) of each azimuth from np.sin.
# - Contract 2 derives it from cos(phi) (`bloch._cos_sin`).
# - Contract 3 builds each axis's frame as its spherical frame
#   (`bloch.orthonormal_frames`), so the AB and cos4 guesses and
#   `bloch.z_at_angle` move; it takes cos^4 by exact products
#   (`nosignal.cos4_density`) and merges tabulation nodes that differ by
#   rounding (`estimator.TabulatedStrategy`), so the cos4 density, its
#   tabulation and the cos4 reports move too. MP guesses and
#   `random_directions` keep their contract-2 bytes. All 5 pinned kernel
#   outputs and 13 of the 15 pinned reports have the same bytes at numpy's
#   AVX2 and AVX-512 levels on x86-64; the other two, `nosignal` reports,
#   differ in a value that goes through np.arccos. aarch64 and other numpy
#   versions are not measured.
# - Contract 4 draws block-major (`map_row_blocks`), where contract 3 gave
#   each uniform column of a batch its own stretch of words, and the angle
#   path of the discrimination draws azimuths only for the rows it leaves to
#   the exact z. Reports with more trials per worker than one row block, and
#   AB and cos4 discrimination counts, move; the 5 pinned kernel outputs do not.
STREAM_CONTRACT = 4

# Fixed internal batch cap; part of the reproducibility contract, since
# `monte_carlo_fidelity` sums one score array per batch. The batches stay
# for that array's sake too: freeing a 4 MiB mapped array raises glibc's
# dynamic mmap threshold to its size, after which the 128 KiB temporaries
# of a row block come from the heap instead of being mapped, faulted in and
# unmapped on every call. A prototype that folded the batches into blocks,
# and so freed no such array, ran the mc-admissible benchmark about 20%
# slower (op_s.p50 0.85 -> 1.02 s, 6/6 pairs, 2-core x86-64 host); with
# MALLOC_MMAP_THRESHOLD_ fixed, it ran as fast as this design.
BATCH_CAP = 1 << 19

# Rows per block of a batch (`map_row_blocks`): a block's draws and
# temporaries stay cache-sized, and a batch in flight holds one block of them
# beside what its driver keeps per row. A block's draws follow the blocks
# before it, so the block size is part of the reproducibility contract. Each
# numpy call releases and retakes the interpreter lock, so with two workers
# on threads the block also sets how often they hand the lock over: 2^14
# rows took that from about 4200 waits per mc-admissible round (2^13) to
# about 1200.
ROW_BLOCK = 1 << 14


def require_integer(name: str, value) -> None:
    """Raise QGuessError unless value is an integer (numpy's too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise QGuessError(f"{name} must be an integer, got {value!r}")


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


def map_row_blocks(fn, rng: np.random.Generator, m: int, rows: int = ROW_BLOCK) -> list:
    """[fn(rng, lo, hi) for each block [lo, hi) of `rows` rows (the last one
    ragged) of a batch of m rows], in order: each block draws from `rng`
    after the blocks before it."""
    return [fn(rng, lo, min(lo + rows, m)) for lo in range(0, m, rows)]


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
    return map_arms([(fn, block)], seed, trials, workers)[0]


def map_arms(arms, seed: int, trials: int, workers: int) -> list[list]:
    """map_batches(fn, seed, trials, workers, block) for each (fn, block) in
    `arms`, as one list per arm.

    Every arm's worker groups go to the pool in one submission, so the arms
    run concurrently as well as their workers. A pool task never submits to
    the pool: a task that waited on tasks queued behind it could deadlock a
    pool whose threads all wait.
    """
    groups = []
    for arm, (fn, block) in enumerate(arms):
        # consecutive batches of one worker share its generator
        batches = worker_batches(seed, trials, workers, block)
        for _, group in itertools.groupby(batches, key=operator.itemgetter(0)):
            groups.append((arm, fn, list(group)))

    def run(task):
        _, fn, group = task
        return [fn(rng, m) for rng, m in group]

    if min(len(groups), usable_cores()) <= 1:
        per_group = [run(task) for task in groups]
    else:
        per_group = list(_thread_pool().map(run, groups))
    out = [[] for _ in arms]
    for (arm, _, _), results in zip(groups, per_group):
        out[arm].extend(results)
    return out


# (process id, usable cores) -> the pool map_batches submits to
_POOLS: dict = {}


def _thread_pool():
    """This process's pool of at most usable_cores() threads.

    Made on first use. A thread starts only when a submitted worker group
    finds none idle, so there are no more threads than the most groups one
    call maps, and they then stay, idle, between calls. A pool per call
    would start and end threads on every driver call, and glibc gives a new
    thread a new malloc arena whenever the arenas of the threads that just
    ended are not yet free: arenas holding freed batch arrays piled up at
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
        # one worker group or one core never use it
        from concurrent.futures import ThreadPoolExecutor

        pool = _POOLS[key] = ThreadPoolExecutor(max_workers=key[1])
    return pool
