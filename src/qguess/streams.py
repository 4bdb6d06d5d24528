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
derived from the workload). A batch of m rows that draws k uniform columns
owns words [0, k*m) of its place in the substream, column c at words
[c*m, (c+1)*m): the words whole-batch calls `random(m)`, `uniform(lo, hi, m)`
would read one after the other, one 64-bit word per double. The drivers
never hold a whole column. Philox is counter-based (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3"), so `map_row_blocks` puts
one generator at the start of each column and reads the batch ROW_BLOCK
rows at a time; every row gets the same draws as in the whole-batch order.
"""

from __future__ import annotations

import itertools
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
STREAM_CONTRACT = 3

# fixed internal batch cap; part of the reproducibility contract
BATCH_CAP = 1 << 19

# Rows per block of a batch (`map_row_blocks`): a block's draws and
# temporaries stay cache-sized, and a batch in flight holds one block of them
# beside what its driver keeps per row. Element-wise arithmetic gives the
# same bytes at any block size. Each numpy call releases and
# retakes the interpreter lock, so with two workers on threads the block
# also sets how often they hand the lock over: 2^14 rows took that from
# about 4200 waits per mc-admissible round (2^13) to about 1200.
ROW_BLOCK = 1 << 14


def substream(seed: int, worker: int = 0, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, worker, block) cell of the stream lattice."""
    if not 0 <= seed <= MAX_SEED:
        raise QGuessError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if worker < 0 or block < 0:
        raise QGuessError("worker and block indices must be non-negative")
    key = np.array([seed, worker], dtype=np.uint64)
    counter = np.array([0, 0, worker, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def split_trials(trials: int, workers: int) -> list[int]:
    """Per-worker trial counts: as even as possible, remainder to low indices."""
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


def _column_generator(state: dict, words: int) -> np.random.Generator:
    """Generator `words` 64-bit words past the Philox `state`."""
    bits = np.random.Philox(key=state["state"]["key"])
    bits.state = state
    _skip_words(bits, words)
    return np.random.Generator(bits)


def _skip_words(bits: np.random.Philox, words: int) -> None:
    """Move `bits` on by `words` 64-bit words, to the state reading them
    would leave.

    Philox fills a buffer of four words per counter step: the words still
    buffered are read off, `advance` then skips whole steps (and empties the
    buffer), and `random_raw` reads the rest, generating the last step, so
    the buffer holds that step's words as after reading.
    """
    buffered = 4 - bits.state["buffer_pos"]
    if words > buffered:
        steps, rest = divmod(words - buffered - 1, 4)
        bits.random_raw(buffered)
        bits.advance(steps)
        words = rest + 1
    bits.random_raw(words)


class _BlockDraws:
    """The draws of one row block: its j-th `random`, `uniform` or `skip`
    call reads, or passes over, the block's rows of uniform column j."""

    def __init__(self, columns: list, rows: int):
        self._columns = columns
        self._rows = rows
        self.calls = 0

    def _column(self, size) -> np.random.Generator:
        if self.calls == len(self._columns):
            raise RuntimeError(f"a row block drew more than its {len(self._columns)} uniform columns")
        if size != self._rows:
            raise RuntimeError(f"a row block of {self._rows} rows drew {size} uniforms")
        self.calls += 1
        return self._columns[self.calls - 1]

    def random(self, size):
        return self._column(size).random(size)

    def uniform(self, low, high, size):
        return self._column(size).uniform(low, high, size)

    def skip(self, size) -> None:
        """Pass over the block's rows of the next column without computing
        them: the column's generator moves on `size` words, as a `random`
        call would move it, and every other column keeps its draws."""
        _skip_words(self._column(size).bit_generator, size)


def map_row_blocks(fn, rng: np.random.Generator, m: int, columns: int, rows: int = ROW_BLOCK) -> list:
    """[fn(draws, lo, hi) for each block [lo, hi) of `rows` rows (the last
    one ragged) of a batch of m rows].

    The batch draws `columns` uniform columns. One generator is put at the
    start of each, word offsets 0, m, ..., (columns - 1) * m from `rng`, and
    read block after block: the j-th `random` / `uniform` call `fn` makes on
    `draws` returns rows [lo, hi) of column j, the same doubles the j-th
    whole-batch call would return for those rows, and a `skip` in its place
    passes over them. So any code that draws
    whole columns from a generator runs unchanged on one block, and `rng`
    is left columns * m words on, as whole-batch draws would leave it. A
    block that makes more or fewer than `columns` draw calls (skips
    included) raises RuntimeError.
    """
    state = rng.bit_generator.state
    gens = [_column_generator(state, c * m) for c in range(columns)]
    out = []
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        draws = _BlockDraws(gens, hi - lo)
        out.append(fn(draws, lo, hi))
        if draws.calls != columns:
            raise RuntimeError(f"a row block drew {draws.calls} of its {columns} uniform columns")
    rng.bit_generator.state = gens[-1].bit_generator.state
    return out


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
