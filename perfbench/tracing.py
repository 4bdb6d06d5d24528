"""Spans around calls into qguess, recorded from the benchmark's own code.

While a `Tracer` is installed it replaces each traced public function where
its caller looks it up (for example `qguess.estimator.directions_at_angle`,
which `ABFormStrategy.sample_batch` resolves through its module globals) with
a wrapper that records a span: name, start, end, parent span, operation id
and a row count. Spans stay in memory until the run writes them out.
`uninstall` puts every original back, so untraced passes never see a
wrapper.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    rows: int | None = None


def _rows_arg0(args, kwargs):
    return len(args[0])


def _rows_arg1(args, kwargs):
    return len(args[1])


def _rows_random_directions(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _optimize_ab_name(args) -> str:
    return f"merit.optimize_ab.{args[0].label}"


# (module, attribute, span name or name(args), rows). The same function is patched in
# every namespace a caller resolves it from; one call passes through one
# wrapper only, because each caller looks the name up in one place.
FUNCTIONS = [
    ("qguess.bloch", "orthonormal_frames", "bloch.orthonormal_frames", _rows_arg0),
    ("qguess.bloch", "dots", "bloch.dots", _rows_arg0),
    ("qguess.estimator", "random_directions", "bloch.random_directions", _rows_random_directions),
    ("qguess.estimator", "directions_at_angle", "bloch.directions_at_angle", _rows_arg0),
    ("qguess.estimator", "angles_between", "bloch.angles_between", _rows_arg0),
    ("qguess.estimator", "dots", "bloch.dots", _rows_arg0),
    ("qguess.estimator", "collect_histogram", "estimator.collect_histogram", None),
    ("qguess.merit", "random_directions", "bloch.random_directions", _rows_random_directions),
    ("qguess.merit", "dots", "bloch.dots", _rows_arg0),
    ("qguess.merit", "average_merit", "merit.average_merit", None),
    ("qguess.merit", "monte_carlo_fidelity", "merit.monte_carlo_fidelity", None),
    ("qguess.merit", "optimize_ab", _optimize_ab_name, None),
    ("qguess.nosignal", "cos4_strategy", "nosignal.cos4_strategy", None),
    ("qguess.nosignal", "required_trials", "nosignal.required_trials", None),
    ("qguess.nosignal", "run_discrimination_experiment", "nosignal.run_discrimination_experiment", None),
    ("qguess.nosignal", "fit_ab_least_squares", "nosignal.fit_ab_least_squares", None),
    ("qguess.nosignal", "constraint_residual_grid", "nosignal.constraint_residual_grid", None),
    ("qguess.streams", "substream", "streams.substream", None),
    ("qguess.cli", "monte_carlo_fidelity", "merit.monte_carlo_fidelity", None),
    ("qguess.cli", "collect_histogram", "estimator.collect_histogram", None),
    ("qguess.cli", "optimize_ab", _optimize_ab_name, None),
    ("qguess.cli", "cos4_strategy", "nosignal.cos4_strategy", None),
    ("qguess.cli", "run_discrimination_experiment", "nosignal.run_discrimination_experiment", None),
    ("qguess.cli", "fit_ab_least_squares", "nosignal.fit_ab_least_squares", None),
    ("qguess.cli", "constraint_residual_grid", "nosignal.constraint_residual_grid", None),
]

# strategy class -> tag used in `estimator.sample_batch.<tag>`
STRATEGIES = [
    ("qguess.estimator", "MassarPopescuStrategy", "mp"),
    ("qguess.estimator", "ABFormStrategy", "ab"),
    ("qguess.estimator", "TabulatedStrategy", "cos4"),
]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, rows_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            rows = rows_of(args, kwargs) if rows_of else None
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(span_name, time.perf_counter(), 0.0, parent, self.op, rows))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()

        return wrapper

    def _count_batches(self, gen_fn):
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts["streams.worker_batches.batches"] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- lifetime --------------------------------------------------------

    def install(self, with_cli: bool = False) -> None:
        for mod_name, attr, name, rows_of in FUNCTIONS:
            if mod_name == "qguess.cli" and not with_cli:
                continue
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, rows_of))
        streams = importlib.import_module("qguess.streams")
        self._patch(streams, "worker_batches", self._count_batches(streams.worker_batches))
        for mod_name, cls_name, tag in STRATEGIES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, "sample_batch",
                        self._wrap(cls.sample_batch, f"estimator.sample_batch.{tag}", _rows_arg1))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# arithmetic on recorded spans

def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`.

    Children may nest or overlap each other; overlapping parts count once,
    and parts outside [lo, hi] not at all.
    """
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children[i]) for i, s in enumerate(spans)]


def aggregate(spans: list[Span], counts: dict) -> dict:
    """Per span name: `.s` (total), `.self_s`, `.calls` and, where rows are
    known, `.rows`; per module (first name component): `.self_s`."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        module = s.name.split(".", 1)[0]
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + (s.end - s.start)
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        if s.rows is not None:
            out[f"{s.name}.rows"] = out.get(f"{s.name}.rows", 0) + s.rows
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own
    out.update(counts)
    return out


# ---------------------------------------------------------------------------
# Philox draw accounting

def philox_position(state: dict) -> int:
    """Index of the next 64-bit word a numpy Philox generator will hand out.

    Philox4x64 turns one 256-bit counter value into four words and bumps the
    counter before filling its buffer, so after `buffer_pos` words of the
    block at counter c the stream has handed out 4*c + buffer_pos words (a
    fresh generator sits at buffer_pos 4, one block before its first word).
    """
    counter = state["state"]["counter"]
    c = sum(int(word) << (64 * i) for i, word in enumerate(counter))
    return 4 * c + int(state["buffer_pos"])


def words_drawn(before: dict, after: dict) -> int:
    """64-bit words consumed between two Philox states (one per double)."""
    return (philox_position(after) - philox_position(before)) % (4 << 256)


# ---------------------------------------------------------------------------
# `python -X importtime`

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)\s*$")


def scipy_import_seconds(stderr: str) -> float:
    """Cumulative import time of the outermost `scipy` / `scipy.*` imports.

    `-X importtime` prints each module after its children, one space after
    the bar at the top level and two more per level below. A scipy module counts with its cumulative time unless
    it sits inside another scipy module, whose cumulative already holds it.
    """
    pending: dict[int, list] = defaultdict(list)
    roots = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)
        node = (name, cumulative, pending.pop(depth + 1, []))
        pending[depth].append(node)
        if depth == 0:
            roots.append(node)

    def outermost(node) -> int:
        name, cumulative, kids = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(outermost(k) for k in kids)

    return sum(outermost(n) for n in roots) / 1e6
