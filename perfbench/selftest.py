"""Tests of the benchmark's own arithmetic. The file name keeps them out of
the repository's test collection; run them explicitly:

    python3 -m pytest -q perfbench/selftest.py
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, value",
    [
        (100, 90.0, 90),   # ranks 91..100 lie beyond p90
        (1000, 99.0, 990),
        (40, 75.0, 30),
        (20, 50.0, 10),
        (47, 100.0 * 37 / 47, 37),
    ],
)
def test_tail_leaves_ten_samples_beyond(n, percentile, value):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    pct, got, count = stats.tail(samples)
    assert (pct, got, count) == (pytest.approx(percentile), value, n)
    assert sum(s > got for s in samples) == stats.TAIL_BEYOND


def test_tail_below_twenty_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert stats.tail(list(range(19))) == (100.0, 18, 19)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("b", 3.0, 6.0, 0, "op"),      # overlaps a: [3, 4] counts once
        Span("a.inner", 2.0, 3.0, 1, "op"),  # grandchild: only a loses it
        Span("c", 9.0, 12.0, 0, "op"),     # runs past the root's end
    ]
    # root: children cover [1, 6] and [9, 10] -> 6 of its 10 seconds
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_covered_handles_disjoint_touching_and_empty():
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(1, 2), (2, 3), (5, 6)]) == pytest.approx(3.0)
    assert tracing.covered(0.0, 10.0, [(-5, -1), (11, 12)]) == 0.0
    assert tracing.covered(0.0, 10.0, [(2, 8), (3, 4)]) == pytest.approx(6.0)


def test_aggregate_sums_per_name_and_module():
    spans = [
        Span("bloch.x", 0.0, 2.0, None, "1", rows=5),
        Span("bloch.x", 3.0, 4.0, None, "2", rows=7),
        Span("estimator.y", 0.0, 1.0, 0, "1"),
    ]
    out = tracing.aggregate(spans, {"k": 3})
    assert out["bloch.x.s"] == pytest.approx(3.0)
    assert out["bloch.x.self_s"] == pytest.approx(2.0)
    assert out["bloch.x.calls"] == 2 and out["bloch.x.rows"] == 12
    assert out["bloch.self_s"] == pytest.approx(2.0)
    assert out["estimator.self_s"] == pytest.approx(1.0)
    assert out["k"] == 3


def _philox_state(counter, buffer_pos):
    return {"state": {"counter": np.array(counter, dtype=np.uint64)}, "buffer_pos": buffer_pos}


def test_philox_position_counts_four_words_per_counter_step():
    fresh = _philox_state([0, 0, 0, 0], 4)
    assert tracing.words_drawn(fresh, _philox_state([1, 0, 0, 0], 1)) == 1
    assert tracing.words_drawn(fresh, _philox_state([1, 0, 0, 0], 4)) == 4
    assert tracing.words_drawn(fresh, _philox_state([2, 0, 0, 0], 1)) == 5
    # the low counter word carries into the next one
    top = 2**64 - 1
    assert tracing.words_drawn(_philox_state([top, 0, 7, 3], 2), _philox_state([0, 1, 7, 3], 3)) == 5


@pytest.mark.parametrize("draws", [0, 1, 3, 4, 5, 9, 1001])
def test_words_drawn_matches_a_real_generator(draws):
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64),
                                               counter=np.array([2**64 - 2, 0, 1, 0], dtype=np.uint64)))
    gen.random(2)
    before = gen.bit_generator.state
    gen.random(draws)
    assert tracing.words_drawn(before, gen.bit_generator.state) == draws


def test_scipy_import_seconds_takes_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:        10 |        110 | encodings",
        "import time:       200 |        200 |       scipy._lib",
        "import time:       300 |        500 |     scipy",
        "import time:        50 |        550 |   numpy_user",
        "import time:       400 |        400 |   scipy.stats",
        "import time:        20 |        970 | qguess",
    ])
    assert tracing.scipy_import_seconds(stderr) == pytest.approx((500 + 400) / 1e6)


def test_pooled_chi2_merges_sparse_bins_first():
    probs = [0.4, 0.4, 0.1, 0.09, 0.01]
    chi2, dof = workloads.pooled_chi2([40, 40, 10, 9, 1], probs, 100)
    assert dof == 3  # cells: {0.01, 0.09}, {0.1}, {0.4}, {0.4}
    assert chi2 == pytest.approx(0.0)
    chi2, dof = workloads.pooled_chi2([50, 30, 10, 9, 1], probs, 100)
    assert chi2 == pytest.approx(10**2 / 40 + 10**2 / 40)
