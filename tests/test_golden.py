"""Golden digests: sha256 of CLI stdout at small fixed flags, and of the
bytes of the sampling kernels.

`tests/golden/digests.json` records the stream contract it was made under,
maps each command line to the digest of its report (`cli`), and each kernel
call below to the digest of its output array (`kernels`). A mismatch means
the byte output changed between versions; the assertion message carries the
fresh digest, so a deliberate change is recorded by pasting it into the JSON
file, together with a bump of `streams.STREAM_CONTRACT`. The kernel digests
see ulp-level changes that a report's rounding or binning can hide.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from qguess.bloch import BlochVector, EnsembleDecomposition, frame_z, random_directions, z_at_angle
from qguess.cli import main
from qguess.estimator import ABFormStrategy, GuessingForm, MassarPopescuStrategy
from qguess.nosignal import cos4_strategy
from qguess.streams import STREAM_CONTRACT, substream

GOLDEN = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())

KERNEL_ROWS = 4099


def kernel_outputs() -> dict:
    """{name: output array} of each kernel call the golden file pins."""
    inputs = random_directions(substream(7), KERNEL_ROWS)
    out = {"random_directions": inputs}
    strategies = {
        "mp": MassarPopescuStrategy(),
        "ab": ABFormStrategy(GuessingForm.from_a_fraction(0.5)),
        "cos4": cos4_strategy(),
    }
    for tag, strategy in strategies.items():
        out[f"sample_batch.{tag}"] = strategy.sample_batch(inputs, substream(8))
    # members whose frames keep both azimuth terms, a pole among them
    generic = EnsembleDecomposition(tuple(
        (w, BlochVector.normalized(*v))
        for w, v in ((0.3, (0.3, 0.4, 0.5)), (0.5, (-0.2, 0.1, -0.4)), (0.2, (0.0, 0.0, 1.0)))))
    rng = substream(9)
    idx = rng.integers(0, len(generic.members), size=KERNEL_ROWS)
    cos_t = rng.uniform(-1.0, 1.0, size=KERNEL_ROWS)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=KERNEL_ROWS)
    out["z_at_angle.generic"] = z_at_angle(*(c.take(idx) for c in frame_z(generic.directions)), cos_t, phi)
    return out


def test_digests_were_made_under_this_stream_contract():
    assert GOLDEN["stream_contract"] == STREAM_CONTRACT


@pytest.mark.parametrize("command", sorted(GOLDEN["cli"]))
def test_cli_output_matches_golden_digest(command):
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0
    fresh = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert fresh == GOLDEN["cli"][command], f"{command!r}: stdout digest is now {fresh}"


def test_golden_file_pins_every_kernel_call():
    assert sorted(kernel_outputs()) == sorted(GOLDEN["kernels"])


@pytest.mark.parametrize("name", sorted(GOLDEN["kernels"]))
def test_kernel_bytes_match_golden_digest(name):
    fresh = hashlib.sha256(kernel_outputs()[name].tobytes()).hexdigest()
    assert fresh == GOLDEN["kernels"][name], f"{name!r}: digest is now {fresh}"
