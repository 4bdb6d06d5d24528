"""Golden digests: sha256 of CLI stdout at small fixed flags, and of the
bytes of the sampling kernels.

`tests/golden/digests.json` records the stream contract it was made under,
maps each command line to the digest of its report (`cli`), and each kernel
call below to the digest of its output array (`kernels`). A mismatch means
the byte output changed between versions; the assertion message carries the
fresh digest, so a deliberate change is recorded by pasting it into the JSON
file, together with a bump of `streams.STREAM_CONTRACT`. The kernel digests
see ulp-level changes that a report's rounding or binning can hide.

The bytes should not depend on the SIMD kernels numpy dispatches, so every
digest is recomputed once more in a child process at numpy's AVX2 level.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qguess
from qguess.bloch import BlochVector, EnsembleDecomposition, orthonormal_frames, random_directions, z_at_angle
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
    # members off the poles, whose z takes the cos(phi) term, and a pole
    generic = EnsembleDecomposition(tuple(
        (w, BlochVector.normalized(*v))
        for w, v in ((0.3, (0.3, 0.4, 0.5)), (0.5, (-0.2, 0.1, -0.4)), (0.2, (0.0, 0.0, 1.0)))))
    rng = substream(9)
    idx = rng.integers(0, len(generic.members), size=KERNEL_ROWS)
    cos_t = rng.uniform(-1.0, 1.0, size=KERNEL_ROWS)
    h = rng.uniform(-1.0, 1.0, size=KERNEL_ROWS)
    dirs = generic.directions
    out["z_at_angle.generic"] = z_at_angle(dirs[:, 2].take(idx), orthonormal_frames(dirs)[0][:, 2].take(idx),
                                           cos_t, h)
    return out


def cli_digest(command: str) -> str:
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0
    return hashlib.sha256(result.stdout_bytes).hexdigest()


def kernel_digests() -> dict:
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in kernel_outputs().items()}


def test_digests_were_made_under_this_stream_contract():
    assert GOLDEN["stream_contract"] == STREAM_CONTRACT


@pytest.mark.parametrize("command", sorted(GOLDEN["cli"]))
def test_cli_output_matches_golden_digest(command):
    fresh = cli_digest(command)
    assert fresh == GOLDEN["cli"][command], f"{command!r}: stdout digest is now {fresh}"


def test_golden_file_pins_every_kernel_call():
    assert sorted(kernel_outputs()) == sorted(GOLDEN["kernels"])


@pytest.mark.parametrize("name", sorted(GOLDEN["kernels"]))
def test_kernel_bytes_match_golden_digest(name):
    fresh = kernel_digests()[name]
    assert fresh == GOLDEN["kernels"][name], f"{name!r}: digest is now {fresh}"


# numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the AVX2 level
# runs in a child process, which recomputes every digest of the golden file
AVX2_FEATURES_OFF = "AVX512_SPR AVX512_ICL X86_V4"
AVX2_DIGESTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden as g
print(json.dumps({"cli": {c: g.cli_digest(c) for c in g.GOLDEN["cli"]}, "kernels": g.kernel_digests()}))
"""


@pytest.fixture(scope="module")
def avx2_digests():
    src = str(Path(qguess.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX2_FEATURES_OFF,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", AVX2_DIGESTS, str(Path(__file__).parent)],
                           env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


@pytest.mark.parametrize("section, name", [
    pytest.param(section, name, id=name) for section in ("cli", "kernels") for name in sorted(GOLDEN[section])])
def test_golden_digest_holds_at_avx2(avx2_digests, section, name):
    assert avx2_digests[section][name] == GOLDEN[section][name]
