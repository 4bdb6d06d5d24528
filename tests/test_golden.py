"""Golden digests: sha256 of CLI stdout at small fixed flags.

`tests/golden/digests.json` maps each command line to the digest of its
report. A mismatch means the byte output changed between versions; the
assertion message carries the fresh digest, so a deliberate change is
recorded by pasting it into the JSON file.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qguess.cli import main

DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_cli_output_matches_golden_digest(command):
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0
    fresh = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert fresh == DIGESTS[command], f"{command!r}: stdout digest is now {fresh}"
