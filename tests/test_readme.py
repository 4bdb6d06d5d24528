"""README's Python example, run as written, so a change to the API it uses
fails the suite rather than leaving the example stale; and the stream
contract its CLI examples print, which must be the current one."""

import re
from pathlib import Path

from qguess.streams import STREAM_CONTRACT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_examples_show_the_current_stream_contract():
    # JSON reports print "stream_contract": N, CSV reports # stream_contract=N
    shown = re.findall(r'"?stream_contract"?(?::\s*|=)(\d+)', README.read_text())
    assert len(shown) == 5
    assert all(int(contract) == STREAM_CONTRACT for contract in shown)
