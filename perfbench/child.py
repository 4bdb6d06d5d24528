"""Subprocess entry points of the benchmark.

    python3 perfbench/child.py setup <workload>
        Import qguess and build the workload's set-up objects, then exit.
        The parent times the whole process as one set-up sample.

    python3 perfbench/child.py cli <spans.json> <qguess arguments...>
        Run one qguess command in this fresh interpreter with the tracing
        wrappers installed, and write the spans to <spans.json>.

Both expect PYTHONPATH to name the checkout's `src`.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.SETUPS[argv[1]]()
        return 0
    if mode == "cli":
        import qguess.cli
        import tracing

        tracer = tracing.Tracer()
        tracer.install(with_cli=True)
        tracer.op = argv[2]
        code = 0
        try:
            qguess.cli.main(argv[2:], prog_name="qguess")
        except SystemExit as exc:
            code = exc.code or 0
        finally:
            tracer.uninstall()
            sys.stdout.flush()
            with open(argv[1], "w") as fh:
                json.dump(tracer.dump(), fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
