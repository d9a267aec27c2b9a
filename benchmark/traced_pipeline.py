"""Run one regsent CLI command with every layer traced.

    python traced_pipeline.py TRACE_JSON RUN_ID pipeline --config C --out D

regsent must be importable (run.py puts the checkout's src on PYTHONPATH).
The spans are written to TRACE_JSON when the command returns; the exit code
is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer


def main(argv: list[str]) -> int:
    trace_path, run_id, *command = argv
    tracer = Tracer(run_id)
    tracer.install()
    import regsent.cli

    code = regsent.cli.main(command)
    tracer.dump(Path(trace_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
