"""One cycle4 command with spans installed, for the traced cold-CLI run.

    python3 -X importtime bench/traced_cli.py SUMMARY.json COMMAND ARGS...

Times the import of ``cycle4.cli``, runs ``cycle4.cli.main`` on the
arguments with every public function wrapped, and writes the import time
and the span totals to SUMMARY.json.  Spans go next to it as JSON lines.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer
from worker import loaded_modules

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    summary_path = Path(sys.argv[1])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cycle4.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(loaded_modules())
    try:
        code = cycle4.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    tracer.dump_spans(summary_path.with_suffix(".spans.jsonl"))
    summary_path.write_text(json.dumps({"import_s": import_s, "trace": tracer.summary()}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
