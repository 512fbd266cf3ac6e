"""Run the fracdelay CLI in this process under the span tracer.

    python3 perfbench/cli_traced.py SPANS.json CLI-ARGS...

Behaves like ``python -m fracdelay CLI-ARGS...`` (same stdout, stderr and
exit code) and writes the recorded spans, the import of ``fracdelay.cli``
first, to SPANS.json.  The benchmark's traced pass of the cli-fixtures
workload runs each CLI op through this script.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fracdelay.cli
    t1 = time.perf_counter()
    from tracing import Span, Tracer
    tracer = Tracer()
    tracer.spans.append(Span(0, None, "cli.import", "import", t0, t1))
    try:
        with tracer.installed():
            return fracdelay.cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.records()))


if __name__ == "__main__":
    sys.exit(main())
