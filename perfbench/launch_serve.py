"""``repro serve`` with the benchmark's timing shims installed.

Usage: ``python perfbench/launch_serve.py --trace-out PATH serve ...``
(everything after ``--trace-out PATH`` is handed to ``repro.cli.main``).
The shims record server-side spans, tagged with each job's id; when the
server shuts down (SIGTERM), the spans and counters are written to PATH.
"""

from __future__ import annotations

import json
import sys

from spans import Recorder, Shims


def main(argv: list[str]) -> int:
    """Install the shims, run the CLI, then write what they recorded."""
    if len(argv) < 3 or argv[0] != "--trace-out":
        print("usage: launch_serve.py --trace-out PATH serve [flags...]",
              file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[2:]
    from repro.cli import main as cli_main

    recorder = Recorder()
    with Shims(recorder):
        code = cli_main(cli_args)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(recorder.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
