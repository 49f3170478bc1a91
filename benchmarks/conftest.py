"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/figure of the paper.  The benchmark
timer measures how long the experiment takes to run; the experiment's table
(the actual reproduction artifact) is printed and compared byte for byte
with the committed ``benchmarks/results/<name>.txt``: any difference fails
the test with a unified diff.  Pass ``--update-golden`` to rewrite the
committed tables instead.

The workload subsets below keep every benchmark in the tens-of-seconds range;
pass ``--full-suites`` to run every kernel of both suites (slow).  A
full-suite run only prints its tables: the committed ones are of the
subsets, so it neither compares nor writes them.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Representative subsets used by default (full suites are available with
#: ``--full-suites`` but take much longer in pure Python).
SPEC_SUBSET = ["gzip_like", "vortex_like", "crafty_like", "parser_like", "twolf_like"]
MEDIA_SUBSET = ["adpcm_decode_like", "gsm_decode_like", "jpeg_encode_like",
                "epic_like", "mpeg2_encode_like"]
CRITPATH_SPEC_SUBSET = ["gzip_like", "parser_like", "vortex_like"]
CRITPATH_MEDIA_SUBSET = ["adpcm_decode_like", "gsm_decode_like", "mpeg2_encode_like"]


def pytest_addoption(parser):
    parser.addoption("--full-suites", action="store_true", default=False,
                     help="run every workload of both suites in each benchmark")
    parser.addoption("--update-golden", action="store_true", default=False,
                     help="rewrite benchmarks/results/*.txt instead of "
                          "comparing against them")


@pytest.fixture
def suite_subsets(request):
    """(spec_workloads, media_workloads) — None means the full suite."""
    if request.config.getoption("--full-suites"):
        return None, None
    return SPEC_SUBSET, MEDIA_SUBSET


@pytest.fixture
def save_report(request):
    """Print an ExperimentReport and check it against benchmarks/results/."""
    full_suites = request.config.getoption("--full-suites")
    update = request.config.getoption("--update-golden")

    def _save(report, filename: str):
        text = str(report) + "\n"
        print("\n" + text, end="")
        if full_suites:
            return report
        golden = RESULTS_DIR / filename
        if update:
            RESULTS_DIR.mkdir(exist_ok=True)
            golden.write_text(text)
            return report
        expected = golden.read_text() if golden.exists() else ""
        if text != expected:
            diff = "".join(difflib.unified_diff(
                expected.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"committed {filename}",
                tofile=f"regenerated {filename}"))
            pytest.fail(f"{filename} differs from the committed table "
                        f"(rerun with --update-golden to accept):\n{diff}",
                        pytrace=False)
        return report

    return _save
