"""Two real ``repro serve`` processes sharing one result store.

The acceptance shape of cross-*process* coalescing: two independent
``python -m repro serve`` subprocesses (separate Sessions, separate
heaps) pointed at the same ``sqlite://`` store receive the identical
request at the same time.  Exactly one of them simulates; both answer
with byte-identical reports; ``GET /store/stats`` on each side proves
it (the cells were stored once, and no duplicate put ever landed).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
WORKLOADS = ["micro_addi_chain", "micro_call_spill"]

REQUEST = {"experiment": "fig8", "suite": "micro", "workloads": WORKLOADS,
           "scale": 1, "params": {}}

#: fig8 over two workloads: 2 workloads x 2 machines x 2 RENO configs.
EXPECTED_CELLS = 8


def call(base, path, payload=None, timeout=300.0):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture
def servers(tmp_path):
    """Two `repro serve` subprocesses over one sqlite:// store locator."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    locator = f"sqlite://{tmp_path / 'store.sqlite3'}"
    procs, bases = [], []
    try:
        for _ in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "1", "--store", locator],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                text=True)
            procs.append(proc)
            line = proc.stdout.readline()
            assert "listening on " in line, line
            bases.append(line.rsplit(" ", 1)[-1].strip())
        yield bases
    finally:
        outputs = []
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                output, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                output, _ = proc.communicate()
            outputs.append(output)
        assert all("shut down cleanly" in output for output in outputs), \
            "\n---\n".join(outputs)


def test_two_serve_processes_coalesce_through_the_store(servers):
    # Race the identical request into both servers at once.
    submissions: dict[int, dict] = {}

    def submit(index: int) -> None:
        submissions[index] = call(servers[index], "/experiments", REQUEST)

    threads = [threading.Thread(target=submit, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert set(submissions) == {0, 1}

    reports = []
    for index, base in enumerate(servers):
        job_id = submissions[index]["job_id"]
        status = call(base, f"/jobs/{job_id}?wait=300")
        assert status["state"] == "succeeded", status
        reports.append(json.dumps(status["report"], sort_keys=True))
    assert reports[0] == reports[1]            # byte-identical, not just equal

    # Exactly one simulation across both processes: every cell stored
    # once, zero duplicate puts racing in behind the winner.
    stats = [call(base, "/store/stats") for base in servers]
    assert sum(s["stores"] for s in stats) == EXPECTED_CELLS
    assert sum(s["duplicate_puts"] for s in stats) == 0
    # Every cell plus the one report memo, written once.
    assert all(s["entries"] == EXPECTED_CELLS + 1 for s in stats)
