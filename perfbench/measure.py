"""One measured run of a workload, in a process of its own.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and a pinned
hash seed.  It sends the workload's requests in a closed loop — one
request outstanding, the next sent when the previous report is in hand —
in whole seeded passes until ``--seconds`` have gone by (for
``serve-mixed``: after an untimed first pass that fills the store), and writes every
request's latency and report digest to ``--out``.  With ``--trace 1``
about half of the requests run under the timing shims of ``spans.py`` and
half without, so the difference between them is the tracing overhead.

``fig8-cold`` and ``fig9-cold`` call ``Session.run`` in this process, which
is therefore the one that simulates.  ``serve-mixed`` starts ``python -m
repro serve`` (traced: ``launch_serve.py``) with a fresh in-memory sqlite
store and talks HTTP to it; the server is the process that simulates.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import re
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mixes
from spans import Recorder, Shims

HERE = Path(__file__).resolve().parent

#: Flags of every ``repro serve`` the benchmark starts.  The store is an
#: in-memory sqlite database, fresh with each server: the file-backed tier
#: commits (and fsyncs) an LRU timestamp on every hit, which took about 40%
#: of a read request here and made its latency follow the shared disk —
#: 18-31% apart between runs, against 4% in memory.  The SQL, the payload
#: codec and the claims are the same code either way.
SERVE_FLAGS = ("serve", "--host", "127.0.0.1", "--port", "0",
               "--jobs", "1", "--backend", "compiled",
               "--store", "sqlite://:memory:")

#: Long-poll duration of one ``GET /jobs/<id>?wait=`` (the server caps 60).
POLL_WAIT_S = 30

#: How long a server may take to print its ``listening on`` line.
READY_TIMEOUT_S = 60.0


def digest(report_json: str) -> str:
    """SHA-256 of a report's ``to_json()`` text."""
    return hashlib.sha256(report_json.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------------


def serve_command(trace_out: Path | None = None) -> list[str]:
    """The command line of a benchmark server (traced: via the launcher)."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *SERVE_FLAGS]
    return [sys.executable, str(HERE / "launch_serve.py"),
            "--trace-out", str(trace_out), *SERVE_FLAGS]


def start_server(command: list[str], log,
                 env: dict | None = None) -> tuple[subprocess.Popen, str, int]:
    """Start a server; return it with its host and port once it listens."""
    server = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                              text=True, env=env)
    ready, _, _ = select.select([server.stdout], [], [], READY_TIMEOUT_S)
    line = server.stdout.readline() if ready else ""
    match = re.search(r"listening on http://([^:/\s]+):(\d+)", line)
    if match is None:
        stop_server(server)
        raise RuntimeError(f"server did not start (said {line!r}); "
                           f"see {getattr(log, 'name', 'its log')}")
    return server, match.group(1), int(match.group(2))


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM the server (a clean shutdown) and wait until it has ended."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    if server.stdout is not None:
        server.stdout.close()


def peak_rss_kb(pid: int) -> int:
    """Peak resident set size of a live process (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM line for process {pid}")


class ServeClient:
    """A keep-alive HTTP client for one ``repro serve``."""

    def __init__(self, host: str, port: int):
        """Connect lazily to ``host:port``."""
        self._connection = http.client.HTTPConnection(host, port, timeout=150)

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()    # reconnect on the next call
            raise
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} answered {response.status}: "
                               f"{data[:200]!r}")
        return json.loads(data)

    def healthz(self) -> None:
        """Raise unless the server answers its liveness probe."""
        self._call("GET", "/healthz")

    def run(self, request: dict) -> tuple[str, int, dict]:
        """Submit ``request`` and wait for it: (job id, polls, report dict)."""
        job_id = self._call("POST", "/experiments", request)["job_id"]
        polls = 0
        while True:
            polls += 1
            status = self._call("GET", f"/jobs/{job_id}?wait={POLL_WAIT_S}")
            if status["state"] in ("succeeded", "failed", "cancelled"):
                break
        if status["state"] != "succeeded":
            raise RuntimeError(f"job {job_id} ended {status['state']}: "
                               f"{status.get('error')}")
        return job_id, polls, status["report"]

    def close(self) -> None:
        """Close the connection."""
        self._connection.close()


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def closed_loop(workload: str, seed: int, seconds: float, send,
                before_pass=lambda index: False, min_passes: int = 1,
                clock_from_pass: int = 0) -> list:
    """Send whole seeded passes until ``seconds`` have gone by.

    ``send(request, tag)`` returns ``(report digest, polls, server tag)``
    or raises.  ``before_pass(index)`` runs before each pass and returns
    whether that pass is traced.  The clock starts with pass
    ``clock_from_pass``; earlier passes are checked and traced but marked
    untimed.  Returns one record per request.
    """
    records = []
    start = time.perf_counter()
    for pass_index, order in enumerate(mixes.passes(workload, seed)):
        if pass_index == clock_from_pass:
            start = time.perf_counter()
        traced = before_pass(pass_index)
        for request in order:
            tag = f"req-{len(records)}"
            sent = time.perf_counter()
            try:
                report_digest, polls, server_tag = send(request, tag)
                error = None
            except Exception as failure:  # noqa: BLE001 - counted as failed
                report_digest, polls, server_tag = None, 0, None
                error = f"{type(failure).__name__}: {failure}"
            records.append({
                "key": mixes.request_key(request), "pass": pass_index,
                "latency_s": time.perf_counter() - sent,
                "digest": report_digest, "error": error, "polls": polls,
                "tag": server_tag or tag, "traced": traced,
                "timed": pass_index >= clock_from_pass,
            })
        if (pass_index >= max(clock_from_pass, min_passes - 1)
                and time.perf_counter() - start >= seconds):
            break
    return records


def session_run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Drive ``Session.run`` in this process.

    A traced run alternates untraced and traced passes, so both halves see
    the same machine and the same warm process.
    """
    from repro.api import ExperimentRequest, Session

    recorder = Recorder()
    shims = Shims(recorder)
    with Session(jobs=1, cache=False, backend="compiled") as session:
        # The warm-up also reads which backend every pipeline resolved to.
        with Shims(recorder):
            session.run(ExperimentRequest.from_dict(mixes.warmup_request(workload)))
        backends = dict(recorder.backends)

        def before_pass(index):
            shims.uninstall()
            if traced and index % 2 == 1:
                shims.install()
                return True
            return False

        def send(request, tag):
            request = ExperimentRequest.from_dict(request)
            recorder.request = tag
            try:
                report = session.run(request)
            finally:
                recorder.request = None
            return digest(report.to_json()), 0, None

        try:
            requests = closed_loop(workload, seed, seconds, send, before_pass,
                                   min_passes=2 if traced else 1)
        finally:
            shims.uninstall()
    return {
        "requests": requests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backends": dict(recorder.backends) if traced else backends,
        "trace": recorder.to_json() if traced else None,
    }


def serve_phase(workload: str, seed: int, seconds: float, traced: bool,
                scratch: Path) -> dict:
    """Drive a fresh ``repro serve`` (traced: under ``launch_serve.py``)."""
    from repro.harness.experiments import ExperimentReport

    run_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    trace_out = run_dir / "spans.json" if traced else None
    with open(run_dir / "server.log", "w", encoding="utf-8") as log:
        server, host, port = start_server(
            serve_command(trace_out), log)
        client = ServeClient(host, port)
        try:
            client.run(mixes.warmup_request(workload))

            def send(request, tag):
                job_id, polls, report = client.run(request)
                text = ExperimentReport.from_dict(report).to_json()
                return digest(text), polls, job_id

            # The first pass fills the empty store and is left out of the
            # timed window.  Timed, it put its seven slowest requests (1-3 s
            # of simulation each) above the read requests, so the tail was
            # the third or fourth slowest read: a stray slow sample that
            # moved 20-25% between runs.  Its store traffic still shows in
            # the traced run's first-pass counts.
            requests = closed_loop(workload, seed, seconds, send,
                                   lambda index: traced, clock_from_pass=1)
            rss_kb = peak_rss_kb(server.pid)
        finally:
            client.close()
            stop_server(server)
    if server.returncode != 0:
        raise RuntimeError(f"server exited {server.returncode}; "
                           f"see {run_dir / 'server.log'}")
    trace = json.loads(trace_out.read_text()) if traced else None
    return {"requests": requests, "peak_rss_kb": rss_kb,
            "backends": trace["backends"] if traced else {}, "trace": trace}


def serve_run(workload: str, seed: int, seconds: float, traced: bool,
              scratch: Path) -> dict:
    """Drive ``repro serve``; a traced run uses two servers in turn, one
    plain and one under the shims, for half the time each."""
    if not traced:
        return serve_phase(workload, seed, seconds, False, scratch)
    plain = serve_phase(workload, seed, seconds / 2, False, scratch)
    result = serve_phase(workload, seed, seconds / 2, True, scratch)
    result["requests"] = plain["requests"] + result["requests"]
    return result


def main(argv=None) -> int:
    """Measure, and write the phases to ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # A SIGTERM from run.py still runs the finally blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.workload == "serve-mixed":
        result = serve_run(args.workload, args.seed, args.seconds,
                           bool(args.trace), Path(args.scratch))
    else:
        result = session_run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
