"""The repository's request-level benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``fig8-cold`` — ``fig8`` requests on ``specint`` kernel groups through an
  in-process ``Session(jobs=1, cache=False, backend="compiled")``.
* ``fig9-cold`` — the same for ``fig9``, whose timing records keep every
  slice on the python cycle loop.
* ``serve-mixed`` — the registered grid experiments on ``specint`` kernels
  against ``python -m repro serve --jobs 1 --backend compiled`` with a
  fresh in-memory sqlite store per server.

The load is one closed-loop client with one request outstanding.  Every
delivered report is compared with a reference computed on the python
backend, serially, with no store (untimed, once per checkout and source
tree; see ``reference.py``).  With ``--trace 0`` the last line of output
is a JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics of a traced run
(``spans.py``), whose spans are written to ``.perfbench/traces/``.  Each
run also leaves a record — provenance, and the median and quartiles
behind every metric — in ``.perfbench/runs/`` for ``compare.py``.

Everything the benchmark writes stays under ``.perfbench/`` at the root
of the checkout (kernel objects, references, server logs, run records and
traces).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
import mixes
from spans import durations, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Deadline of the measuring child (the whole run must end within 180 s).
MEASURE_TIMEOUT_S = 150

#: The set-up of the in-process workloads, timed from process start to the
#: ``ready`` line: imports, the session, and resolving (loading) the
#: compiled kernel.  The kernel compile itself is primed untimed.
SESSION_SETUP = (
    "from repro.api import Session\n"
    "from repro.uarch.backend import resolve_backend\n"
    "session = Session(jobs=1, cache=False, backend='compiled')\n"
    "print('ready', resolve_backend('compiled').name, flush=True)\n"
)

#: Imports everything the runs use (writing bytecode on a fresh checkout),
#: compiles the kernel if this checkout has not yet, and reports the
#: toolchain and the backend ``compiled`` resolves to.
PRIME = (
    "import json\n"
    "import repro.api, repro.api.service, repro.cli, repro.harness.experiments\n"
    "from repro.uarch.backend import resolve_backend\n"
    "from repro.uarch.compiled import build\n"
    "print(json.dumps({'backend': resolve_backend('compiled').name,\n"
    "                  'cc': build.toolchain()}))\n"
)

#: Environment variables that would point a run at a user's own store,
#: executor or backend choice.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_STORE", "REPRO_STORE_TOKEN",
                "REPRO_JOBS", "REPRO_FLEET", "REPRO_BACKEND")


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (printed, exit code 1)."""


def bench_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_KERNEL_CACHE"] = str(STATE / "kernels")
    env["TMPDIR"] = str(STATE / "tmp")
    return env


def python(code_or_args, env: dict, timeout: float = 600) -> str:
    """Run a Python child to completion and return its standard output.

    On timeout the child gets SIGTERM first, so that it can stop the
    server it may have started, and SIGKILL only if it does not end.
    """
    args = (["-c", code_or_args] if isinstance(code_or_args, str)
            else list(code_or_args))
    child = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
        raise BenchmarkError(f"{args[:2]} did not finish in {timeout} s")
    if child.returncode != 0:
        raise BenchmarkError(f"{args[:2]} failed ({child.returncode}):\n"
                             f"{stderr[-2000:]}")
    return stdout


def reference_key(workload: str) -> str:
    """Digest of the workload's request set and of every source file under
    ``src/``: a change to either needs new references."""
    hasher = hashlib.sha256(json.dumps(mixes.request_set(workload)).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:20]


def references(workload: str, env: dict) -> dict:
    """The workload's reference table, computed once per source tree.

    A checkout's first run computes the tables of every workload (about a
    minute, most of it ``serve-mixed``), so that no later run pays for one.
    """
    paths = {name: STATE / "refs" / f"{name}-{reference_key(name)}.json"
             for name in mixes.WORKLOADS}
    for name, path in paths.items():
        if not path.exists():
            partial = path.with_suffix(f".{os.getpid()}.tmp")
            python([str(HERE / "reference.py"), "--workload", name,
                    "--out", str(partial)], env)
            partial.replace(path)
    return json.loads(paths[workload].read_text())


def time_setup(workload: str, env: dict) -> float:
    """Seconds from process start until the workload can take requests."""
    if workload == "serve-mixed":
        with open(STATE / "tmp" / "setup-server.log", "w",
                  encoding="utf-8") as log:
            start = time.perf_counter()
            server, host, port = measure.start_server(
                measure.serve_command(), log, env)
            try:
                client = measure.ServeClient(host, port)
                client.healthz()
                elapsed = time.perf_counter() - start
                client.close()
            finally:
                measure.stop_server(server)
        return elapsed
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SESSION_SETUP], env=env,
                             cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    child.wait(timeout=60)
    if line.split() != ["ready", "compiled"]:
        raise BenchmarkError(f"set-up probe said {line!r}")
    return elapsed


def commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (all three equal for one value)."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples it is the
    largest sample.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / max(1, len(ordered))


def check(requests: list[dict], refs: dict) -> list[dict]:
    """Mark each request ok or failed against the references."""
    for record in requests:
        expected = refs.get(record["key"])
        if record["error"] is None and expected is None:
            record["error"] = "no reference for this request"
        elif record["error"] is None and record["digest"] != expected["digest"]:
            record["error"] = "report differs from the python reference"
        record["ok"] = record["error"] is None
    return requests


def end_to_end(requests: list[dict], peak_rss_kb: int, refs: dict,
               setups: list[float]) -> dict:
    """Every end-to-end metric, with the distribution behind it.

    Rates divide by the time a request was outstanding, not by the client's
    own time spent checking reports between requests.
    """
    ok = [record for record in requests if record["ok"] and record["timed"]]
    by_pass: dict[int, list] = {}
    for record in ok:
        by_pass.setdefault(record["pass"], []).append(record)

    def rates(group):
        busy = sum(record["latency_s"] for record in group)
        kinstr = sum(refs[record["key"]]["committed"] for record in group) / 1e3
        return (len(group) / busy, kinstr / busy) if busy else (0.0, 0.0)

    requests_per_s, kinstr_per_s = rates(ok)
    per_pass = [rates(group) for group in by_pass.values()]
    latencies = [1000.0 * record["latency_s"] for record in ok] or [0.0]
    tail_ms, percentile = tail(latencies)
    rss_mb = peak_rss_kb / 1024.0
    return {
        "latency_p50_ms": dict(spread(latencies),
                               value=statistics.median(latencies)),
        "latency_tail_ms": dict(spread(latencies), value=tail_ms,
                                percentile=percentile),
        "requests_per_s": dict(spread([rate for rate, _ in per_pass]),
                               value=requests_per_s),
        "sim_kinstr_per_s": dict(spread([rate for _, rate in per_pass]),
                                 value=kinstr_per_s),
        "peak_rss_mb": dict(spread([rss_mb]), value=rss_mb),
        "setup_s": dict(spread(setups), value=statistics.median(setups)),
    }


def per_layer(workload: str, result: dict) -> dict:
    """Every per-layer metric of a traced run (requests already checked)."""
    traced = [record for record in result["requests"] if record["traced"]]
    first = min(record["pass"] for record in traced)
    first_pass = [record for record in traced if record["pass"] == first]
    traced = [record for record in traced if record["timed"]]
    untraced = [record for record in result["requests"]
                if record["timed"] and not record["traced"]]
    metrics = layer_metrics(result["trace"], [r["tag"] for r in traced],
                            [r["tag"] for r in first_pass])
    overhead = 0.0
    if workload == "serve-mixed":
        jobs = durations(result["trace"]["spans"], "api.session")
        overhead = 1000.0 * statistics.mean(
            record["latency_s"] - jobs[record["tag"]]
            for record in traced if record["tag"] in jobs)
    metrics["api.service.overhead_ms"] = overhead
    metrics["api.service.polls"] = sum(record["polls"] for record in first_pass)
    metrics["trace.overhead_ms"] = 1000.0 * (
        statistics.median(record["latency_s"] for record in traced)
        - statistics.median(record["latency_s"] for record in untraced))
    return {name: {"value": value} for name, value in metrics.items()}


def main(argv=None) -> int:
    """Run one benchmark run and print its result as the last line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for sub in ("kernels", "tmp", "refs", "runs", "traces"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    env = bench_env()
    cpu = None
    if args.workload == "serve-mixed":
        # The client and the server hand each request back and forth, one
        # at a time.  Pinning both to one CPU keeps those hand-offs off a
        # second virtual CPU: on a shared 2-CPU host that halved the time
        # lost to other tenants (steal) and cut latencies by a fifth.  The
        # in-process workloads run a little faster unpinned.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})

    primed = json.loads(python(PRIME, env).splitlines()[-1])
    if primed["backend"] != "compiled":
        raise BenchmarkError(
            "the compiled backend is unavailable (no C compiler, or "
            "REPRO_NO_CC is set): every workload asks for backend='compiled' "
            "and would silently measure the python loop instead")
    refs = references(args.workload, env)
    setups = ([time_setup(args.workload, env) for _ in range(SETUP_REPEATS)]
              if not args.trace else [])

    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    out = scratch / "measure.json"
    python([str(HERE / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scratch", str(scratch),
            "--out", str(out)], env, timeout=MEASURE_TIMEOUT_S)
    result = json.loads(out.read_text())
    shutil.rmtree(scratch, ignore_errors=True)

    requests = check(result["requests"], refs)
    backends = result["backends"]
    if args.trace:
        metrics = per_layer(args.workload, result)
        wanted = contract["per_layer"]
        trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(result["trace"]))
    else:
        metrics = end_to_end(requests, result["peak_rss_kb"], refs, setups)
        wanted = contract["end_to_end"]
    if backends and set(backends) != {"compiled"}:
        raise BenchmarkError(f"pipelines resolved to {backends}, not only "
                             f"the compiled backend")
    for entry in wanted:
        metrics[entry["name"]]["unit"] = entry["unit"]
    failed = sum(1 for record in requests if not record["ok"])

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(), "cc": primed["cc"],
        "backend": "compiled", "pipelines": backends,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record = {"provenance": provenance, "metrics": metrics,
              "attempted": len(requests), "failed": failed,
              "errors": sorted({r["error"] for r in requests if r["error"]})}
    record_path = (STATE / "runs" / f"{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}-{time.time_ns()}.json")
    record_path.write_text(json.dumps(record, indent=1))
    print(f"perfbench: {json.dumps(provenance)}")
    print(f"perfbench: run record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(requests), "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]]["value"],
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
