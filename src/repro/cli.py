"""Unified command-line interface: ``python -m repro``.

Six subcommands cover the whole harness without writing Python:

* ``python -m repro list`` — every registered experiment (registry-driven),
  plus ``--workloads`` for the workload suites.
* ``python -m repro run fig8 [--suite S] [--workloads W ...] [--scale N]
  [--jobs auto|N] [--cache | --no-cache | --cache-dir DIR] [--json PATH]
  [--stats]``
  — run an experiment through the :class:`repro.api.session.Session`
  facade, print the report table and optionally write the JSON artifact
  (:meth:`~repro.harness.experiments.ExperimentReport.to_json`, exact
  round-trip via ``from_json``).  ``--stats`` renders the report's
  occupancy/utilization section (recorded by e.g. the ``bottleneck``
  experiment) as an extra table.
* ``python -m repro cache [--clear]`` — inspect or wipe the result store
  (``$REPRO_STORE`` when set, else the ``$REPRO_CACHE_DIR`` store): its
  locator, entry count and total bytes.
* ``python -m repro serve [--host H] [--port P] [--jobs auto|N]
  [--workers N] [--session-workers N] [cache flags]`` — run the
  JSON-over-HTTP service (:mod:`repro.api.service`) until SIGINT/SIGTERM.
  ``--workers N`` (N > 0) executes grids on a distributed fleet of N
  worker *processes* behind a lease broker (:mod:`repro.api.fleet`);
  the default 0 keeps the in-process executors.
* ``python -m repro worker --server URL [--worker-id ID] [--store LOCATOR
  --store-token T]`` — run one fleet worker pulling cell leases from a
  broker (:mod:`repro.api.worker`); normally spawned by the fleet itself,
  but startable by hand to attach extra capacity to a running ``serve
  --workers`` broker.  ``--store http://host:port`` commits outcomes to a
  shared result store instead of a filesystem path, so cross-host workers
  need no shared directory.
* ``python -m repro store-serve [--host H] [--port P] [--db PATH]
  [--token T] [--max-bytes N] [--ttl S]`` — run the shared
  content-addressed result store (:mod:`repro.store.http`) that sessions,
  services and fleet workers point at with ``--store`` /
  ``$REPRO_STORE``; see ``docs/store.md``.
* ``python -m repro submit fig8 [grid flags] [--server URL] [--wait]
  [--json PATH]`` — POST a request to a running server; ``--wait``
  long-polls until the job finishes and prints the report.
* ``python -m repro status JOB_ID [--server URL] [--wait S] [--json PATH]``
  — fetch one job's status/report from a running server.
* ``python -m repro lint [paths] [--rule R] [--json [PATH]]
  [--update-baseline [--force]]`` — run the AST-based invariant linter
  (:mod:`repro.lint`): determinism, lock discipline, wire-schema freeze,
  snapshot coverage, plus the docs/docstring gates.  Exits 1 on findings;
  see ``docs/linting.md``.

Caching follows the library defaults: enabled when ``$REPRO_STORE`` or
``$REPRO_CACHE_DIR`` is set, unless forced with ``--cache`` /
``--no-cache`` / ``--cache-dir`` / ``--store``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The shared --cache / --no-cache / --cache-dir / --store flag group."""
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument("--cache", action="store_true",
                             help="force the default-location outcome cache on")
    cache_group.add_argument("--no-cache", action="store_true",
                             help="force the outcome cache off")
    cache_group.add_argument("--cache-dir", metavar="DIR",
                             help="use an outcome cache rooted at DIR")
    cache_group.add_argument("--store", metavar="LOCATOR",
                             help="use a shared result store: sqlite://PATH "
                                  "or http://host:port of a `repro "
                                  "store-serve` (see docs/store.md)")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The shared experiment-grid flags (suite / workloads / scale)."""
    parser.add_argument("experiment",
                        help="registry name (see `python -m repro list`)")
    parser.add_argument("--suite", default=None,
                        help="workload suite (default: the experiment's own)")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="explicit workload subset (default: the full suite)")
    parser.add_argument("--scale", default="1", metavar="N|N,N,...",
                        help="workload scale factor; scale_sweep also accepts a "
                             "comma-separated list of scales (e.g. 1,2,4,8)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, list, serve and cache the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a registered experiment and print / save its report")
    _add_grid_flags(run)
    run.add_argument("--jobs", default=None, metavar="N|auto",
                     help="worker processes: an integer, 'auto' (one per "
                          "CPU; the default) or 'fleet'")
    run.add_argument("--backend", default=None, metavar="NAME",
                     help="cycle-loop backend: python|compiled (default: "
                          "$REPRO_BACKEND, else python; an unavailable "
                          "backend degrades to python with identical "
                          "results)")
    _add_cache_flags(run)
    run.add_argument("--json", metavar="PATH", dest="json_path",
                     help="write the report as a JSON artifact to PATH "
                          "('-' for stdout)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the report table on stdout")
    run.add_argument("--stats", action="store_true",
                     help="also print the per-cell occupancy/utilization "
                          "table (experiments that record occupancy, e.g. "
                          "bottleneck)")

    lst = sub.add_parser("list", help="list registered experiments")
    lst.add_argument("--workloads", action="store_true",
                     help="also list the workload suites and their kernels")

    cache = sub.add_parser("cache", help="inspect or clear the outcome cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cache entry")

    serve = sub.add_parser(
        "serve", help="run the JSON-over-HTTP experiment service")
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default 8765; 0 = any free port)")
    serve.add_argument("--jobs", default=None, metavar="N|auto",
                       help="worker processes per experiment grid "
                            "(in-process backends; ignored with --workers)")
    serve.add_argument("--workers", type=int, default=0,
                       help="fleet worker processes behind a lease broker "
                            "(0 = in-process execution, the default)")
    serve.add_argument("--session-workers", type=int, default=2,
                       help="concurrent jobs the session runs (default 2)")
    serve.add_argument("--backend", default=None, metavar="NAME",
                       help="cycle-loop backend for every run this service "
                            "executes: python|compiled (default: "
                            "$REPRO_BACKEND, else python)")
    _add_cache_flags(serve)

    worker = sub.add_parser(
        "worker", help="run one fleet worker against a repro broker")
    worker.add_argument("--server", required=True, metavar="URL",
                        help="fleet broker base URL (http://host:port)")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable worker identity (default worker-<pid>)")
    worker.add_argument("--poll-wait", type=float, default=5.0, metavar="S",
                        help="long-poll window per lease request (default 5s)")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit cleanly after N cells (default: unbounded)")
    worker.add_argument("--backend", default=None, metavar="NAME",
                        help="cycle-loop backend for every leased cell: "
                             "python|compiled (default: what each lease "
                             "asks for)")
    worker.add_argument("--store", default=None, metavar="LOCATOR",
                        help="result-store override for every cell (path, "
                             "sqlite://PATH or http://host:port; default: "
                             "what each cell quotes)")
    worker.add_argument("--store-token", default=None, metavar="TOKEN",
                        help="bearer token for an HTTP store "
                             "(default: $REPRO_STORE_TOKEN)")

    store_serve = sub.add_parser(
        "store-serve",
        help="run the shared result-store HTTP server (see docs/store.md)")
    store_serve.add_argument("--host", default=None,
                             help="bind address (default 127.0.0.1)")
    store_serve.add_argument("--port", type=int, default=None,
                             help="TCP port (default 8878; 0 = any free port)")
    store_serve.add_argument("--db", default=None, metavar="PATH",
                             help="backing sqlite database (default: "
                                  "store.sqlite3 in the cache directory)")
    store_serve.add_argument("--token", default=None, metavar="TOKEN",
                             help="require this bearer token "
                                  "(default: $REPRO_STORE_TOKEN; empty = "
                                  "no auth)")
    store_serve.add_argument("--max-bytes", type=int, default=None,
                             metavar="N",
                             help="LRU-evict beyond N payload bytes")
    store_serve.add_argument("--ttl", type=float, default=None, metavar="S",
                             help="expire entries idle for S seconds")

    submit = sub.add_parser(
        "submit", help="submit an experiment to a running `repro serve`")
    _add_grid_flags(submit)
    submit.add_argument("--server", default=None, metavar="URL",
                        help="service base URL (default http://127.0.0.1:8765)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print the report")
    submit.add_argument("--json", metavar="PATH", dest="json_path",
                        help="with --wait: write the report JSON to PATH "
                             "('-' for stdout)")
    submit.add_argument("--stats", action="store_true",
                        help="with --wait: also print the occupancy/"
                             "utilization table when the report carries one")

    lint = sub.add_parser(
        "lint", help="run the AST-based invariant linter (see docs/linting.md)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src/)")
    lint.add_argument("--rule", action="append", metavar="RULE",
                      dest="rules",
                      help="run only this rule (repeatable; see --list-rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument("--json", nargs="?", const="-", default=None,
                      metavar="PATH", dest="json_path",
                      help="emit the findings report as JSON to PATH "
                           "(default '-': stdout)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="wire-schema baseline path (default "
                           "scripts/schema_baseline.json)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="regenerate the wire-schema baseline from the "
                           "current schema module and exit")
    lint.add_argument("--force", action="store_true",
                      help="with --update-baseline: proceed despite "
                           "uncommitted schema edits or a missing version "
                           "bump")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help=argparse.SUPPRESS)  # test hook: lint another tree

    status = sub.add_parser(
        "status", help="query a job on a running `repro serve`")
    status.add_argument("job_id", help="job id returned by submit")
    status.add_argument("--server", default=None, metavar="URL",
                        help="service base URL (default http://127.0.0.1:8765)")
    status.add_argument("--wait", type=float, default=0.0, metavar="S",
                        help="long-poll up to S seconds for a terminal state")
    status.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write the status payload as JSON to PATH "
                             "('-' for stdout)")

    return parser


def _resolve_cache_arg(args) -> object:
    """Map the cache/store flag group onto the library ``cache=`` forms."""
    if args.cache:
        return True
    if args.no_cache:
        return False
    if args.cache_dir:
        return args.cache_dir
    if getattr(args, "store", None):
        return args.store
    return None


def _parse_scales(text: str) -> list[int]:
    """Parse the ``--scale`` value: one integer or a comma-separated list."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--scale expects an integer or a comma list, got {text!r}")
    if not values or any(value < 1 for value in values):
        raise ValueError(f"--scale values must be >= 1, got {text!r}")
    return values


def _resolve_scale_params(experiment: str, scales: list[int]) -> tuple[int, dict]:
    """Map a parsed ``--scale`` list onto (scale, params) for one experiment.

    ``scale_sweep`` takes the whole (deduplicated) list through
    ``params["scales"]``; every other experiment takes exactly one scale —
    a list raises ValueError with the usage message.  Shared by ``run``
    (local) and ``submit`` (wire) so both validate identically.
    """
    if experiment == "scale_sweep":
        # Scales are the sweep's own axis: route any --scale value (one
        # integer or a list, duplicates dropped) through scales=.
        return 1, {"scales": list(dict.fromkeys(scales))}
    if len(scales) == 1:
        return scales[0], {}
    raise ValueError(f"only scale_sweep accepts a list of scales; "
                     f"pass a single --scale to {experiment}")


def _cmd_run(args) -> int:
    from repro.harness.spec import get_experiment

    try:
        entry = get_experiment(args.experiment)
        scale, params = _resolve_scale_params(
            entry.name, _parse_scales(args.scale))
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        # The CLI is a thin client of the Session facade (the same surface
        # `repro serve` exposes over HTTP); jobs=None honors $REPRO_JOBS and
        # otherwise defaults to "auto".
        from repro.api.session import default_session

        report = default_session().run_experiment(
            entry.name,
            suite=args.suite,
            workloads=args.workloads,
            scale=scale,
            jobs=args.jobs,
            cache=_resolve_cache_arg(args),
            backend=args.backend,
            **params,
        )
    except (KeyError, ValueError) as error:
        from repro.harness.runner import MatrixLookupError, ZeroCycleError

        if isinstance(error, (MatrixLookupError, ZeroCycleError)):
            # A broken simulation, not a usage error — surface the full
            # traceback rather than a quiet exit-2 message.
            raise
        # Unknown workloads/suites and malformed grids arrive here; show the
        # message without a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2

    _emit_report(report, args.json_path, quiet=args.quiet, stats=args.stats)
    return 0


def _cmd_list(args) -> int:
    from repro.harness.spec import list_experiments

    entries = list_experiments()
    width = max(len(entry.name) for entry in entries)
    print("experiments:")
    for entry in entries:
        suite = f" [suite: {entry.default_suite}]"
        print(f"  {entry.name:<{width}}  {entry.title} — {entry.description}{suite}")
    print(f"\nrun one with: python -m repro run {entries[0].name} "
          f"[--workloads ...] [--json out.json]")

    if args.workloads:
        from repro.workloads.base import list_workloads

        by_suite: dict[str, list[str]] = {}
        for workload in list_workloads():
            by_suite.setdefault(workload.suite, []).append(workload.name)
        print("\nworkloads:")
        for suite_name, names in sorted(by_suite.items()):
            print(f"  {suite_name}: {', '.join(names)}")
    return 0


def _cmd_cache(args) -> int:
    from repro.store.base import STORE_ENV, open_store
    from repro.store.disk import DiskStore

    locator = os.environ.get(STORE_ENV)
    store = open_store(locator) if locator else DiskStore()
    payload = store.stats_payload()
    print(f"store:       {store.locator}")
    print(f"entries:     {payload['entries']}")
    print(f"total bytes: {payload['bytes']}")
    if args.clear:
        if not hasattr(store, "clear"):
            print(f"error: the store at {store.locator} cannot be cleared "
                  f"from here", file=sys.stderr)
            return 2
        print(f"removed:     {store.clear()}")
    return 0


def _cmd_serve(args) -> int:
    from repro.api.service import DEFAULT_HOST, DEFAULT_PORT, serve
    from repro.api.session import Session

    executor = None
    if args.workers > 0:
        # Distributed execution: grids shard across worker processes behind
        # a lease broker; the session owns (and closes) the fleet.  The
        # session's resolved cache is threaded into execute() per run, so
        # workers share it; without one the fleet uses a private temp cache
        # for result transport.
        from repro.api.fleet import FleetExecutor

        executor = FleetExecutor(workers=args.workers)
    session = Session(jobs=args.jobs, cache=_resolve_cache_arg(args),
                      executor=executor, backend=args.backend,
                      workers=max(1, args.session_workers))
    return serve(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        session=session,
    )


def _cmd_worker(args) -> int:
    from repro.api.worker import FleetWorker

    worker = FleetWorker(args.server, args.worker_id,
                         poll_wait_s=args.poll_wait,
                         max_cells=args.max_cells,
                         backend=args.backend,
                         store=args.store,
                         store_token=args.store_token)
    return worker.run()


def _cmd_store_serve(args) -> int:
    from repro.api.http import run_until_signalled
    from repro.store.disk import DiskStore, default_cache_root
    from repro.store.http import DEFAULT_HOST, DEFAULT_PORT, StoreServer
    from repro.store.schema import TOKEN_ENV
    from repro.store.sqlite import SqliteStore

    db = args.db or str(default_cache_root() / DiskStore.DATABASE)
    token = args.token if args.token is not None \
        else os.environ.get(TOKEN_ENV)
    backing = SqliteStore(db, max_bytes=args.max_bytes, ttl_s=args.ttl)
    server = StoreServer(
        (args.host if args.host is not None else DEFAULT_HOST,
         args.port if args.port is not None else DEFAULT_PORT),
        backing, token=token)
    print(f"repro store-serve: listening on {server.url} "
          f"(db {db}, auth {'on' if token else 'off'})", flush=True)
    return run_until_signalled(server, "repro store-serve", backing.close)


def _server_url(args) -> str:
    from repro.api.service import DEFAULT_HOST, DEFAULT_PORT

    url = args.server or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    return url.rstrip("/")


def _http_json(url: str, payload: dict | None = None, timeout: float = 120.0) -> dict:
    """One JSON request against a running service (POST when payload given)."""
    from repro.api.http import TransportError, request

    try:
        status, body = request("POST" if payload is not None else "GET", url,
                               payload, timeout=timeout)
    except TransportError as error:
        raise SystemExit(f"error: cannot reach {url} ({error}); "
                         f"is `python -m repro serve` running?")
    if status >= 400:
        try:
            detail = json.loads(body).get("error", "")
        except (ValueError, AttributeError):
            detail = ""
        raise SystemExit(f"error: server returned {status} for {url}"
                         + (f": {detail}" if detail else ""))
    return json.loads(body)


def _write_artifact(text: str, json_path: str) -> None:
    """Write a JSON artifact to PATH, or stdout for ``-``."""
    if json_path == "-":
        print(text)
        return
    path = Path(json_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _emit_report(report, json_path: str | None, quiet: bool,
                 stats: bool = False) -> None:
    """Print an ``ExperimentReport`` and/or write it as a JSON artifact.

    With ``stats=True`` the report's occupancy section (when present) is
    rendered as a utilization table after the main one; a report without
    one gets a pointer to the ``bottleneck`` experiment instead.
    """
    if not quiet:
        print(report)
    if stats:
        if report.occupancy:
            from repro.analysis.report import format_occupancy_table

            print()
            print(format_occupancy_table(report.occupancy))
        else:
            print("note: this report carries no occupancy section; run an "
                  "experiment that records it (e.g. `python -m repro run "
                  "bottleneck`)", file=sys.stderr)
    if json_path:
        _write_artifact(report.to_json(), json_path)


def _cmd_submit(args) -> int:
    try:
        scales = _parse_scales(args.scale)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        # Same client-side validation as `repro run` (shared helper): a
        # clear usage error beats a server-side TypeError after the job ran.
        scale, params = _resolve_scale_params(args.experiment, scales)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    base = _server_url(args)
    body = {
        "experiment": args.experiment,
        "suite": args.suite,
        "workloads": args.workloads,
        "scale": scale,
        "params": params,
    }
    submitted = _http_json(f"{base}/experiments", payload=body)
    job_id = submitted.get("job_id", "")
    coalesced = " (coalesced onto an identical in-flight job)" \
        if submitted.get("coalesced") else ""
    print(f"submitted {args.experiment}: job {job_id}"
          f" [{submitted.get('state', '?')}]{coalesced}", file=sys.stderr)
    if not args.wait:
        print(job_id)
        return 0

    while True:
        status = _http_json(f"{base}/jobs/{job_id}?wait=30")
        state = status.get("state")
        if state in ("succeeded", "failed", "cancelled"):
            break
        done, total = status.get("cells_done", 0), status.get("cells_total")
        print(f"job {job_id}: {state}, {done}/{total if total is not None else '?'} "
              f"cells", file=sys.stderr)
    if state == "succeeded":
        from repro.harness.experiments import ExperimentReport

        _emit_report(ExperimentReport.from_dict(status["report"]),
                     args.json_path, quiet=False, stats=args.stats)
        return 0
    print(f"error: job {job_id} {state}"
          + (f": {status.get('error')}" if status.get("error") else ""),
          file=sys.stderr)
    return 1


def _cmd_lint(args) -> int:
    from repro.lint import runner as lint_runner

    if args.list_rules:
        from repro.lint.base import all_checkers

        width = max(len(checker.name) for checker in all_checkers())
        for checker in all_checkers():
            print(f"  {checker.name:<{width}}  [{checker.scope}] "
                  f"{checker.description}")
        return 0

    if args.update_baseline:
        try:
            path = lint_runner.update_baseline(
                args.root,
                baseline=args.baseline or lint_runner.DEFAULT_BASELINE,
                force=args.force)
        except lint_runner.LintUsageError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {path}", file=sys.stderr)
        return 0

    try:
        findings = lint_runner.run_lint(
            args.paths or None, rules=args.rules, root=args.root,
            baseline=args.baseline)
    except lint_runner.LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json_path:
        _write_artifact(lint_runner.format_json(findings), args.json_path)
        if args.json_path != "-" and findings:
            print(lint_runner.format_text(findings), file=sys.stderr)
    else:
        print(lint_runner.format_text(findings))
    return 1 if findings else 0


def _cmd_status(args) -> int:
    import time

    base = _server_url(args)
    # The server clamps one long-poll to 60s; loop until the caller's
    # deadline so `--wait 300` really waits up to 300 seconds.
    deadline = time.monotonic() + max(0.0, args.wait)
    while True:
        remaining = deadline - time.monotonic()
        suffix = f"?wait={min(30.0, remaining):g}" if remaining > 0 else ""
        status = _http_json(f"{base}/jobs/{args.job_id}{suffix}")
        state = status.get("state")
        if state in ("succeeded", "failed", "cancelled") \
                or deadline - time.monotonic() <= 0:
            break
    done, total = status.get("cells_done", 0), status.get("cells_total")
    print(f"job {status.get('job_id')}: {state}, "
          f"{done}/{total if total is not None else '?'} cells "
          f"({status.get('cells_cached', 0)} cached)", file=sys.stderr)
    if args.json_path:
        _write_artifact(json.dumps(status, indent=2), args.json_path)
    elif state == "succeeded":
        from repro.harness.experiments import ExperimentReport

        _emit_report(ExperimentReport.from_dict(status["report"]),
                     None, quiet=False)
    elif status.get("error"):
        print(f"error: {status['error']}", file=sys.stderr)
    return 0 if state != "failed" else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "store-serve":
        return _cmd_store_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_cache(args)


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
