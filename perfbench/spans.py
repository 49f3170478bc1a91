"""Spans, counters and the timing shims of the traced benchmark run.

The shims wrap the public calls into each layer of the program from the
outside; nothing under ``src/`` knows about them.  Each wrapped call
records a span (name, start, end, parent span, request) in memory and, at
some boundaries, a count.  The request is a per-thread tag: the client
loop sets it to the request's id before an in-process call, and on a
``repro serve`` process the job runner sets it to the job id, so every
span of one request carries the same identifier.

Names are patched where callers look them up: module globals that a caller
imported by name (``repro.harness.executors.program_digest``,
``repro.harness.experiments.analyze_critical_path``) are replaced in the
caller's module, methods on their class.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

#: Span name -> the per-layer time metric its self time feeds.
TIME_METRICS = {
    "workloads.build": "workloads.build_ms",
    "harness.digest": "harness.digest_ms",
    "harness.reduce": "harness.reduce_ms",
    "api.session": "api.session.self_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "store.claim": "store.claim_ms",
    "functional.run": "functional.run_ms",
    "uarch.pipeline_init": "uarch.pipeline_init_ms",
    "uarch.compiled.prepare": "uarch.compiled.prepare_ms",
    "uarch.compiled.marshal_in": "uarch.compiled.marshal_in_ms",
    "uarch.compiled.kernel": "uarch.compiled.kernel_ms",
    "uarch.compiled.marshal_out": "uarch.compiled.marshal_out_ms",
    "uarch.python_loop": "uarch.python_loop_ms",
    "analysis.critpath": "analysis.critpath_ms",
}

#: Counters the shims keep, reported as per-layer count metrics.
COUNT_METRICS = (
    "store.hits", "store.misses", "store.puts",
    "functional.instructions",
    "uarch.compiled.slices",
    "uarch.compiled.fallback.unsupported",
    "uarch.compiled.fallback.marshal",
    "uarch.compiled.fallback.kernel",
    "harness.cells", "harness.cells_simulated",
    "uarch.sim_cycles", "core.eliminated",
)


class Recorder:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        """Start with no spans and no counts."""
        #: ``[name, start, end, parent index or None, request]`` per span.
        self.spans: list[list] = []
        #: ``(request, counter name) -> total``.
        self.counts: Counter = Counter()
        #: Resolved ``Pipeline.backend_name`` -> pipelines built with it.
        self.backends: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def request(self):
        """The request tag of the calling thread (None outside a request)."""
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on the calling thread; close it with :meth:`end`."""
        stack = self._stack()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, self.request]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        """Close ``span`` (the innermost open span of this thread)."""
        span[2] = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        return any(self.spans[index][0] == name for index in self._stack())

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` under the current request."""
        key = (self.request, name)
        with self._lock:
            self.counts[key] += amount

    def to_json(self) -> dict:
        """Everything recorded, JSON-safe (what the trace files hold)."""
        return {
            "spans": self.spans,
            "counts": [[request, name, total]
                       for (request, name), total in self.counts.items()],
            "backends": dict(self.backends),
        }


def self_seconds(spans: list[list], requests) -> dict[str, float]:
    """Total self time per span name, over spans tagged with ``requests``.

    A span's self time is its duration minus the durations of its direct
    children (children never outlive their parent: both are on one thread).
    """
    wanted = set(requests)
    child_time = defaultdict(float)
    for name, start, end, parent, request in spans:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, request) in enumerate(spans):
        if request in wanted and end is not None:
            totals[name] += end - start - child_time[index]
    return dict(totals)


def durations(spans: list[list], name: str) -> dict:
    """Request tag -> total duration of its spans called ``name``."""
    totals: dict = defaultdict(float)
    for span_name, start, end, _, request in spans:
        if span_name == name and end is not None:
            totals[request] += end - start
    return dict(totals)


def layer_metrics(trace: dict, timed_requests, first_pass) -> dict[str, float]:
    """Per-layer metrics from one traced run's :meth:`Recorder.to_json`.

    Time metrics are self milliseconds per timed request.  Count metrics
    are totals over the requests of the first pass, which are the same
    requests in every run of a workload whatever the seed, so a change
    that only speeds up the host leaves them identical.
    """
    timed = list(timed_requests)
    seconds = self_seconds(trace["spans"], timed)
    metrics = {metric: 1000.0 * seconds.get(name, 0.0) / max(1, len(timed))
               for name, metric in TIME_METRICS.items()}
    first = set(first_pass)
    totals = Counter()
    for request, name, total in trace["counts"]:
        if request in first:
            totals[name] += total
    for name in COUNT_METRICS:
        metrics[name] = totals[name]
    lookups = totals["store.hits"] + totals["store.misses"]
    metrics["store.hit_ratio"] = totals["store.hits"] / lookups if lookups else 0.0
    return metrics


class Shims:
    """Installs (and removes) the timing wrappers around each layer."""

    def __init__(self, recorder: Recorder):
        """Bind the wrappers to ``recorder``; nothing is patched yet."""
        self.recorder = recorder
        self._saved: list[tuple] = []

    def __enter__(self) -> "Shims":
        """Install every shim."""
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        """Restore every patched name."""
        self.uninstall()

    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, type):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        else:
            # Modules, and the frozen Experiment entries (object.__setattr__
            # is the documented way round a frozen dataclass).
            self._saved.append((owner, attr, getattr(owner, attr)))
            object.__setattr__(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)

    def _timed(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(args, result)`` counts."""
        recorder = self.recorder
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics name."""
        from repro.api import session as session_module
        from repro.functional.simulator import FunctionalSimulator
        from repro.harness import executors, experiments, spec
        from repro.store.disk import DiskStore
        from repro.store.http import HTTPStore
        from repro.store.sqlite import SqliteStore
        from repro.uarch.compiled import build
        from repro.uarch.compiled.backend import CompiledBackend
        from repro.uarch.compiled.marshal import KernelState, MarshalError
        from repro.uarch.core import Pipeline
        from repro.workloads.base import Workload

        recorder = self.recorder
        count = recorder.count

        self._timed(Workload, "build", "workloads.build")
        self._timed(executors, "program_digest", "harness.digest")
        self._timed(executors, "outcome_key", "harness.digest")
        for entry in spec.list_experiments():
            if entry.reduce is not None:
                self._timed(entry, "reduce", "harness.reduce")
        self._timed(experiments, "analyze_critical_path", "analysis.critpath")
        self._timed(session_module.Session, "_execute", "api.session")
        self._tag_jobs(session_module.Session)

        def after_get(args, outcome):
            count("store.misses" if outcome is None else "store.hits")

        for store in (DiskStore, SqliteStore, HTTPStore):
            self._timed(store, "get", "store.get", after_get)
            self._timed(store, "put", "store.put",
                        lambda args, result: count("store.puts"))
            self._timed(store, "claim", "store.claim")

        self._timed(FunctionalSimulator, "run", "functional.run",
                    lambda args, result: count("functional.instructions",
                                               result.dynamic_count))

        def after_init(args, result):
            with recorder._lock:
                recorder.backends[args[0].backend_name] += 1

        self._timed(Pipeline, "__init__", "uarch.pipeline_init", after_init)
        self._timed(Pipeline, "_run_cycles", "uarch.python_loop")
        self._timed(CompiledBackend, "prepare", "uarch.compiled.prepare")
        self._timed(CompiledBackend, "run_cycles", "uarch.compiled.run_cycles",
                    lambda args, result: count("uarch.compiled.slices"))

        def after_supports(args, supported):
            # prepare() asks too; only a refusal inside a slice is a fallback.
            if not supported and recorder.inside("uarch.compiled.run_cycles"):
                count("uarch.compiled.fallback.unsupported")

        self._timed(CompiledBackend, "supports", "uarch.compiled.supports",
                    after_supports)

        marshal_in = KernelState.marshal_in

        @functools.wraps(marshal_in)
        def traced_marshal_in(state, *args, **kwargs):
            span = recorder.begin("uarch.compiled.marshal_in")
            try:
                return marshal_in(state, *args, **kwargs)
            except MarshalError:
                count("uarch.compiled.fallback.marshal")
                raise
            finally:
                recorder.end(span)

        self._patch(KernelState, "marshal_in", traced_marshal_in)
        self._timed(KernelState, "marshal_out", "uarch.compiled.marshal_out")
        self._patch(build, "load_kernel", self._traced_loader(build.load_kernel))

        def after_simulate(args, outcome):
            stats = outcome.stats
            count("harness.cells_simulated")
            count("uarch.sim_cycles", stats.cycles)
            count("core.eliminated", stats.eliminated_moves
                  + stats.eliminated_folds + stats.eliminated_cse
                  + stats.eliminated_ra)

        self._timed(executors, "simulate", "core.simulate", after_simulate)
        self._timed(executors, "run_workload_block", "harness.block",
                    lambda args, block: count("harness.cells", len(block)))

    def _tag_jobs(self, session_class) -> None:
        """Tag everything a ``repro serve`` job runs with its job id."""
        recorder = self.recorder
        run_job = session_class._run_job

        @functools.wraps(run_job)
        def tagged_run_job(session, job, *args, **kwargs):
            previous, recorder.request = recorder.request, job.job_id
            try:
                return run_job(session, job, *args, **kwargs)
            finally:
                recorder.request = previous

        self._patch(session_class, "_run_job", tagged_run_job)

    def _traced_loader(self, load_kernel):
        """Wrap the kernel entry ``load_kernel`` hands out in a span that
        counts nonzero return codes (each one replays the slice on the
        python loop)."""
        from repro.uarch.compiled.emit import ERR_OK

        recorder = self.recorder
        wrapped: dict = {}

        @functools.wraps(load_kernel)
        def traced_load_kernel():
            kernel = load_kernel()
            if kernel is None:
                return None
            if id(kernel) not in wrapped:
                def traced_kernel(*args):
                    span = recorder.begin("uarch.compiled.kernel")
                    try:
                        code = kernel(*args)
                    finally:
                        recorder.end(span)
                    if code != ERR_OK:
                        recorder.count("uarch.compiled.fallback.kernel")
                    return code

                wrapped[id(kernel)] = (kernel, traced_kernel)
            return wrapped[id(kernel)][1]

        return traced_load_kernel
