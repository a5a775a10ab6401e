"""In-memory span recorder and the per-layer instrumentation of the
traced run.

The program itself carries no spans yet, so the traced run records them
from here: :class:`Instrumentation` wraps the public entry point of each
layer (see :meth:`Instrumentation.install`) for the duration of the
traced phase and restores the originals afterwards.

A span is ``name, start, end, parent, statement id`` plus a few
attributes.  Spans nest through a per-thread stack; two links cross
threads and are made explicitly:

* client request -> ``ReproServer.execute`` / ``.insert``: the client
  registers its open span under its session id, and the server span
  adopts it as parent;
* ``ReproServer`` handler thread -> worker thread: the work item the
  server queues is wrapped so the worker runs it under the handler's span.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: plan operators whose self time the ledger reports
LEDGER_OPERATORS = (
    "NestedLoopJoin", "IndexScan", "HashJoin", "TableScan", "GroupBy", "Sort",
)

#: span name -> per-layer self-time metric that absorbs it
SELF_TIME_METRIC = {
    "sql.parse": "sql.parse_ms",
    "qtree.build": "qtree.build_ms",
    "transform.heuristic": "transform.heuristic_ms",
    "cbqt.optimize": "cbqt.search_ms",
    "optimizer.physical": "optimizer.physical_ms",
    "engine.execute": "engine.execute_ms",
    "engine.codegen": "engine.codegen_ms",
    "service.execute": "service.lookup_ms",
    "server.handle": "server.handle_ms",
    "durability.insert": "durability.insert_ms",
    "catalog.analyze": "catalog.analyze_ms",
}

#: span names that record calls on each workload (the layer-coverage
#: guard): a refactor that moves an entry point fails the traced run
#: instead of silently zeroing a layer
REQUIRED_SPANS = {
    "hard_parse": (
        "sql.parse", "qtree.build", "transform.heuristic", "cbqt.optimize",
        "optimizer.physical", "engine.execute", "engine.codegen",
        "service.execute",
    ),
    "cached_mix": ("engine.execute", "engine.codegen", "service.execute"),
    "server_rw": (
        "server.handle", "service.execute", "engine.execute",
        "durability.insert", "catalog.analyze", "sql.parse",
        "cbqt.optimize", "optimizer.physical",
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "stmt", "attrs", "child")

    def __init__(self, name: str, parent: Optional["Span"], stmt: object):
        self.name = name
        self.parent = parent
        self.stmt = stmt
        self.attrs: Optional[dict] = None
        self.child = 0.0
        self.start = time.perf_counter()
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(self.duration - self.child, 0.0)


class SpanRecorder:
    """Keeps every span in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        #: session id -> the client span waiting on that session
        self.pending: dict[str, Span] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, stmt: object = None,
             parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if stmt is None and parent is not None:
            stmt = parent.stmt
        span = Span(name, parent, stmt)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.child += span.duration

    def adopt(self, parent: Optional[Span]) -> "_Adopted":
        """Run the enclosed block as if *parent* were this thread's
        current span (cross-thread parent link)."""
        return _Adopted(self._stack(), parent)

    def dump(self, path: str) -> None:
        ids = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for n, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": n,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "stmt": span.stmt,
                    "attrs": span.attrs,
                }, default=str) + "\n")


class _Adopted:
    def __init__(self, stack: list, parent: Optional[Span]):
        self._stack = stack
        self._parent = parent

    def __enter__(self) -> None:
        if self._parent is not None:
            self._stack.append(self._parent)

    def __exit__(self, *exc: object) -> None:
        if self._parent is not None:
            self._stack.pop()


class Instrumentation:
    """Wraps each layer's public entry point with a span while active."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, owner: object, attr: str, name: str,
              after: Optional[Callable] = None,
              before: Optional[Callable] = None,
              parent_of: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(kwargs)
            parent = parent_of(args) if parent_of is not None else None
            span = recorder.open(name, parent=parent)
            try:
                out = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, out)
            return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import repro.cbqt.framework as framework
        import repro.database as database
        import repro.server.app as server_app
        from repro.engine.vector.kernels import KernelCompiler
        from repro.obs.explain import operator_profiles
        from repro.optimizer.physical import PhysicalOptimizer
        from repro.service.service import QueryService

        recorder = self.recorder

        def cbqt_report(span, args, out):
            report = out[2]
            span.attrs = {
                "states": report.total_states,
                "join_enumerations": report.join_enumerations,
            }

        def kernel_built(span, args, out):
            span.attrs = {"compiled": out is not None}

        def force_analyze(kwargs):
            kwargs["analyze"] = True

        def execute_profile(span, args, result):
            ops: dict[str, float] = defaultdict(float)
            for profile in operator_profiles(result.plan, result.exec_stats):
                ops[type(profile["plan"]).__name__] += profile["self_seconds"]
            span.attrs = {
                "work_units": result.exec_stats.work_units,
                "ops": dict(ops),
            }

        def cache_status(span, args, result):
            span.attrs = {"cache_status": result.cache_status}

        def client_span(args):
            return recorder.pending.get(args[1])

        self._wrap(database, "parse_query", "sql.parse")
        self._wrap(database, "build_query_tree", "qtree.build")
        self._wrap(framework, "apply_heuristic_phase", "transform.heuristic")
        self._wrap(framework.CbqtFramework, "optimize", "cbqt.optimize",
                   after=cbqt_report)
        self._wrap(PhysicalOptimizer, "optimize", "optimizer.physical")
        self._wrap(KernelCompiler, "predicate", "engine.codegen",
                   after=kernel_built)
        self._wrap(KernelCompiler, "values", "engine.codegen",
                   after=kernel_built)
        self._wrap(database.Database, "execute_plan", "engine.execute",
                   before=force_analyze, after=execute_profile)
        self._wrap(QueryService, "execute", "service.execute",
                   after=cache_status)
        self._wrap(server_app.ReproServer, "execute", "server.handle",
                   parent_of=client_span)
        self._wrap(server_app.ReproServer, "insert", "server.handle",
                   parent_of=client_span)
        self._wrap(server_app.ReproServer, "analyze", "server.handle",
                   parent_of=client_span)
        self._wrap(database.Database, "insert", "durability.insert")
        self._wrap(database.Database, "analyze", "catalog.analyze")

        work_item = server_app.WorkItem

        def linked_work_item(fn, token, future, deadline):
            parent = recorder.current()

            def run(tok):
                with recorder.adopt(parent):
                    return fn(tok)

            return work_item(run, token, future, deadline)

        self._undo.append((server_app, "WorkItem", work_item))
        server_app.WorkItem = linked_work_item

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(recorder: SpanRecorder, statements: int,
                  transport_root: bool) -> dict[str, float]:
    """Per-layer figures from the traced phase's spans, mean per
    statement unless the name says otherwise (``*_calls`` and
    ``cbqt.states`` are counts per statement; ``durability.insert_ms``
    and ``catalog.analyze_ms`` are per call)."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    ops: dict[str, float] = defaultdict(float)
    states = enumerations = kernels = 0
    hits = lookups = 0
    root_self = 0.0
    for span in recorder.spans:
        calls[span.name] += 1
        metric = SELF_TIME_METRIC.get(span.name)
        if metric is not None:
            self_ms[metric] += span.self_time * 1000.0
        elif span.parent is None:
            root_self += span.self_time * 1000.0
        attrs = span.attrs or {}
        if span.name == "cbqt.optimize":
            states += attrs["states"]
            enumerations += attrs["join_enumerations"]
        elif span.name == "engine.codegen":
            kernels += attrs["compiled"]
        elif span.name == "engine.execute":
            for op, seconds in attrs["ops"].items():
                ops[op] += seconds * 1000.0
        elif span.name == "service.execute":
            lookups += 1
            hits += attrs["cache_status"] == "hit"
    out = {
        metric: _mean(total, statements) for metric, total in self_ms.items()
    }
    for metric in SELF_TIME_METRIC.values():
        out.setdefault(metric, 0.0)
    out["durability.insert_ms"] = _mean(
        self_ms["durability.insert_ms"], calls["durability.insert"])
    out["catalog.analyze_ms"] = _mean(
        self_ms["catalog.analyze_ms"], calls["catalog.analyze"])
    out["transform.heuristic_calls"] = _mean(
        calls["transform.heuristic"], statements)
    out["optimizer.physical_calls"] = _mean(
        calls["optimizer.physical"], statements)
    out["cbqt.states"] = _mean(states, statements)
    out["optimizer.join_enumerations"] = _mean(enumerations, statements)
    out["engine.kernels_compiled"] = _mean(kernels, statements)
    out["service.cache_hit_ratio"] = _mean(hits, lookups)
    for op in LEDGER_OPERATORS:
        out[f"engine.op.{op}_ms"] = _mean(ops[op], statements)
    # a server workload's root is the client request: its self time is
    # the transport (HTTP, JSON, socket) around ReproServer's own span
    root_ms = _mean(root_self, statements)
    out["server.transport_ms"] = root_ms if transport_root else 0.0
    out["trace.unattributed_ms"] = 0.0 if transport_root else root_ms
    return out


def coverage_failures(recorder: SpanRecorder, workload: str) -> list[str]:
    """Layers the workload must load but whose entry points recorded no
    calls, plus worker-side spans that lost their statement link."""
    seen = {span.name for span in recorder.spans}
    failures = [
        f"layer entry point {name!r} recorded no calls on {workload}"
        for name in REQUIRED_SPANS[workload] if name not in seen
    ]
    orphans = sum(
        1 for span in recorder.spans
        if span.parent is None and span.name in SELF_TIME_METRIC
    )
    if orphans:
        failures.append(f"{orphans} layer spans ran outside any statement")
    return failures


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    if len(xs) < 3:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5 if vx and vy else 0.0


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0
        i = j + 1
    return ranks
