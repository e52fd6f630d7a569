"""Spans around the program's public functions, recorded from outside.

The benchmark never edits the program.  A traced run installs wrappers
over the functions named in :data:`LAYERS` (module attributes, class
methods, and every other module-level name or registry-dict entry that
refers to the same function object), records one span per call, and
writes the spans out when the process exits.  With the tracer off
nothing is wrapped: :func:`install` is simply never called.

A span is ``(id, parent, root, name, start_ns, end_ns, error)``.  The
parent is the span active in the calling context (a ``ContextVar``, so
asyncio tasks inherit it).  Work handed to a dispatch thread loses the
context, so the ``exec.inline`` span is linked to its ``exec.dispatch``
span through the dispatched task's index.  Spans of one request share a
root; the ``serve.handle`` wrapper tags the root with the request id the
load generator puts in the query string (``?rid=<n>``), which the
service strips before routing.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

#: ``layer name -> [(module, qualified attribute), ...]``.
LAYERS = {
    "serve.connection": [("repro.serve.service", "ReproService._handle_connection")],
    "serve.handle": [("repro.serve.service", "ReproService.handle")],
    "api.spec.from_dict": [("repro.api.spec", "ExperimentSpec.from_dict")],
    "api.config.fingerprint": [("repro.api.config", "fingerprint")],
    "store.lookup": [("repro.store.store", "ResultStore.lookup")],
    "store.put": [("repro.store.store", "ResultStore.put")],
    "exec.dispatch": [("repro.serve.backend", "ExecutorBackend.execute")],
    "exec.inline": [("repro.exec.base", "execute_task_inline")],
    "api.session.run": [("repro.api.session", "Session.run")],
    "experiments.run_budget_sweep": [("repro.experiments.runner", "run_budget_sweep")],
    "core.tune": [
        ("repro.core.tuner", "tune_budget_sweep"),
        ("repro.core.tuner", "Tuner.tune"),
    ],
    "core.expected_job_latency": [("repro.core.latency", "expected_job_latency")],
    "perf.cache.sf": [("repro.perf.cache", "cached_hypoexponential_sf")],
    "stats.ladder": [("repro.stats.phase_type", "WeightLadder.get")],
    "perf.dp": [
        ("repro.perf.dp", "budget_indexed_dp_sweep"),
        ("repro.perf.dp", "heterogeneous_price_scan"),
        ("repro.perf.dp", "heterogeneous_closeness_sweep"),
    ],
    "core.min_cost_for_deadline": [("repro.core.deadline", "min_cost_for_deadline")],
    "serve.market.allocate": [("repro.serve.market", "LiveMarket.allocate")],
    "stats.convolution": [
        ("repro.stats.convolution", "convolve_cdf"),
        ("repro.stats.convolution", "convolve_densities"),
    ],
    "stats.sumof_cdf": [("repro.stats.distributions", "SumOf.cdf")],
    "perf.market": [("repro.perf.market", "batch_agent_run_replications")],
    "perf.batch": [("repro.perf.batch", "sample_job_latencies_batch")],
}


class Tracer:
    """In-memory span log plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {}
        self.marks: list = []
        self.root_tags: dict = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._dispatch_by_task: dict = {}
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------

    def _open(self, parent):
        span_id = next(self._ids)
        root = parent[1] if parent is not None else span_id
        return span_id, root

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def record(self, name, span_id, parent, root, t0, t1, error) -> None:
        self.spans.append((span_id, parent, root, name, t0, t1, error))

    def mark(self, label: str, snapshot: dict) -> None:
        self.marks.append({"label": label, "t_ns": time.perf_counter_ns(), **snapshot})

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": self.counters,
                    "marks": self.marks,
                    "root_tags": {str(k): v for k, v in self.root_tags.items()},
                },
                fh,
            )


def _wrap(tracer: Tracer, layer: str, fn):
    """A wrapper recording one ``layer`` span per call of *fn*."""
    current = tracer._current
    record = tracer.record
    clock = time.perf_counter_ns
    on_result = _RESULT_HOOKS.get(layer)
    on_call = _CALL_HOOKS.get(layer)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent = _parent_for(tracer, layer, args, current.get())
            span_id, root = tracer._open(parent)
            token = current.set((span_id, root))
            if on_call is not None:
                on_call(tracer, span_id, root, args)
            error = None
            t0 = clock()
            try:
                result = await fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                current.reset(token)
                record(layer, span_id, parent[0] if parent else None, root, t0, t1, error)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _parent_for(tracer, layer, args, current.get())
        span_id, root = tracer._open(parent)
        token = current.set((span_id, root))
        if on_call is not None:
            on_call(tracer, span_id, root, args)
        error = None
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = clock()
            current.reset(token)
            record(layer, span_id, parent[0] if parent else None, root, t0, t1, error)

    return wrapper


def _parent_for(tracer: Tracer, layer: str, args, parent):
    """The caller's span; for ``exec.inline`` on a dispatch thread, the
    ``exec.dispatch`` span that handed the task over."""
    if parent is None and layer == "exec.inline" and args:
        return tracer._dispatch_by_task.pop(getattr(args[0], "index", None), None)
    return parent


def _on_dispatch(tracer: Tracer, span_id, root, args) -> None:
    # ExecutorBackend.execute numbers the task it builds with the
    # backend's dispatch counter, read here before the call.
    backend = args[0]
    tracer._dispatch_by_task[getattr(backend, "_dispatches", None)] = (span_id, root)


def _on_handle(tracer: Tracer, span_id, root, args) -> None:
    path = args[2] if len(args) > 2 else ""
    _, _, query = path.partition("?")
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == "rid":
            tracer.root_tags[root] = value
        elif key == "mark":
            tracer.mark(value, counter_snapshot(tracer))


def _on_lookup(tracer: Tracer, lookup) -> None:
    tracer.count("store.lookup.hits" if lookup.hit else "store.lookup.misses")
    if getattr(lookup, "quarantined", False):
        tracer.count("store.quarantined")


_CALL_HOOKS = {"exec.dispatch": _on_dispatch, "serve.handle": _on_handle}
_RESULT_HOOKS = {"store.lookup": _on_lookup}


def counter_snapshot(tracer: Tracer) -> dict:
    """Counters the program keeps itself, plus the wrappers' counters."""
    snap = {"counters": dict(tracer.counters)}
    cache = sys.modules.get("repro.perf.cache")
    if cache is not None:
        snap["phase_cache"] = cache.phase_cache_stats()
    return snap


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> list:
    """Wrap every function in :data:`LAYERS`; returns the undo list.

    A module-level function is replaced under every name and in every
    module-level dict of the loaded ``repro`` modules that refers to it,
    so callers that imported it by name are traced too.
    """
    undo = []
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            owner, attr = _resolve(module_name, qualname)
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, layer, raw.__func__))
                else:
                    wrapped = _wrap(tracer, layer, raw)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, layer, original)
            for module in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        undo.append((module, name, original))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped
                                undo.append((value, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """``span id -> self time (ns)``: the span's duration minus the part
    of its interval that its children's intervals cover."""
    children: dict = {}
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for span_id, (_, _, _, _, t0, t1, _) in by_id.items():
        covered = 0
        edge = t0
        for c in sorted(children.get(span_id, ()), key=lambda s: s[4]):
            lo, hi = max(c[4], edge), min(c[5], t1)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span_id] = (t1 - t0) - covered
    return out
