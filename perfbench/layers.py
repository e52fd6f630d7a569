"""Per-layer metrics and the per-request breakdown of a traced run.

Every layer of :data:`tracer.LAYERS` reports ``<layer>.calls`` and
``<layer>.self_ms`` (``stats.sumof_cdf`` reports calls only), counted
over the measured window: the main phase of a serve run, or the
experiments of a paper batch (averaged per batch).  A layer the
workload never reaches reads 0.
"""

from __future__ import annotations

import json

from stats import median
from tracer import LAYERS, self_times

CALLS_ONLY = ("stats.sumof_cdf",)
RATIOS = ("store.hit_ratio", "perf.cache.sf_hit_ratio", "perf.cache.ladder_hit_ratio",
          "serve.market.accept_ratio")
OTHERS = {"store.quarantined": "count", "exec.wait_ms": "ms", "trace.spans": "count"}


def metric_units() -> dict:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer not in CALLS_ONLY:
            units[f"{layer}.self_ms"] = "ms"
    units.update({name: "ratio" for name in RATIOS})
    units.update(OTHERS)
    return units


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["spans"] = [tuple(s) for s in data["spans"]]
    return data


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _counter_deltas(marks: list, start: str, end: str) -> dict:
    by_label = {m["label"]: m for m in marks}
    a, b = by_label[start], by_label[end]
    out = {}
    for key in set(a["counters"]) | set(b["counters"]):
        out[key] = b["counters"].get(key, 0) - a["counters"].get(key, 0)
    for key, value in b.get("phase_cache", {}).items():
        out[f"phase_cache.{key}"] = value - a.get("phase_cache", {}).get(key, 0)
    return out


def _window(data: dict, lo: int, hi: int) -> tuple:
    selfs = self_times(data["spans"])
    spans = [s for s in data["spans"] if lo <= s[4] <= hi]
    return spans, selfs


def _aggregate(spans, selfs, deltas) -> dict:
    out = {name: 0.0 for name in metric_units()}
    by_id = {s[0]: s for s in spans}
    inline_by_parent: dict = {}
    for s in spans:
        if s[3] == "exec.inline" and s[1] is not None:
            inline_by_parent[s[1]] = inline_by_parent.get(s[1], 0) + (s[5] - s[4])
    allocs = errors = 0
    wait_ns = 0
    for s in spans:
        name = s[3]
        out[f"{name}.calls"] += 1
        if name not in CALLS_ONLY:
            out[f"{name}.self_ms"] += selfs[s[0]] / 1e6
        if name == "serve.market.allocate":
            allocs += 1
            errors += s[6] is not None
        if name == "exec.dispatch":
            wait_ns += (s[5] - s[4]) - inline_by_parent.get(s[0], 0)
    out["exec.wait_ms"] = wait_ns / 1e6
    out["trace.spans"] = float(len(by_id))
    hits, misses = deltas.get("store.lookup.hits", 0), deltas.get("store.lookup.misses", 0)
    out["store.hit_ratio"] = _ratio(hits, hits + misses)
    out["store.quarantined"] = float(deltas.get("store.quarantined", 0))
    for kind in ("sf", "ladder"):
        h, m = deltas.get(f"phase_cache.{kind}_hits", 0), deltas.get(f"phase_cache.{kind}_misses", 0)
        out[f"perf.cache.{kind}_hit_ratio"] = _ratio(h, h + m)
    out["serve.market.accept_ratio"] = _ratio(allocs - errors, allocs)
    return out


def serve_layers(spans_path: str, gen, run: dict) -> tuple:
    """``(layer metrics, breakdown rows)`` of one traced serve run."""
    data = _load(spans_path)
    spans, selfs = _window(data, run["t_main"], run["t_main_end"])
    deltas = _counter_deltas(data["marks"], "main-start", "main-end")
    return _aggregate(spans, selfs, deltas), _breakdown(data, selfs, gen, run)


def _breakdown(data, selfs, gen, run) -> list:
    """Per-layer ms of cold and warm ``POST /runs`` and of allocates.

    For each request class: the client's p50 (timed from the due time),
    the server's ``serve.connection`` p50, and the mean self time of
    each layer inside the request, which sums to the mean connection
    time.  For a cold submission the work that runs after the ``202``
    is written (the dispatch, the compute under it, and the store
    write) is listed separately as ``after_response_ms``.
    """
    root_of_rid = {int(rid): int(root) for root, rid in data["root_tags"].items()}
    tree: dict = {}
    for s in data["spans"]:
        tree.setdefault(s[2], []).append(s)
    main_idx = {op["i"] for op in run["main_ops"]}
    classes: dict = {}
    for op_i, _, label, due, end, status, rid in gen.exchanges:
        if op_i not in main_idx or label not in ("post_runs", "allocate"):
            continue
        cls = "allocate" if label == "allocate" else (
            "post_runs_cold" if status == 202 else "post_runs_warm")
        root = root_of_rid.get(rid)
        if root is None:
            continue
        spans = tree.get(root, [])
        by_id = {s[0]: s for s in spans}
        root_span = by_id[root]
        sync, after = {}, {}
        for s in spans:
            late = s[4] > root_span[5] or _under_dispatch(s, by_id)
            bucket = after if late else sync
            bucket[s[3]] = bucket.get(s[3], 0.0) + selfs[s[0]] / 1e6
        row = classes.setdefault(cls, {"client": [], "server": [], "sync": [], "after": []})
        row["client"].append((end - due) / 1e6)
        row["server"].append((root_span[5] - root_span[4]) / 1e6)
        row["sync"].append(sync)
        row["after"].append(after)
    out = []
    for cls, row in sorted(classes.items()):
        n = len(row["client"])

        def mean_layers(dicts):
            keys = sorted({k for d in dicts for k in d})
            return {k: round(sum(d.get(k, 0.0) for d in dicts) / n, 4) for k in keys}

        layers = mean_layers(row["sync"])
        entry = {
            "class": cls,
            "n": n,
            "client_p50_ms": round(median(row["client"]), 4),
            "server_p50_ms": round(median(row["server"]), 4),
            "server_mean_ms": round(sum(row["server"]) / n, 4),
            "layers_sum_ms": round(sum(layers.values()), 4),
            "layers_ms": layers,
        }
        entry["outside_server_p50_ms"] = round(entry["client_p50_ms"] - entry["server_p50_ms"], 4)
        if cls == "post_runs_cold":
            entry["after_response_ms"] = mean_layers(row["after"])
        out.append(entry)
    return out


def _under_dispatch(span, by_id) -> bool:
    while span is not None:
        if span[3] == "exec.dispatch":
            return True
        span = by_id.get(span[1])
    return False


def batch_layers(children: list) -> dict:
    """Layer metrics of a traced paper batch, averaged per batch."""
    total = {name: 0.0 for name in metric_units()}
    for child in children:
        data = _load(child["trace_out"])
        spans, selfs = _window(data, child["batch_start_ns"], child["batch_end_ns"])
        deltas = _counter_deltas(data["marks"], "batch-start", "batch-end")
        for key, value in _aggregate(spans, selfs, deltas).items():
            total[key] += value / len(children)
    return total
