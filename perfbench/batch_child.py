"""One paper batch in a fresh process, as a researcher would run it.

    python3 perfbench/batch_child.py JOB.json OUT.json [TRACE.json]

Prints ``ready`` once ``repro`` is imported and a ``Session`` is built
(the launcher times spawn to that line as set-up), runs every spec of
the job through ``Session.run``, then prices the job's allocation
requests on an in-process ``LiveMarket``, and writes documents, timings
and its own ``/proc`` readings to OUT.json.
"""

from __future__ import annotations

import json
import os
import sys
import time

from procs import cpu_ms, rss_peak_mb


def main(job_path: str, out_path: str, trace_out=None) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if trace_out is not None:
        import repro.experiments.runner  # noqa: F401  (load traced modules)
        import repro.serve  # noqa: F401
        from tracer import Tracer, counter_snapshot, install

        tracer = Tracer()
        install(tracer)
    from repro.api import RunConfig, Session
    from repro.serve import LiveMarket

    session = Session(RunConfig(seed=job["seed"]))
    print("ready", flush=True)
    if not job["specs"]:
        return 0  # a set-up measurement only

    pid = os.getpid()
    if tracer is not None:
        tracer.mark("batch-start", counter_snapshot(tracer))
    cpu0 = cpu_ms(pid)
    start = time.perf_counter_ns()
    runs = []
    for spec in job["specs"]:
        t0 = time.perf_counter_ns()
        doc = session.run(spec).to_dict()
        runs.append({"doc": doc, "start_ns": t0, "end_ns": time.perf_counter_ns()})
    end = time.perf_counter_ns()
    cpu1 = cpu_ms(pid)
    if tracer is not None:
        tracer.mark("batch-end", counter_snapshot(tracer))

    market = LiveMarket(budget=job["market_budget"])
    allocations = []
    for request in job["allocations"]:
        t0 = time.perf_counter_ns()
        doc = market.allocate(request)
        allocations.append({"doc": doc, "start_ns": t0, "end_ns": time.perf_counter_ns()})

    out = {
        "runs": runs,
        "batch_start_ns": start,
        "batch_end_ns": end,
        "cpu_ms": cpu1 - cpu0,
        "allocations": allocations,
        "spent": market.spent,
        "rss_peak_mb": rss_peak_mb(pid),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    if tracer is not None:
        tracer.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
