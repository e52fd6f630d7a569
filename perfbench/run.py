"""The repository's benchmark: one command, every workload, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` repeats the run with the layer wrappers installed and
reports the per-layer metrics.  ``--workload all`` runs every workload
both ways and reports the tracing overhead.  The human-readable report
goes to standard output and ``perfbench/.work/reports/``; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  A wrong output exits 1, a run whose load
generator fell behind its schedule exits 3 without a result, and a
directory without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from stats import median, summary  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
#: A run is invalid when the generator started main-phase ops this late (p99).
GENERATOR_LATE_LIMIT_MS = 20.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Every end-to-end metric a run measures and prints.  The result line
#: carries the ones BENCHMARK.json lists.
END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "result_p50_ms": "ms",
    "result_tail_ms": "ms",
    "allocate_p50_ms": "ms",
    "allocate_tail_ms": "ms",
    "max_rate_rps": "1/s",
    "cpu_ms_per_op": "ms",
    "rss_peak_mb": "MiB",
    "batch_s": "s",
}
#: End-to-end metrics a traced run also reports, as ``trace.<name>``;
#: set against an untraced run they give the tracing overhead.
TRACED = ("req_p50_ms", "cpu_ms_per_op")


class GeneratorBehind(Exception):
    """The load generator, not the service, missed its schedule."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk("src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _latency_metrics(prefix: str, values_ms: list, metrics: dict, samples: dict) -> None:
    s = summary(values_ms)
    metrics[f"{prefix}_p50_ms"] = s["p50"]
    metrics[f"{prefix}_tail_ms"] = s["tail"]
    samples[f"{prefix}_p50_ms"] = {"n": s["n"]}
    samples[f"{prefix}_tail_ms"] = {"n": s["n"], "percentile": s["tail_q"]}


# -- serve workloads ---------------------------------------------------


def _evaluate_phase(gen, ops, t0, not_sent, rate, duration, limit_ms) -> dict:
    """Did the service keep up with this offered rate?

    Passes when every op was sent and none failed, the phase's request
    tail meets the latency limit, and the backlog did not grow: all but
    5% of the ops (or the sender count, if larger) were finished one
    latency limit after the phase's last due time.
    """
    idx = {op["i"] for op in ops if op["i"] in gen.ops}
    outcomes = [gen.ops[i] for i in idx]
    s = summary([(e[4] - e[3]) / 1e6 for e in gen.exchanges if e[0] in idx])
    failed = sum(not o["ok"] for o in outcomes)
    deadline = t0 + int((duration + limit_ms / 1000.0) * 1e9)
    late = sum(o["done_ns"] > deadline for o in outcomes)
    last = max(o["done_ns"] for o in outcomes)
    return {
        "rate": rate,
        "ops": len(outcomes),
        "not_sent": not_sent,
        "failed": failed,
        "req_tail_ms": s["tail"],
        "tail_q": s["tail_q"],
        "late": late,
        "passed": (failed == 0 and not not_sent and s["tail"] <= limit_ms
                   and late <= max(gen.senders, 0.05 * len(outcomes))),
        "achieved_rps": len(outcomes) / ((last - t0) / 1e9),
    }


async def _drive(server, schedule, workload, fingerprints, seconds) -> dict:
    from loadgen import Generator
    from procs import cpu_ms, rss_peak_mb

    gen = Generator("127.0.0.1", server.port, nproc(), schedule["specs"], fingerprints)
    by_phase: dict = {}
    for op in schedule["ops"]:
        by_phase.setdefault(op["phase"], []).append(op)
    main_plan = W.phases(workload, seconds)
    rates = {p: (r, d) for p, r, d in main_plan + W.lower_rungs(workload)}

    await gen.run_phase(by_phase["warmup"])
    await gen.get("/health?mark=main-start")
    cpu0 = cpu_ms(server.pid)
    t_main, _ = await gen.run_phase(by_phase["main"])
    t_main_end = max(gen.ops[op["i"]]["done_ns"] for op in by_phase["main"])
    cpu1 = cpu_ms(server.pid)
    # Memory, like CPU, covers the warm-up and the main phase only: how
    # many rungs run after it depends on how fast the host is.
    rss_mb = rss_peak_mb(server.pid)
    await gen.get("/health?mark=main-end")

    rungs = [dict(_evaluate_phase(gen, by_phase["main"], t_main, 0, *rates["main"],
                                  workload.tail_limit_ms), phase="main")]
    if rungs[0]["passed"]:
        nexts = [p for p, _, _ in main_plan[2:]]
    else:
        nexts = [p for p, _, _ in W.lower_rungs(workload)]
    for phase in nexts:
        ops = by_phase[phase]
        # More ops waiting than the rate brings within one latency
        # limit: the rung has failed already, stop offering load.
        give_up = max(8 * gen.senders, rates[phase][0] * workload.tail_limit_ms / 1000.0)
        t0, not_sent = await gen.run_phase(ops, give_up_at=give_up)
        rungs.append(dict(_evaluate_phase(gen, ops, t0, not_sent, *rates[phase],
                                          workload.tail_limit_ms), phase=phase))
        if rungs[-1]["passed"] != rungs[0]["passed"]:
            break
    _, state = await gen.get("/market/state")
    _, health = await gen.get("/health")
    return {
        "gen": gen,
        "t_main": t_main,
        "t_main_end": t_main_end,
        "main_ops": by_phase["main"],
        "cpu_ms": cpu1 - cpu0,
        "rss_peak_mb": rss_mb,
        "rungs": rungs,
        "state": state,
        "health": health,
    }


def _max_rate(rungs: list) -> tuple:
    """Achieved rate at the highest passing rung of the ascending ladder."""
    passing = [r for r in rungs if r["passed"]]
    if not passing:
        return rungs[-1]["achieved_rps"], False
    return max(passing, key=lambda r: r["rate"])["achieved_rps"], True


def run_serve(workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    from checks import LEDGER_BUDGET, References, check_allocation, check_ledger, check_run
    from procs import Server

    schedule = W.build_schedule(workload.name, seed, seconds)
    refs = References()
    store = os.path.join(work, "store")
    fingerprints = {}
    fill_s = 0.0
    if workload.name == "serve-warm":
        # Set-up: fill the store once; the fill doubles as the
        # reference Session.run of every stored spec.
        t0 = time.perf_counter()
        for i, spec in enumerate(schedule["specs"]):
            fingerprints[i] = refs.fill(spec, store)
        fill_s = time.perf_counter() - t0

    setups = []
    server = None
    for k in range(SETUPS):
        if server is not None:
            server.stop()
        trace_out = os.path.join(work, f"spans-{k}.json") if trace else None
        server = Server(store, LEDGER_BUDGET, trace_out, workload.server_args)
        setups.append(server.setup_s)
    try:
        run = asyncio.run(_drive(server, schedule, workload, fingerprints, seconds))
    finally:
        server.stop()
    gen = run["gen"]

    import numpy as np

    generator = {"senders": gen.senders, "lateness_ms": {}}
    for phase, late_ns in gen.lateness_ns.items():
        p50, p99 = (float(x) / 1e6 for x in np.percentile(late_ns, [50, 99]))
        generator["lateness_ms"][phase] = {"p50": p50, "p99": p99, "max": max(late_ns) / 1e6}
    # Every latency metric comes from the main phase.  On a rung, the
    # generator's lateness counts against the rung like the service's:
    # a rate that leaves the generator no processor is beyond the host.
    if generator["lateness_ms"]["main"]["p99"] > GENERATOR_LATE_LIMIT_MS:
        raise GeneratorBehind(json.dumps(generator))

    # Output checks, outside every timed window.
    check_t0 = time.perf_counter()
    problems: dict = {}
    costs = []
    ops = {op["i"]: op for op in schedule["ops"]}
    for i, outcome in gen.ops.items():
        op = ops[i]
        found = []
        if not outcome["ok"]:
            found.append(outcome["error"])
        elif "result" in outcome:
            found += check_run(outcome["result"], schedule["specs"][op["spec"]], refs)
        elif "allocation" in outcome:
            found += check_allocation(outcome["allocation"], op["payload"], refs)
            costs.append(outcome["allocation"]["cost"])
        if found:
            problems[i] = found
    ledger_problems = check_ledger(run["state"], costs)
    check_s = time.perf_counter() - check_t0

    main_idx = {op["i"] for op in run["main_ops"]}
    main_ex = [e for e in gen.exchanges if e[0] in main_idx]
    metrics: dict = {"setup_s": median(setups)}
    samples: dict = {"setup_s": {"n": len(setups)}}
    _latency_metrics("req", [(e[4] - e[3]) / 1e6 for e in main_ex], metrics, samples)
    cycles = [(o["done_ns"] - o["due_ns"]) / 1e6 for i, o in gen.ops.items()
              if i in main_idx and o["kind"] in ("resubmit", "submit") and o["ok"]]
    _latency_metrics("result", cycles, metrics, samples)
    _latency_metrics("allocate", [(e[4] - e[3]) / 1e6 for e in main_ex if e[2] == "allocate"],
                     metrics, samples)
    max_rate, max_rate_valid = _max_rate(run["rungs"])
    metrics["max_rate_rps"] = max_rate
    samples["max_rate_rps"] = {"rungs": len(run["rungs"]), "valid": max_rate_valid}
    metrics["cpu_ms_per_op"] = run["cpu_ms"] / len(main_idx)
    samples["cpu_ms_per_op"] = {"n": len(main_idx)}
    metrics["rss_peak_mb"] = run["rss_peak_mb"]
    metrics["batch_s"] = (run["t_main_end"] - run["t_main"]) / 1e9
    samples["batch_s"] = {"n": 1}

    attempted = len(gen.ops)
    failed = len(problems) + (1 if ledger_problems else 0)
    report = {
        "metrics": metrics,
        "samples": samples,
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for ps in problems.values() for p in ps][:20] + ledger_problems,
        "generator": generator,
        "rungs": run["rungs"],
        "setups_s": setups,
        "store_fill_s": fill_s,
        "check_s": check_s,
        "requests": len(gen.exchanges),
        "health": run["health"],
        "main_exchanges_ms": {label: sorted(round((e[4] - e[3]) / 1e6, 3) for e in main_ex if e[2] == label)
                              for label in sorted({e[2] for e in main_ex})},
        "main_cycles_ms": sorted(round(c, 3) for c in cycles),
    }
    if trace:
        from layers import serve_layers

        report["layers"], report["breakdown"] = serve_layers(
            os.path.join(work, f"spans-{SETUPS - 1}.json"), gen, run)
    return report


# -- the paper batch ---------------------------------------------------


def run_batch(workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    from checks import LEDGER_BUDGET, References, check_allocation, check_paper_batch, table1_references
    from procs import BatchChild

    job = {
        "specs": W.PAPER_SPECS,
        "seed": seed,
        "allocations": W.allocation_set(seed, workload.n_allocations),
        "market_budget": LEDGER_BUDGET,
    }
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)

    # At least `batches` batches, and more while another one still
    # fits in --seconds; children that only start up make the set-up
    # samples up to `setups`.
    setup_job = os.path.join(work, "setup.json")
    with open(setup_job, "w", encoding="utf-8") as fh:
        json.dump(dict(job, specs=[]), fh)
    children, setups = [], []
    started = time.perf_counter()

    def another_fits() -> bool:
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / len(children) <= seconds

    while len(children) < workload.batches or another_fits():
        k = len(children)
        out = os.path.join(work, f"batch-{k}.json")
        trace_out = os.path.join(work, f"spans-{k}.json") if trace else None
        child = BatchChild(job_path, out, trace_out)
        setups.append(child.setup_s)
        if child.wait() != 0:
            raise RuntimeError(f"batch child exited with {child.proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["trace_out"] = trace_out
        children.append(result)
    while len(setups) < workload.setups:
        child = BatchChild(setup_job, os.devnull)
        setups.append(child.setup_s)
        if child.wait() != 0:
            raise RuntimeError(f"set-up child exited with {child.proc.returncode}")

    refs = References()
    table1_ref = table1_references()
    problems = []
    ops = 0
    for child in children:
        docs = [r["doc"] for r in child["runs"]]
        problems += check_paper_batch(docs, table1_ref)
        costs = []
        for request, alloc in zip(job["allocations"], child["allocations"]):
            problems += check_allocation(alloc["doc"], request, refs)
            costs.append(alloc["doc"]["cost"])
        if child["spent"] != sum(costs):
            problems.append(f"market spent {child['spent']} != {sum(costs)}")
        ops += len(docs) + len(costs)

    n_exp = len(W.PAPER_SPECS)
    batch = [(c["batch_end_ns"] - c["batch_start_ns"]) / 1e9 for c in children]
    metrics: dict = {"setup_s": median(setups)}
    samples: dict = {"setup_s": {"n": len(setups)}}
    _latency_metrics("req", [(r["end_ns"] - r["start_ns"]) / 1e6
                             for c in children for r in c["runs"]], metrics, samples)
    _latency_metrics("result", [(r["end_ns"] - c["batch_start_ns"]) / 1e6
                                for c in children for r in c["runs"]], metrics, samples)
    _latency_metrics("allocate", [(a["end_ns"] - a["start_ns"]) / 1e6
                                  for c in children for a in c["allocations"]], metrics, samples)
    metrics["max_rate_rps"] = median([n_exp / b for b in batch])
    samples["max_rate_rps"] = {"n": len(children)}
    metrics["cpu_ms_per_op"] = median([c["cpu_ms"] / n_exp for c in children])
    samples["cpu_ms_per_op"] = {"n": len(children)}
    metrics["rss_peak_mb"] = median([c["rss_peak_mb"] for c in children])
    samples["rss_peak_mb"] = {"n": len(children)}
    metrics["batch_s"] = median(batch)
    samples["batch_s"] = {"n": len(children)}
    failed = len(problems)
    report = {
        "metrics": metrics,
        "samples": samples,
        "failed_frac": failed / ops,
        "attempted": ops,
        "failed": failed,
        "problems": problems[:20],
        "children": len(children),
        "batch_s_each": batch,
    }
    if trace:
        from layers import batch_layers

        report["layers"] = batch_layers(children)
    return report


# -- the command -------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = W.WORKLOADS[name]
    work = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if name == "paper-batch":
            report = run_batch(workload, seed, seconds, trace, work)
        else:
            report = run_serve(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        for key in TRACED:
            report["layers"][f"trace.{key}"] = report["metrics"][key]
    report["workload"] = name
    report["why"] = workload.why
    report["trace"] = trace
    report["environment"] = environment(seed)
    reports = os.path.join(HERE, ".work", "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (trace {int(report['trace'])}): {report['why']}")
    for name, value in report["metrics"].items():
        extra = report["samples"].get(name, {})
        print(f"  {name:<18} {value:>12.4f} {END_TO_END[name]:<4} {json.dumps(extra)}")
    print(f"  {'failed_frac':<18} {report['failed_frac']:>12.4f} {'':<4} "
          f"{report['failed']} of {report['attempted']} ops")
    for key in ("generator", "rungs"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key])}")
    for problem in report["problems"]:
        print(f"  WRONG: {problem}")
    for row in report.get("breakdown", []):
        print(f"  breakdown: {json.dumps(row)}")
    print(f"  environment: {json.dumps(report['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # BENCHMARK.json names the metrics the result line carries: the
    # end-to-end ones untraced, the per-layer ones traced.
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
             True: {m["name"]: m["unit"] for m in declared["per_layer"]}}

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    out_metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            by_mode = {}
            for trace in modes:
                report = run_one(name, args.seed, args.seconds, trace)
                print_report(report)
                by_mode[trace] = report
                attempted += report["attempted"]
                failed += report["failed"]
            for trace, report in by_mode.items():
                values = report["layers"] if trace else report["metrics"]
                prefix = f"{name}/" if args.workload == "all" else ""
                for key, unit in units[trace].items():
                    out_metrics[prefix + key] = {"value": values[key], "unit": unit}
            if len(by_mode) == 2:
                base, traced = by_mode[False]["metrics"], by_mode[True]["metrics"]
                overhead = {k: traced[k] / base[k] - 1.0 for k in TRACED}
                print(f"  tracing overhead {name}: {json.dumps(overhead)}")
    except GeneratorBehind as exc:
        print(f"perfbench: invalid run, the load generator fell behind: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
