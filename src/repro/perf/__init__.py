"""Batched, cache-aware evaluation engine.

Every headline experiment in the paper reduces to evaluating thousands
of (allocation → expected/simulated latency) pairs.  This subsystem
makes those sweeps array-shaped:

* :mod:`~repro.perf.batch` — batched Monte-Carlo sampling
  (:func:`sample_job_latencies_batch`, :class:`BatchAggregateSimulator`)
  and multi-allocation scoring (:func:`evaluate_allocations`).  The
  batch samplers are stream-compatible with their scalar counterparts:
  same seed, bit-identical draws.
* :mod:`~repro.perf.cache` — process-level memo caches for the
  phase-type latency kernels (uniformization weight ladders and full
  cdf grids), shared by every numeric-latency caller.
* :mod:`~repro.perf.dp` — array-backed budget-indexed dynamic programs:
  dense per-group cost tables, a single-pass multi-budget sweep, and
  the Algorithm-3 closeness scan.  Outputs are bit-identical to the
  seed implementations (kept in :mod:`~repro.perf.reference`).
* :mod:`~repro.perf.engine` — the :class:`EvaluationEngine` registry:
  scalar / batch / chunked-batch Monte-Carlo samplers behind one
  interface, resolvable by name everywhere an ``engine=`` parameter is
  accepted (CLI included).
* :mod:`~repro.perf.deadline` — batched kernels for the
  deadline-constrained comparator: memoized per-(group, price)
  completion terms over the shared ladders, a one-array-op greedy
  candidate scan, array-bisection quantiles, and the deadline
  comparator registry (``"batched"`` / ``"reference"``) consumed by
  ``deadline_cost_frontier`` and the CLI.

See ``docs/performance.md`` for when to pick which engine and how to
size the caches, and ``docs/architecture.md`` for how the engine
registry and :class:`~repro.workloads.families.ProblemFamily` layer
fit together.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AgentBatchEngine": "market",
    "BatchAggregateSimulator": "batch",
    "BatchEngine": "engine",
    "ChunkedBatchEngine": "engine",
    "DeadlineKernel": "deadline",
    "EvaluationEngine": "engine",
    "ScalarEngine": "engine",
    "available_deadline_comparators": "deadline",
    "available_engines": "engine",
    "batch_agent_run_replications": "market",
    "budget_indexed_dp_fast": "dp",
    "budget_indexed_dp_sweep": "dp",
    "cached_hypoexponential_cdf": "cache",
    "cached_hypoexponential_sf": "cache",
    "clear_phase_caches": "cache",
    "configure_phase_cache": "cache",
    "deadline_comparator_name": "deadline",
    "deadline_quantile_bisection": "deadline",
    "evaluate_allocations": "batch",
    "get_deadline_comparator": "deadline",
    "get_engine": "engine",
    "group_cost_table": "dp",
    "heterogeneous_closeness_sweep": "dp",
    "heterogeneous_price_scan": "dp",
    "phase_cache_stats": "cache",
    "register_deadline_comparator": "deadline",
    "register_engine": "engine",
    "resolve_engine": "engine",
    "sample_job_latencies_batch": "batch",
    "shared_ladder_sf": "cache",
    "survival_weights": "cache",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
