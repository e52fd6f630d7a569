"""repro.resilience — deterministic fault injection + recovery.

The execution layer's failure model (see ``docs/robustness.md``):

* :mod:`~repro.resilience.faults` — seeded :class:`FaultPlan` /
  :class:`FaultRule` injection at named sites, with a name registry
  mirroring the engine/comparator registries;
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` /
  :class:`TimeoutPolicy` carried on :class:`~repro.api.RunConfig`, and
  the :class:`ExecutionRecord` of what the executor actually did;
* :mod:`~repro.resilience.document` — replayable
  :class:`ErrorDocument` failure records;
* :mod:`~repro.resilience.checkpoint` — the append-only
  :class:`CheckpointJournal` behind resumable ``run_many`` batches;
* :mod:`~repro.resilience.batch` — :class:`BatchReport` /
  :class:`SpecOutcome`, the per-spec outcome view ``run_many``
  returns.

With no fault plan and default policies every run is byte-identical
to the pre-resilience stack; the overhead of the wrapping is measured
by the ``session_resilience`` section of
``benchmarks/bench_perf_engine.py``.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BatchReport": "batch",
    "SpecOutcome": "batch",
    "CheckpointJournal": "checkpoint",
    "ErrorDocument": "document",
    "FAULT_SITES": "faults",
    "FaultPlan": "faults",
    "FaultRule": "faults",
    "abandonment_hook": "faults",
    "active_fault_state": "faults",
    "available_fault_plans": "faults",
    "get_fault_plan": "faults",
    "register_fault_plan": "faults",
    "resolve_fault_plan": "faults",
    "runtime_scope": "faults",
    "site_check": "faults",
    "DEFAULT_RETRY": "policy",
    "ExecutionRecord": "policy",
    "RetryPolicy": "policy",
    "TimeoutPolicy": "policy",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
