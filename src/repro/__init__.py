"""repro — full reproduction of "Tuning Crowdsourced Human Computation"
(Cao, Liu, Chen, Jagadish; ICDE 2017).

Subpackages:

* :mod:`repro.stats` — probability substrate (exponential / Erlang /
  hypoexponential latencies, order statistics);
* :mod:`repro.market` — crowd-market simulator (the AMT substitute);
* :mod:`repro.inference` — HPU running-parameter inference;
* :mod:`repro.core` — the H-Tuning problem and algorithms EA/RA/HA;
* :mod:`repro.perf` — batched, cache-aware evaluation engine (batch
  Monte-Carlo samplers, phase-kernel caches, array-based DP sweeps;
  see ``docs/performance.md``);
* :mod:`repro.workloads` — the paper's workloads and stress families;
* :mod:`repro.experiments` — per-figure experiment harness;
* :mod:`repro.api` — the declarative request/response facade:
  serializable :class:`~repro.api.ExperimentSpec` /
  :class:`~repro.api.RunConfig` values, the experiment registry, and
  the :class:`~repro.api.Session` facade every run path goes through
  (see ``docs/api.md``);
* :mod:`repro.resilience` — deterministic fault injection
  (:class:`~repro.resilience.FaultPlan`), retry/timeout policies,
  structured :class:`~repro.resilience.ErrorDocument` failure capture,
  and checkpointed :class:`~repro.resilience.BatchReport` batches
  (see ``docs/robustness.md``);
* :mod:`repro.store` — crash-safe persistent result store:
  content-addressed :class:`~repro.store.ResultStore` with atomic
  writes, checksum + validity-envelope verification, and quarantine,
  behind ``Session.run(store=...)`` and the ``repro results`` CLI
  (see ``docs/robustness.md``, "Result store failure modes").

Quickstart::

    from repro import HTuningProblem, TaskSpec, Tuner
    from repro.market import LinearPricing

    pricing = LinearPricing(slope=1.0, intercept=1.0)
    tasks = [TaskSpec(i, repetitions=5, pricing=pricing,
                      processing_rate=2.0) for i in range(100)]
    allocation = Tuner().tune(HTuningProblem(tasks, budget=2500))
"""

from ._lazy import attach

__version__ = "1.0.0"

#: Public name -> the subpackage that defines it (``None``: bound above).
_EXPORTS = {
    "Allocation": "core",
    "BatchReport": "resilience",
    "BudgetError": "errors",
    "CheckpointError": "errors",
    "ErrorDocument": "resilience",
    "ExperimentSpec": "api",
    "FaultInjectedError": "errors",
    "FaultPlan": "resilience",
    "FaultRule": "resilience",
    "HTuningProblem": "core",
    "InfeasibleAllocationError": "errors",
    "InferenceError": "errors",
    "ModelError": "errors",
    "PlanError": "errors",
    "RegistryError": "errors",
    "ReproError": "errors",
    "RunNotFoundError": "errors",
    "ResultStore": "store",
    "RetryPolicy": "resilience",
    "RunConfig": "api",
    "RunResult": "api",
    "RunTimeoutError": "errors",
    "Scenario": "core",
    "Session": "api",
    "SimulationError": "errors",
    "StoreCorruptError": "errors",
    "StoreError": "errors",
    "StoreStaleError": "errors",
    "StoreWriteError": "errors",
    "TaskGroup": "core",
    "TaskSpec": "core",
    "TimeoutPolicy": "resilience",
    "Tuner": "core",
    "__version__": None,
    "error_code": "errors",
    "even_allocation": "core",
    "heterogeneous_algorithm": "core",
    "repetition_algorithm": "core",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
