"""Crowd-market simulator — the library's AMT substitute (paper §3, §5.2).

Layers, bottom-up:

* :mod:`~repro.market.events` — deterministic discrete-event queue;
* :mod:`~repro.market.task` — task lifecycle and measurements;
* :mod:`~repro.market.worker` — Poisson worker stream + choice models;
* :mod:`~repro.market.pricing` — λ_o(c) response curves (all six curves
  of the paper's Fig. 2);
* :mod:`~repro.market.simulator` — aggregate and agent engines;
* :mod:`~repro.market.trace` — per-task measurements and summaries;
* :mod:`~repro.market.platform` — requester-facing facade.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AgentSimulator": "simulator",
    "AggregateSimulator": "simulator",
    "AtomicTaskOrder": "simulator",
    "CallablePricing": "pricing",
    "ChoiceModel": "worker",
    "ConstantRate": "dynamics",
    "CrowdPlatform": "platform",
    "Event": "events",
    "EventKind": "events",
    "EventQueue": "events",
    "GreedyPriceChoice": "worker",
    "JobResult": "simulator",
    "LatencySummary": "trace",
    "LinearPricing": "pricing",
    "LogPricing": "pricing",
    "MarketModel": "simulator",
    "NULL_RECORDER": "trace",
    "NonstationaryWorkerPool": "dynamics",
    "NullTraceRecorder": "trace",
    "PAPER_FIG2_MODELS": "pricing",
    "PriceProportionalChoice": "worker",
    "PricingModel": "pricing",
    "PiecewiseRate": "dynamics",
    "RateProfile": "dynamics",
    "PublishRequest": "platform",
    "PublishedTask": "task",
    "QuadraticPricing": "pricing",
    "SinusoidalRate": "dynamics",
    "SoftmaxChoice": "worker",
    "TaskRecord": "trace",
    "TaskState": "task",
    "TaskType": "task",
    "TraceRecorder": "trace",
    "WorkerPool": "worker",
    "fig2_model": "pricing",
    "sample_arrival_times": "dynamics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
