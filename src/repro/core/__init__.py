"""The paper's primary contribution: H-Tuning problem + algorithms (§4).

* :mod:`~repro.core.problem` — problem model (tasks, groups, budget,
  allocations, scenario detection);
* :mod:`~repro.core.latency` — expected-latency engine (group
  surrogate, exact numeric job latency, Monte Carlo);
* :mod:`~repro.core.even_allocation` — Algorithm 1 (EA, Scenario I);
* :mod:`~repro.core.repetition` — Algorithm 2 (RA, Scenario II);
* :mod:`~repro.core.heterogeneous` — Algorithm 3 (HA, Scenario III);
* :mod:`~repro.core.objectives` — O1/O2, utopia point, closeness;
* :mod:`~repro.core.baselines` — bias-α / task-even / rep-even /
  uniform heuristics used as comparisons in §5;
* :mod:`~repro.core.exhaustive` — exact reference optimizers;
* :mod:`~repro.core.tuner` — scenario-aware facade.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AdaptiveTuner": "adaptive",
    "Allocation": "problem",
    "DeadlineResult": "deadline",
    "MarketBelief": "adaptive",
    "QualityPlan": "quality",
    "RoundOutcome": "adaptive",
    "completion_probability": "deadline",
    "latency_quantile": "deadline",
    "latency_quantile_batch": "deadline",
    "majority_correct_probability": "quality",
    "min_cost_for_deadline": "deadline",
    "min_cost_for_deadline_sweep": "deadline",
    "plan_repetitions": "quality",
    "repetitions_for_quality": "quality",
    "HAResult": "heterogeneous",
    "HTuningProblem": "problem",
    "ObjectivePoint": "objectives",
    "STRATEGIES": "tuner",
    "SWEEP_STRATEGIES": "tuner",
    "Scenario": "problem",
    "TaskGroup": "problem",
    "TaskSpec": "problem",
    "Tuner": "tuner",
    "tune_budget_sweep": "tuner",
    "biased_allocation": "baselines",
    "budget_indexed_dp": "repetition",
    "closeness": "objectives",
    "erlang_max_constant": "latency",
    "even_allocation": "even_allocation",
    "exact_group_dp": "exhaustive",
    "exhaustive_group_search": "exhaustive",
    "exhaustive_latency_search": "exhaustive",
    "expected_job_latency": "latency",
    "greedy_marginal_allocation": "repetition",
    "group_onhold_latency": "latency",
    "group_processing_latency": "latency",
    "heterogeneous_algorithm": "heterogeneous",
    "heterogeneous_algorithm_sweep": "heterogeneous",
    "objective_o1": "objectives",
    "objective_o2": "objectives",
    "rep_even_allocation": "baselines",
    "repetition_algorithm": "repetition",
    "repetition_algorithm_sweep": "repetition",
    "sample_job_latencies": "latency",
    "simulate_job_latency": "latency",
    "surrogate_onhold_objective": "latency",
    "task_even_allocation": "baselines",
    "uniform_price_heuristic": "baselines",
    "utopia_point": "objectives",
    "utopia_point_sweep": "objectives",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
