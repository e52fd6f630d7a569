"""Experiment harness regenerating every table/figure of the paper."""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BudgetLatencyFrontier": "pareto",
    "DeadlineCostFrontier": "pareto",
    "DeadlineFrontierPoint": "pareto",
    "DeadlineSweepResult": "runner",
    "FIG2_STRATEGIES": "figures",
    "FrontierPoint": "pareto",
    "Fig3Result": "figures",
    "Fig4Result": "figures",
    "Fig5abResult": "figures",
    "Fig5cResult": "figures",
    "MotivationResult": "figures",
    "SweepResult": "runner",
    "deadline_cost_frontier": "pareto",
    "deadline_frontier_experiment": "figures",
    "evaluate_allocation": "runner",
    "evaluate_allocation_with_ci": "runner",
    "fig2_experiment": "figures",
    "fig3_experiment": "figures",
    "fig4_experiment": "figures",
    "fig5ab_experiment": "figures",
    "fig5c_experiment": "figures",
    "budget_latency_frontier": "pareto",
    "format_kv": "reporting",
    "format_series": "reporting",
    "format_table": "reporting",
    "min_budget_for_latency": "pareto",
    "motivation_example_1": "figures",
    "motivation_example_2": "figures",
    "run_budget_sweep": "runner",
    "run_deadline_sweep": "runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
