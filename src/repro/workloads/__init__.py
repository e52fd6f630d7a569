"""Workload factories: the paper's §5 settings and stress families."""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AMT_VOTE_ATTRACTIVENESS": "amt",
    "AMT_VOTE_PROCESSING_SECONDS": "amt",
    "PAPER_BUDGETS": "scenarios",
    "ProblemFamily": "families",
    "amt_market": "amt",
    "amt_pricing_model": "amt",
    "amt_task_type": "amt",
    "amt_worker_pool": "amt",
    "as_problem_family": "families",
    "available_families": "families",
    "get_family_builder": "families",
    "heterogeneous_family": "families",
    "heterogeneous_tasks": "scenarios",
    "heterogeneous_workload": "scenarios",
    "homogeneity_family": "families",
    "homogeneity_tasks": "scenarios",
    "homogeneity_workload": "scenarios",
    "many_groups_problem": "generators",
    "random_problem": "generators",
    "register_family": "families",
    "repetition_family": "families",
    "repetition_tasks": "scenarios",
    "repetition_workload": "scenarios",
    "scenario_family": "families",
    "scenario_workload": "scenarios",
    "skewed_repetition_problem": "generators",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
