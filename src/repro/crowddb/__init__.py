"""Crowd-powered database substrate (paper §1's motivating systems).

* :mod:`~repro.crowddb.aggregate` — question payloads + answer
  aggregation under error-prone workers;
* :mod:`~repro.crowddb.operators` — sort, filter, max, count/threshold;
* :mod:`~repro.crowddb.planner` — operator plans → H-Tuning instances
  → market orders;
* :mod:`~repro.crowddb.engine` — end-to-end tuned query execution.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CategoryQuestion": "operators",
    "ComparisonQuestion": "aggregate",
    "CountQuestion": "aggregate",
    "CrowdCount": "operators",
    "CrowdFilter": "operators",
    "CrowdGroupBy": "operators",
    "CrowdMax": "operators",
    "CrowdQuery": "planner",
    "CrowdQueryEngine": "engine",
    "CrowdSort": "operators",
    "CrowdTopK": "operators",
    "CrowdThresholdFilter": "operators",
    "PlannedQuestion": "planner",
    "PredicateQuestion": "aggregate",
    "QueryOutcome": "engine",
    "aggregate_numeric": "aggregate",
    "majority_confidence": "aggregate",
    "majority_vote": "aggregate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
