"""Crowd-powered database operators (the paper's motivating apps)."""

from ..._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CategoryQuestion": "groupby",
    "CrowdCount": "count",
    "CrowdFilter": "filter",
    "CrowdGroupBy": "groupby",
    "CrowdMax": "max_",
    "CrowdSort": "sort",
    "CrowdTopK": "topk",
    "CrowdThresholdFilter": "count",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
