"""Probability substrate for the HPU latency model (paper §3).

Public surface:

* distributions — :class:`Exponential`, :class:`Erlang`,
  :class:`Hypoexponential`, :class:`Deterministic`, :class:`MaximumOf`,
  :class:`SumOf`, and :func:`two_phase_latency`;
* order statistics — expected maxima/minima used by the tuning
  objectives;
* convolution — numeric pdf/cdf of sums of phases;
* rng — seed normalization and substream spawning.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Deterministic": "distributions",
    "Distribution": "distributions",
    "Erlang": "distributions",
    "Exponential": "distributions",
    "Hypoexponential": "distributions",
    "MaximumOf": "distributions",
    "RandomState": "rng",
    "SumOf": "distributions",
    "convolve_cdf": "convolution",
    "convolve_densities": "convolution",
    "convolve_pdf": "convolution",
    "ensure_rng": "rng",
    "expected_max_erlang_iid": "order_statistics",
    "expected_max_exponential": "order_statistics",
    "expected_max_exponential_iid": "order_statistics",
    "expected_maximum_generic": "order_statistics",
    "expected_min_exponential": "order_statistics",
    "grid_for": "convolution",
    "harmonic_number": "order_statistics",
    "hypoexponential_cdf": "phase_type",
    "hypoexponential_mean": "phase_type",
    "hypoexponential_sf": "phase_type",
    "replication_seeds": "rng",
    "spawn": "rng",
    "two_phase_latency": "distributions",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
