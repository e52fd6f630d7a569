"""Running-parameter inference for the HPU model (paper §3.3).

* :mod:`~repro.inference.mle` — fixed-period and random-period rate
  MLEs with exact confidence intervals and bias correction;
* :mod:`~repro.inference.probe` — probe programs that publish sample
  tasks against a market and drive the estimators;
* :mod:`~repro.inference.linearity` — Linearity-Hypothesis fitting,
  producing calibrated pricing models for the tuner.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "LinearityFit": "linearity",
    "ProbeSession": "probe",
    "RateEstimate": "mle",
    "RateProbe": "probe",
    "estimate_rate_fixed_period": "mle",
    "estimate_rate_random_period": "mle",
    "fit_linearity": "linearity",
    "paper_amt_rates": "linearity",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
