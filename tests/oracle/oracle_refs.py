"""Independent references for the oracle suite.

Every numeric scoring path in ``repro`` is checked here against a
computation that shares none of its code or method:

* phase-type survival functions by the **matrix exponential** of the
  chain's sub-generator (``repro`` uses uniformization), either at
  40 significant digits with mpmath or in double precision with
  ``scipy.linalg.expm``;
* expectations ``∫ S(t) dt`` by adaptive quadrature — mpmath's
  tanh-sinh at 30 digits, or ``scipy.integrate.quad`` asked for 1e-12
  relative (``repro`` integrates on a fixed trapezoid grid);
* quantiles by Brent's method on the reference cdf (``repro`` bisects
  on its own cdf).

A phase-type chain here is a list of exponential phase rates visited in
order; a task of ``k`` repetitions with processing is the chain
``[λ_o(p_1), …, λ_o(p_k)] + [λ_p] * k``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, linalg, optimize

#: Quadrature target for the double-precision references.
QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12


def _sub_generator(rates, zeros, to_entry):
    n = len(rates)
    gen = zeros(n, n)
    for i, rate in enumerate(rates):
        gen[i, i] = -to_entry(rate)
        if i + 1 < n:
            gen[i, i + 1] = to_entry(rate)
    return gen


def mp_phase_type_sf(rates, t, dps: int = 40) -> float:
    """``P(Σ Exp(rates_i) > t)`` as ``e₁ᵀ exp(T t) 1`` at *dps* digits."""
    return _mp_phase_type_sf(tuple(rates), float(t), dps)


@lru_cache(maxsize=None)
def _mp_phase_type_sf(rates, t, dps):
    import mpmath as mp

    with mp.workdps(dps):
        gen = _sub_generator(rates, mp.zeros, mp.mpf)
        block = mp.expm(gen * mp.mpf(t))
        return float(mp.fsum(block[0, j] for j in range(len(rates))))


def phase_type_sf(rates, t: float) -> float:
    """Double-precision ``e₁ᵀ exp(T t) 1`` by Padé scaling-and-squaring."""
    gen = _sub_generator(rates, lambda n, m: np.zeros((n, m)), float)
    return float(linalg.expm(gen * t)[0].sum())


def chain_mean(rates) -> float:
    return sum(1.0 / r for r in rates)


def max_survival(chains):
    """Survival ``1 − Π_c F_c(t)^{n_c}`` of the max over independent
    chains; *chains* maps a rate tuple to its multiplicity."""

    def survival(t: float) -> float:
        prod = 1.0
        for rates, count in chains.items():
            prod *= (1.0 - phase_type_sf(list(rates), t)) ** count
        return 1.0 - prod

    return survival


def integrate_survival(survival, scale: float, lower=0.0, upper=math.inf):
    """``∫_lower^upper survival(t) dt``; *scale* (a mean) places the
    break points that keep the adaptive rule on the mass."""
    edge = max(lower, min(upper, 16.0 * scale))
    breaks = [scale * f for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
    breaks = [b for b in breaks if lower < b < edge] or None
    options = dict(epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=500)
    total = 0.0
    if edge > lower:
        total += integrate.quad(survival, lower, edge, points=breaks, **options)[0]
    if upper > edge:
        total += integrate.quad(survival, edge, upper, **options)[0]
    return total


def job_chains(problem, allocation, include_processing=True,
               repetition_mode="sequential"):
    """Rate chains of every task of *problem* under *allocation*.

    Sequential repetitions chain into one task; parallel repetitions
    are independent single-repetition chains whose max is the task.
    """
    chains: dict[tuple, int] = {}
    for task in problem.tasks:
        onhold = [task.onhold_rate(p) for p in allocation[task.task_id]]
        proc = [task.processing_rate] if include_processing else []
        if repetition_mode == "sequential":
            pieces = [tuple(onhold + proc * len(onhold))]
        else:
            pieces = [tuple([rate] + proc) for rate in onhold]
        for piece in pieces:
            chains[piece] = chains.get(piece, 0) + 1
    return chains


def quantile(cdf, level: float, hi: float) -> float:
    """Root of ``cdf(t) = level`` on ``(0, hi]`` by Brent's method."""
    return optimize.brentq(
        lambda t: cdf(t) - level, 1e-12, hi, xtol=1e-15, rtol=1e-15
    )
