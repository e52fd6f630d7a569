"""Expected maxima of latency collections (order statistics).

The H-Tuning objective is the expected latency of the *longest* task
(§4.2: ``L* = max_i L(t_i)``), so every tuning algorithm reduces to
evaluating expected maxima:

* ``E[max of n iid Exp(λ)] = H_n / λ`` — the harmonic-sum identity the
  paper derives for single-round groups (§4.3.1, "Group of Single
  Round": the spacings ``x_i`` are ``Exp(λ·(n-i+1))``).
* ``E[max(Exp(λ1), Exp(λ2))] = 1/λ1 + 1/λ2 − 1/(λ1+λ2)`` — Lemma 1's
  two-task expression.
* ``E[max of n iid Erlang(k, λ)]`` — no closed form for k > 1; the
  paper evaluates ``∫ n F^{n-1} f t dt`` numerically.  We integrate the
  equivalent survival form ``∫ (1 − F(t)^n) dt``, which is better
  conditioned, and keep an exact fast path for k = 1.

Results are cached because the RA/HA dynamic programs evaluate the same
(n, k, λ) triples thousands of times across the budget loop.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ModelError
from .distributions import Erlang, Exponential

__all__ = [
    "harmonic_number",
    "expected_max_exponential_iid",
    "expected_max_exponential",
    "expected_max_erlang_iid",
    "expected_maximum_generic",
    "expected_min_exponential",
]


@lru_cache(maxsize=65536)
def harmonic_number(n: int) -> float:
    """``H_n = Σ_{i=1..n} 1/i`` (exact summation for small n, asymptotic
    expansion beyond 10^6 where summation would be slow)."""
    if n < 0:
        raise ModelError(f"harmonic number needs n >= 0, got {n}")
    if n == 0:
        return 0.0
    if n <= 1_000_000:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    # Euler–Maclaurin: H_n ≈ ln n + γ + 1/(2n) − 1/(12n²) + 1/(120n⁴)
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1 / (2 * n) - 1 / (12 * n**2) + 1 / (120 * n**4)


def expected_max_exponential_iid(n: int, rate: float) -> float:
    """``E[max of n iid Exp(rate)] = H_n / rate``.

    This is the paper's single-round group latency: the i-th spacing of
    the order statistics is exponential with rate ``rate * (n - i + 1)``
    and the max is the sum of all spacings.
    """
    if n < 1:
        raise ModelError(f"need at least one variable, got n={n}")
    if rate <= 0:
        raise ModelError(f"rate must be positive, got {rate}")
    return harmonic_number(n) / rate


def expected_max_exponential(rates) -> float:
    """``E[max]`` of independent (not necessarily iid) exponentials.

    Uses inclusion–exclusion:
    ``E[max] = Σ_S (−1)^{|S|+1} / Σ_{i∈S} λ_i`` over non-empty subsets
    ``S``.  Exact but exponential in ``len(rates)``; intended for the
    motivating examples and tests (≤ ~20 rates).  Larger heterogeneous
    collections should use :func:`expected_maximum_generic`.
    """
    rates = [float(r) for r in rates]
    if not rates:
        raise ModelError("need at least one rate")
    if any(r <= 0 for r in rates):
        raise ModelError(f"all rates must be positive, got {rates}")
    n = len(rates)
    if n > 22:
        raise ModelError(
            f"inclusion-exclusion over {n} rates is intractable; "
            "use expected_maximum_generic instead"
        )
    total = 0.0
    for mask in range(1, 1 << n):
        s = 0.0
        bits = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                s += rates[i]
                bits += 1
            m >>= 1
            i += 1
        total += (1.0 if bits % 2 == 1 else -1.0) / s
    return total


def expected_min_exponential(rates) -> float:
    """``E[min]`` of independent exponentials = ``1 / Σ λ_i``."""
    rates = [float(r) for r in rates]
    if not rates:
        raise ModelError("need at least one rate")
    if any(r <= 0 for r in rates):
        raise ModelError(f"all rates must be positive, got {rates}")
    return 1.0 / sum(rates)


@lru_cache(maxsize=262144)
def _expected_max_erlang_cached(n: int, shape: int, rate_key: float) -> float:
    rate = float(rate_key)
    if shape == 1:
        return expected_max_exponential_iid(n, rate)
    from scipy import integrate

    dist = Erlang(shape, rate)

    def survival(t: float) -> float:
        f = dist.cdf(t)
        # 1 - F^n, computed stably when F is close to 1.
        if f >= 1.0:
            return 0.0
        return -math.expm1(n * math.log(f)) if f > 0.0 else 1.0

    # The max of n Erlang(k, λ) concentrates below mean + ~wide spread;
    # integrate piecewise to help quad find the mass.
    mean = shape / rate
    std = math.sqrt(shape) / rate
    # Upper cut where survival is negligible even after the n-fold boost.
    upper = mean + (12.0 + 2.0 * math.log1p(n)) * std
    value, _err = integrate.quad(survival, 0.0, upper, limit=200)
    tail, _err2 = integrate.quad(survival, upper, np.inf, limit=200)
    return float(value + tail)


def expected_max_erlang_iid(n: int, shape: int, rate: float) -> float:
    """``E[max of n iid Erlang(shape, rate)]`` (§4.3.1 multi-round groups).

    Exact ``H_n / rate`` for shape 1, else adaptive quadrature of the
    survival function ``∫ (1 − F^n) dt``.  Cached: the DP in Algorithms
    2–3 re-evaluates the same triples at every budget step.
    """
    if n < 1:
        raise ModelError(f"need at least one task in the group, got n={n}")
    if shape < 1 or int(shape) != shape:
        raise ModelError(f"shape must be a positive integer, got {shape}")
    if rate <= 0 or not math.isfinite(rate):
        raise ModelError(f"rate must be positive and finite, got {rate}")
    return _expected_max_erlang_cached(int(n), int(shape), float(rate))


def expected_maximum_generic(components, upper: float | None = None) -> float:
    """``E[max]`` of arbitrary independent non-negative components.

    Integrates ``∫ (1 − Π_i F_i(t)) dt`` with quadrature.  Components
    need only expose ``cdf`` and ``mean`` (mean is used to choose the
    integration split point when *upper* is not given).
    """
    from scipy import integrate

    components = list(components)
    if not components:
        raise ModelError("need at least one component")

    def survival(t: float) -> float:
        prod = 1.0
        for comp in components:
            prod *= float(comp.cdf(t))
            if prod == 0.0:
                return 1.0
        return 1.0 - prod

    if upper is None:
        try:
            means = [float(c.mean()) for c in components]
        except NotImplementedError:
            means = [1.0]
        upper = max(means) * (8.0 + 2.0 * math.log1p(len(components))) + 1.0
    value, _err = integrate.quad(survival, 0.0, upper, limit=200)
    tail, _err2 = integrate.quad(survival, upper, np.inf, limit=200)
    return float(value + tail)
