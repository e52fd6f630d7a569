"""Latency distributions used by the HPU model (paper §3.2).

The paper models each phase of a task's life with an exponential clock:

* on-hold phase  ``L_o ~ Exp(λ_o(c))`` — rate depends on the price ``c``;
* processing phase ``L_p ~ Exp(λ_p)`` — rate depends on difficulty only.

A task repeated ``k`` times sequentially has Erlang(k, λ) latency
(Lemma 3), and the two-phase overall latency ``L = L_o + L_p`` is
hypoexponential (§3.2's convolution).  This module implements those
distributions with a small, explicit interface (pdf / cdf / sf / mean /
var / sample) so the rest of the library never reaches into scipy
directly and the λ_o → λ_p degenerate limit is handled in exactly one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ModelError
from . import convolution
from .rng import RandomState, ensure_rng

__all__ = [
    "Distribution",
    "Exponential",
    "Erlang",
    "Hypoexponential",
    "Deterministic",
    "MaximumOf",
    "SumOf",
    "two_phase_latency",
]

#: Relative rate difference below which two exponential rates are
#: treated as equal (the hypoexponential density is numerically
#: unstable when λ_o ≈ λ_p; we switch to the Erlang limit there).
_RATE_EQ_RTOL = 1e-9


def _validate_rate(rate: float, name: str = "rate") -> float:
    rate = float(rate)
    if not math.isfinite(rate) or rate <= 0.0:
        raise ModelError(f"{name} must be a positive finite number, got {rate}")
    return rate


@runtime_checkable
class Distribution(Protocol):
    """Minimal protocol all latency distributions implement."""

    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Probability density at ``t`` (0 for t < 0)."""
        ...

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """``P(L <= t)``."""
        ...

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Survival function ``P(L > t)``."""
        ...

    def mean(self) -> float:
        """Expected value."""
        ...

    def var(self) -> float:
        """Variance."""
        ...

    def sample(self, rng: RandomState = None, size: int | None = None):
        """Draw samples."""
        ...


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution ``Exp(rate)``.

    The paper's primitive for both latency phases (§3.1.1): the task
    acceptance time satisfies ``P(t_acc <= s) = 1 - exp(-λ s)``.
    """

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _validate_rate(self.rate))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)))
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < 0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))
        return out if out.ndim else float(out)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < 0, 1.0, np.exp(-self.rate * np.maximum(t, 0.0)))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0 / self.rate

    def var(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def quantile(self, q: float) -> float:
        """Inverse cdf; ``q`` in [0, 1)."""
        if not 0.0 <= q < 1.0:
            raise ModelError(f"quantile level must be in [0, 1), got {q}")
        return -math.log1p(-q) / self.rate

    def sample(self, rng: RandomState = None, size: int | None = None):
        gen = ensure_rng(rng)
        return gen.exponential(scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Erlang:
    """Erlang distribution ``Erl(shape, rate)`` — sum of iid exponentials.

    Lemma 3: an atomic task run for ``k`` sequential repetitions, each
    with ``Exp(λ)`` latency, completes after ``Erl(k, λ)`` time.
    """

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if int(self.shape) != self.shape or self.shape < 1:
            raise ModelError(f"Erlang shape must be a positive integer, got {self.shape}")
        object.__setattr__(self, "shape", int(self.shape))
        object.__setattr__(self, "rate", _validate_rate(self.rate))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        k, lam = self.shape, self.rate
        tt = np.maximum(t, 0.0)
        with np.errstate(divide="ignore"):
            log_pdf = (
                k * math.log(lam)
                + (k - 1) * np.log(np.where(tt > 0, tt, 1.0))
                - lam * tt
                - math.lgamma(k)
            )
        out = np.where(t < 0, 0.0, np.exp(log_pdf))
        if k > 1:
            out = np.where(t == 0, 0.0, out)
        elif np.any(t == 0):
            out = np.where(t == 0, lam, out)
        return out if out.ndim else float(out)

    def cdf(self, t):
        # P(Erl(k,λ) <= t) = P(Poisson(λt) >= k) = 1 - Σ_{i<k} e^{-λt}(λt)^i / i!
        t = np.asarray(t, dtype=float)
        lam_t = self.rate * np.maximum(t, 0.0)
        acc = np.zeros_like(lam_t)
        term = np.ones_like(lam_t)
        for i in range(self.shape):
            if i > 0:
                term = term * lam_t / i
            acc = acc + term
        out = np.where(t < 0, 0.0, 1.0 - np.exp(-lam_t) * acc)
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def sf(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = 1.0 - np.asarray(self.cdf(t_arr))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.shape / self.rate

    def var(self) -> float:
        return self.shape / (self.rate * self.rate)

    def sample(self, rng: RandomState = None, size: int | None = None):
        gen = ensure_rng(rng)
        return gen.gamma(shape=self.shape, scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Hypoexponential:
    """Sum of two independent exponentials with distinct rates (§3.2).

    This is the overall task latency ``L = L_o + L_p`` with density

        f(t) = λ_o λ_p / (λ_o - λ_p) (e^{-λ_p t} - e^{-λ_o t}).

    Construct via :func:`two_phase_latency`, which falls back to
    ``Erlang(2, λ)`` when the two rates coincide.
    """

    rate_onhold: float
    rate_processing: float

    def __post_init__(self) -> None:
        a = _validate_rate(self.rate_onhold, "rate_onhold")
        b = _validate_rate(self.rate_processing, "rate_processing")
        if math.isclose(a, b, rel_tol=_RATE_EQ_RTOL):
            raise ModelError(
                "Hypoexponential requires distinct rates; use two_phase_latency() "
                "which degrades to Erlang(2, rate) when rates coincide"
            )
        object.__setattr__(self, "rate_onhold", a)
        object.__setattr__(self, "rate_processing", b)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self.rate_onhold, self.rate_processing
        tt = np.maximum(t, 0.0)
        coeff = a * b / (a - b)
        out = np.where(t < 0, 0.0, coeff * (np.exp(-b * tt) - np.exp(-a * tt)))
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self.rate_onhold, self.rate_processing
        tt = np.maximum(t, 0.0)
        # F(t) = 1 - (a e^{-b t} - b e^{-a t}) / (a - b)
        out = 1.0 - (a * np.exp(-b * tt) - b * np.exp(-a * tt)) / (a - b)
        out = np.where(t < 0, 0.0, np.clip(out, 0.0, 1.0))
        return out if out.ndim else float(out)

    def sf(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = 1.0 - np.asarray(self.cdf(t_arr))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0 / self.rate_onhold + 1.0 / self.rate_processing

    def var(self) -> float:
        return 1.0 / self.rate_onhold**2 + 1.0 / self.rate_processing**2

    def sample(self, rng: RandomState = None, size: int | None = None):
        gen = ensure_rng(rng)
        a = gen.exponential(scale=1.0 / self.rate_onhold, size=size)
        b = gen.exponential(scale=1.0 / self.rate_processing, size=size)
        return a + b


@dataclass(frozen=True)
class Deterministic:
    """Point mass at ``value`` — useful for tests and degenerate phases."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or v < 0:
            raise ModelError(f"Deterministic latency must be finite and >= 0, got {v}")
        object.__setattr__(self, "value", v)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t == self.value, math.inf, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.value, 1.0, 0.0)
        return out if out.ndim else float(out)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.value, 0.0, 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.value

    def var(self) -> float:
        return 0.0

    def sample(self, rng: RandomState = None, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class MaximumOf:
    """Distribution of ``max(X_1, ..., X_n)`` for independent components.

    Parallel processing (§3.2.1): the latency of a batch is the maximum
    of its members, with cdf the product of member cdfs.
    """

    def __init__(self, components: list) -> None:
        if not components:
            raise ModelError("MaximumOf requires at least one component")
        self.components = list(components)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t, dtype=float)
        for comp in self.components:
            out = out * np.asarray(comp.cdf(t))
        return out if out.ndim else float(out)

    def sf(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = 1.0 - np.asarray(self.cdf(t_arr))
        return out if out.ndim else float(out)

    def pdf(self, t, eps: float = 1e-6):
        """Numerical derivative of the cdf (central difference)."""
        t = np.asarray(t, dtype=float)
        hi = np.asarray(self.cdf(t + eps))
        lo = np.asarray(self.cdf(np.maximum(t - eps, 0.0)))
        width = (t + eps) - np.maximum(t - eps, 0.0)
        out = (hi - lo) / width
        return out if out.ndim else float(out)

    def mean(self, upper: float | None = None) -> float:
        """``E[max] = ∫ (1 - Π F_i(t)) dt`` by adaptive quadrature."""
        from .order_statistics import expected_maximum_generic

        return expected_maximum_generic(self.components, upper=upper)

    def var(self) -> float:
        raise NotImplementedError("variance of a generic maximum is not provided")

    def sample(self, rng: RandomState = None, size: int | None = None):
        gen = ensure_rng(rng)
        draws = [np.asarray(c.sample(gen, size=size)) for c in self.components]
        out = np.maximum.reduce(draws)
        if size is None:
            return float(out)
        return out


class SumOf:
    """Distribution of a sum of independent components (sequential phases).

    Only mean/var/sample are exact; pdf/cdf go through the numeric
    convolution helpers in :mod:`repro.stats.convolution`.  The
    convolved grid is built once per ``grid_points`` and reused by every
    later pdf/cdf call (quadrature over ``E[max]`` calls cdf thousands
    of times); *components* is snapshotted into a tuple so the memo can
    never go stale.
    """

    def __init__(self, components: list) -> None:
        if not components:
            raise ModelError("SumOf requires at least one component")
        self.components = tuple(components)
        self._grids: dict[int, tuple] = {}

    def mean(self) -> float:
        return float(sum(c.mean() for c in self.components))

    def var(self) -> float:
        return float(sum(c.var() for c in self.components))

    def sample(self, rng: RandomState = None, size: int | None = None):
        gen = ensure_rng(rng)
        draws = [np.asarray(c.sample(gen, size=size)) for c in self.components]
        out = sum(draws)
        if size is None:
            return float(out)
        return out

    def _grid(self, grid_points: int) -> tuple:
        """``(grid, pdf, cdf)`` of the convolved sum on *grid_points*."""
        cached = self._grids.get(grid_points)
        if cached is None:
            grid, pdf = convolution.convolve_densities(
                self.components, grid_points
            )
            cached = (grid, pdf, convolution.grid_cdf(grid, pdf))
            self._grids[grid_points] = cached
        return cached

    def cdf(self, t, grid_points: int = 4096):
        grid, _pdf, cdf = self._grid(grid_points)
        return convolution.interp_on_grid(grid, cdf, t, right=1.0)

    def pdf(self, t, grid_points: int = 4096):
        grid, pdf, _cdf = self._grid(grid_points)
        return convolution.interp_on_grid(grid, pdf, t, right=0.0)

    def sf(self, t, grid_points: int = 4096):
        return 1.0 - self.cdf(t, grid_points=grid_points)


def two_phase_latency(rate_onhold: float, rate_processing: float):
    """Overall latency ``L = L_o + L_p`` of a single task (§3.2).

    Returns the hypoexponential distribution, or the Erlang(2, λ) limit
    when the rates coincide (where the paper's closed form has a 0/0).
    """
    a = _validate_rate(rate_onhold, "rate_onhold")
    b = _validate_rate(rate_processing, "rate_processing")
    if math.isclose(a, b, rel_tol=_RATE_EQ_RTOL):
        return Erlang(2, a)
    return Hypoexponential(a, b)
