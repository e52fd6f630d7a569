"""Oracle: expected maxima against 30-digit tanh-sinh quadrature.

Stated bounds:

* ``expected_max_erlang_iid`` and ``expected_maximum_generic``: relative
  1e-10 (both ask ``scipy.integrate.quad`` for its 1.5e-8 default and
  land far inside it on these smooth survival functions);
* ``expected_max_exponential``: relative ``2ⁿ·ε`` — inclusion–exclusion
  sums ``2ⁿ − 1`` alternating terms, each rounded once;
* ``harmonic_number``: relative 1e-14 (pairwise summation below 10⁶,
  Euler–Maclaurin above).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import (
    Erlang,
    Exponential,
    Hypoexponential,
    expected_max_erlang_iid,
    expected_max_exponential,
    expected_maximum_generic,
    harmonic_number,
)

mp = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps


def _mp_expectation(survival, scale):
    """``∫₀^∞ survival`` at 30 digits, split where the mass sits."""
    with mp.workdps(30):
        points = [0] + [scale * f for f in (1, 4, 16)] + [mp.inf]
        return float(mp.quad(survival, points))


def _mp_cdf(component):
    """The exact cdf of one ``repro.stats`` component, in mpmath."""
    if isinstance(component, Exponential):
        return lambda t: -mp.expm1(-component.rate * t)
    if isinstance(component, Erlang):
        return lambda t: mp.gammainc(
            component.shape, 0, component.rate * t, regularized=True
        )
    a, b = component.rate_onhold, component.rate_processing
    return lambda t: 1 - (a * mp.exp(-b * t) - b * mp.exp(-a * t)) / (a - b)


@pytest.mark.parametrize("shape", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [1, 3, 20, 200])
def test_expected_max_erlang_iid(n, shape):
    rate = 1.7
    cdf = _mp_cdf(Erlang(shape, rate))
    ref = _mp_expectation(lambda t: 1 - cdf(t) ** n, shape / rate)
    assert expected_max_erlang_iid(n, shape, rate) == pytest.approx(
        ref, rel=1e-10
    )


MIXTURES = {
    "exp-pair": [Exponential(1.0), Exponential(3.0)],
    "erlang-and-exp": [Erlang(3, 2.0), Exponential(0.8)],
    "hypo-and-exp": [Hypoexponential(4.0, 2.0), Exponential(4.0)],
    "two-hypo": [Hypoexponential(3.0, 1.0), Hypoexponential(5.0, 2.0)],
    "five-mixed": [
        Exponential(0.5),
        Erlang(2, 1.5),
        Erlang(5, 4.0),
        Hypoexponential(1.0, 6.0),
        Exponential(9.0),
    ],
}


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_expected_maximum_generic(name):
    components = MIXTURES[name]
    cdfs = [_mp_cdf(c) for c in components]
    ref = _mp_expectation(
        lambda t: 1 - mp.fprod(cdf(t) for cdf in cdfs),
        max(c.mean() for c in components),
    )
    assert expected_maximum_generic(components) == pytest.approx(ref, rel=1e-10)


RATE_SETS = {
    "pair": [1.0, 2.0],
    "three-spread": [0.5, 1.5, 4.0],
    "iid-6": [1.0] * 6,
    "wide-5": [0.1, 0.2, 0.3, 0.4, 10.0],
    "iid-12": [1.0] * 12,
    "ramp-14": list(np.linspace(0.5, 6.0, 14)),
    "iid-18": [1.0] * 18,
}


@pytest.mark.parametrize("name", sorted(RATE_SETS))
def test_expected_max_exponential(name):
    rates = RATE_SETS[name]
    ref = _mp_expectation(
        lambda t: 1 - mp.fprod(-mp.expm1(-r * t) for r in rates),
        1.0 / min(rates),
    )
    got = expected_max_exponential(rates)
    assert got == pytest.approx(ref, rel=2 ** len(rates) * EPS)


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10**6, 10**6 + 1, 10**8])
def test_harmonic_number(n):
    with mp.workdps(30):
        ref = float(mp.harmonic(n))
    assert harmonic_number(n) == pytest.approx(ref, rel=1e-14)
