"""Oracle: ``hypoexponential_sf`` / ``hypoexponential_cdf`` against the
40-digit matrix exponential of the chain's sub-generator.

Stated bound: ``|sf − ref| ≤ tol + 16·ε·max(1, q·t)`` with ``q`` the
largest rate.  ``tol`` is the Poisson truncation tolerance the
uniformization series is sized for; the second term is round-off in the
log-space Poisson weights, whose exponent ``n·log(qt) − qt`` carries an
absolute error of a few ``ε·qt`` (about 5e-12 at ``q·t = 1e4``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import hypoexponential_cdf, hypoexponential_sf

pytest.importorskip("mpmath")

from oracle_refs import chain_mean, mp_phase_type_sf  # noqa: E402

EPS = np.finfo(float).eps

#: Rate chains covering the regimes the uniformization must survive.
PROFILES = {
    "single-phase": [1.0],
    "erlang-5": [2.0] * 5,
    "two-distinct": [1.0, 2.0],
    "mixed-multiplicities": [0.5, 3.0, 3.0, 7.0],
    "nearly-equal": [1.0, 1.0 + 1e-9],
    "stiff-1e4": [1000.0, 0.1],
    "stiff-triple": [0.01, 100.0, 100.0],
    "paper-task-k3": [0.3] * 3 + [1.7] * 3,
    "long-chain": [0.7] * 6 + [3.0] * 6,
    "fast-phases": [40.0, 55.0],
}

#: Evaluation times as multiples of the chain mean: head, body, tail.
TIME_FACTORS = (0.05, 0.5, 1.0, 3.0, 10.0)


def _bound(rates, t, tol=1e-12):
    return tol + 16.0 * EPS * max(1.0, max(rates) * t)


@pytest.mark.parametrize("factor", TIME_FACTORS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_sf_matches_matrix_exponential(name, factor):
    rates = PROFILES[name]
    t = factor * chain_mean(rates)
    ref = mp_phase_type_sf(rates, t)
    assert abs(hypoexponential_sf(rates, t) - ref) <= _bound(rates, t)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_cdf_on_a_time_vector(name):
    rates = PROFILES[name]
    times = chain_mean(rates) * np.array(TIME_FACTORS)
    got = hypoexponential_cdf(rates, times)
    for t, value in zip(times, got):
        ref = 1.0 - mp_phase_type_sf(rates, t)
        assert abs(value - ref) <= _bound(rates, t)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("name", ["mixed-multiplicities", "stiff-1e4"])
def test_looser_tolerance_stays_within_tolerance(name, tol):
    rates = PROFILES[name]
    for factor in TIME_FACTORS:
        t = factor * chain_mean(rates)
        ref = mp_phase_type_sf(rates, t)
        assert abs(hypoexponential_sf(rates, t, tol=tol) - ref) <= _bound(
            rates, t, tol
        )
