"""Integration tests: full pipeline probe → calibrate → tune → execute."""

from __future__ import annotations

import pytest

from repro import HTuningProblem, TaskSpec, Tuner
from repro.core import simulate_job_latency
from repro.inference import RateProbe, fit_linearity
from repro.market import LinearPricing, MarketModel, TaskType


class TestProbeCalibrateTune:
    """The paper's full workflow: infer market parameters with probes,
    fit the linearity hypothesis, and tune with the calibrated model."""

    def test_calibrated_tuning_close_to_oracle(self):
        true_model = LinearPricing(slope=2.0, intercept=1.0)
        market = MarketModel(true_model)
        vote = TaskType("vote", processing_rate=2.0)

        # 1. probe several price points
        probe = RateProbe(market, vote, slots=8, seed=0)
        prices = [2, 4, 6, 8]
        estimates = [probe.random_period(p, n_events=600) for p in prices]

        # 2. fit the linearity hypothesis
        fit = fit_linearity([float(p) for p in prices], estimates)
        assert fit.supports_hypothesis
        calibrated = fit.to_pricing_model()
        assert calibrated.slope == pytest.approx(2.0, rel=0.15)

        # 3. tune with the calibrated model vs the true model
        def build(pricing):
            tasks = [
                TaskSpec(i, 3, pricing, 2.0) for i in range(20)
            ]
            return HTuningProblem(tasks, budget=300)

        tuned_calibrated = Tuner(seed=0).tune(build(calibrated))
        tuned_oracle = Tuner(seed=0).tune(build(true_model))

        # 4. score both against the TRUE market
        oracle_problem = build(true_model)
        lat_cal = simulate_job_latency(
            oracle_problem, tuned_calibrated, n_samples=20000, rng=1
        )
        lat_orc = simulate_job_latency(
            oracle_problem, tuned_oracle, n_samples=20000, rng=1
        )
        assert lat_cal == pytest.approx(lat_orc, rel=0.05)


class TestBudgetMonotonicity:
    """More budget must never hurt the tuned expected latency."""

    @pytest.mark.parametrize("strategy", ["ea", "ra", "ha"])
    def test_monotone(self, strategy):
        pricing = LinearPricing(1.0, 1.0)
        latencies = []
        for budget in (100, 200, 400, 800):
            tasks = [
                TaskSpec(i, 2 if i < 5 else 4, pricing, 2.0)
                for i in range(10)
            ]
            problem = HTuningProblem(tasks, budget)
            alloc = Tuner(strategy=strategy, seed=0).tune(problem)
            from repro.core import expected_job_latency

            latencies.append(expected_job_latency(problem, alloc))
        assert all(a >= b - 1e-9 for a, b in zip(latencies, latencies[1:]))
