"""Batch answer/quality sampling: BatchAggregateSimulator.run_job and
the platform's "batch" engine serving answer-carrying payloads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.market import (
    LinearPricing,
    MarketModel,
    TaskType,
    TraceRecorder,
)
from repro.market.platform import CrowdPlatform, PublishRequest
from repro.market.simulator import AggregateSimulator, AtomicTaskOrder
from repro.perf import BatchAggregateSimulator


@dataclass(frozen=True)
class PredicateQuestion:
    """A yes/no vote: the true answer with probability ``accuracy``."""

    item: int
    truth: bool

    def sample_answer(self, rng, accuracy):
        correct = rng.random() < accuracy
        return self.truth if correct else not self.truth


@pytest.fixture
def market():
    return MarketModel(LinearPricing(slope=1.0, intercept=1.0))


@pytest.fixture
def vote_type():
    return TaskType("vote", processing_rate=2.0, accuracy=0.9)


def _orders(vote_type, n=8, with_payload=True):
    return [
        AtomicTaskOrder(
            task_type=vote_type,
            prices=(2,) * (1 + i % 3),
            atomic_task_id=i,
            payload=PredicateQuestion(item=i, truth=bool(i % 2))
            if with_payload
            else None,
        )
        for i in range(n)
    ]


class TestBatchRunJob:
    def test_answers_sampled_per_repetition(self, market, vote_type):
        sim = BatchAggregateSimulator(market, seed=0)
        orders = _orders(vote_type)
        result = sim.run_job(orders)
        for order in orders:
            got = result.answers[order.atomic_task_id]
            assert len(got) == order.repetitions
            assert all(isinstance(a, (bool, np.bool_)) for a in got)

    def test_deterministic_per_seed(self, market, vote_type):
        a = BatchAggregateSimulator(market, seed=7).run_job(_orders(vote_type))
        b = BatchAggregateSimulator(market, seed=7).run_job(_orders(vote_type))
        assert a.makespan == b.makespan
        assert a.answers == b.answers
        assert a.per_atomic_completion == b.per_atomic_completion

    def test_trace_and_accounting_match_scalar_shape(self, market, vote_type):
        orders = _orders(vote_type)
        recorder = TraceRecorder()
        result = BatchAggregateSimulator(market, seed=1).run_job(
            orders, recorder=recorder
        )
        assert len(recorder.records) == sum(o.repetitions for o in orders)
        assert result.total_paid == sum(sum(o.prices) for o in orders)
        assert result.makespan == max(result.per_atomic_completion.values())

    def test_statistically_agrees_with_scalar_engine(self, market, vote_type):
        """Same aggregate model, different stream layout: means agree."""
        orders = _orders(vote_type, n=4, with_payload=False)
        scalar = np.mean(
            [
                AggregateSimulator(market, seed=s).run_job(orders).makespan
                for s in range(300)
            ]
        )
        batch = np.mean(
            [
                BatchAggregateSimulator(market, seed=10_000 + s)
                .run_job(orders)
                .makespan
                for s in range(300)
            ]
        )
        assert batch == pytest.approx(scalar, rel=0.1)

    def test_parallel_mode(self, market, vote_type):
        result = BatchAggregateSimulator(market, seed=2).run_job(
            _orders(vote_type), repetition_mode="parallel"
        )
        assert result.makespan > 0

    def test_rejects_bad_mode_and_empty_job(self, market, vote_type):
        sim = BatchAggregateSimulator(market, seed=0)
        with pytest.raises(SimulationError):
            sim.run_job(_orders(vote_type), repetition_mode="sideways")
        with pytest.raises(SimulationError):
            sim.run_job([])

    def test_sample_makespans_still_rejects_payloads(self, market, vote_type):
        sim = BatchAggregateSimulator(market, seed=0)
        with pytest.raises(SimulationError):
            sim.sample_makespans(_orders(vote_type), 10)


class TestBatchPlatform:
    def test_run_batch_with_answers(self, market, vote_type):
        platform = CrowdPlatform(market, engine="batch", seed=0)
        requests = [
            PublishRequest(
                task_type=vote_type,
                prices=(2, 2),
                payload=PredicateQuestion(item=i, truth=True),
            )
            for i in range(5)
        ]
        result = platform.run_batch(requests)
        assert platform.engine_name == "batch"
        assert set(result.answers) == set(range(5))
        assert all(len(v) == 2 for v in result.answers.values())
