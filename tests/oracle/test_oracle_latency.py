"""Oracle: job-level scoring paths against matrix-exponential cdfs
integrated by ``scipy.integrate.quad`` at 1e-12.

Stated bounds:

* ``expected_job_latency`` and ``evaluate_allocations(scoring="numeric")``
  integrate ``1 − Π cdf`` with the trapezoid rule on a fixed grid
  ``[0, U]``.  Their error is at most the survival mass past ``U``
  (the grid never sees it) plus 1e-5 relative for the trapezoid rule.
  The dropped tail is the larger term for single-phase chains: one
  on-hold-only task loses ``e^{-7.04}`` ≈ 9e-4 of its mean.
* ``completion_probability``: absolute 1e-12.
* ``latency_quantile``: relative 1e-10 (80 bisection steps on a cdf
  that is exact to round-off).
* ``SumOf.cdf``: absolute ``λ_max·Δt``, where ``Δt`` is the grid step.
  The density is convolved with a rectangle rule and accumulated by a
  running sum, both first order in ``Δt``.
* Table 1 Example 1 (exact exponential/Erlang components): relative
  1e-12.  Example 2 goes through ``SumOf`` and inherits its first-order
  bias: relative 4e-3.
"""

from __future__ import annotations

import math

import pytest

from oracle_refs import (
    chain_mean,
    integrate_survival,
    job_chains,
    max_survival,
    phase_type_sf,
    quantile,
)
from repro import HTuningProblem, TaskSpec
from repro.core import Allocation, expected_job_latency
from repro.core.deadline import completion_probability, latency_quantile
from repro.core.latency import _grid_upper, _rate_profiles
from repro.experiments.figures import (
    _table1_rate,
    motivation_example_1,
    motivation_example_2,
)
from repro.market import LinearPricing
from repro.perf.batch import evaluate_allocations
from repro.stats import Exponential, SumOf, grid_for

TRAPEZOID_REL = 1e-5
MODES = ("sequential", "parallel")

PRICING = LinearPricing(1.0, 1.0)
SLOW_PRICING = LinearPricing(0.5, 0.2)


def _homogeneous(n, k):
    tasks = [TaskSpec(i, k, PRICING, 2.0) for i in range(n)]
    problem = HTuningProblem(tasks, budget=n * k * 10)
    return problem, Allocation.uniform(problem, 3)


def _heterogeneous():
    tasks = [
        TaskSpec(0, 1, PRICING, 2.0, "a"),
        TaskSpec(1, 1, PRICING, 2.0, "a"),
        TaskSpec(2, 3, SLOW_PRICING, 0.7, "b"),
        TaskSpec(3, 2, SLOW_PRICING, 5.0, "c"),
    ]
    return HTuningProblem(tasks, budget=100)


def _job_cases():
    cases = {
        f"homo-n{n}-k{k}": _homogeneous(n, k)
        for n in (1, 5, 50)
        for k in (1, 2, 3)
    }
    problem = _heterogeneous()
    cases["heter-nonuniform"] = (
        problem,
        Allocation({0: [2], 1: [5], 2: [1, 4, 9], 3: [3, 3]}),
    )
    return cases


JOB_CASES = _job_cases()


def _reference(problem, allocation, include_processing, mode, upper):
    """``(E[max], ∫_upper^∞ S)`` from the independent reference."""
    chains = job_chains(problem, allocation, include_processing, mode)
    survival = max_survival(chains)
    scale = max(chain_mean(c) for c in chains)
    head = integrate_survival(survival, scale, upper=upper)
    tail = integrate_survival(survival, scale, lower=upper)
    return head + tail, tail


def _upper(problem, allocations, include_processing):
    return max(
        _grid_upper(
            _rate_profiles(problem, a), problem.num_tasks, include_processing
        )
        for a in allocations
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("include_processing", [True, False])
@pytest.mark.parametrize("name", sorted(JOB_CASES))
def test_expected_job_latency(name, include_processing, mode):
    problem, allocation = JOB_CASES[name]
    upper = _upper(problem, [allocation], include_processing)
    ref, tail = _reference(problem, allocation, include_processing, mode, upper)
    got = expected_job_latency(
        problem, allocation, include_processing=include_processing,
        repetition_mode=mode,
    )
    assert abs(got - ref) <= tail + TRAPEZOID_REL * ref


def _candidate_sets():
    heter = _heterogeneous()
    homo, _ = _homogeneous(5, 2)
    return {
        "heter": (
            heter,
            [
                Allocation({0: [2], 1: [5], 2: [1, 4, 9], 3: [3, 3]}),
                Allocation.uniform(heter, 1),
                Allocation.uniform(heter, 6),
                Allocation({0: [9], 1: [1], 2: [2, 2, 2], 3: [1, 8]}),
            ],
        ),
        "homo-prices": (
            homo,
            [Allocation.uniform(homo, p) for p in (1, 2, 4, 8)],
        ),
    }


CANDIDATE_SETS = _candidate_sets()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("include_processing", [True, False])
@pytest.mark.parametrize("name", sorted(CANDIDATE_SETS))
def test_evaluate_allocations_numeric(name, include_processing, mode):
    problem, allocations = CANDIDATE_SETS[name]
    # Every candidate is integrated on one grid wide enough for the
    # slowest of them.
    upper = _upper(problem, allocations, include_processing)
    scores = evaluate_allocations(
        problem, allocations, scoring="numeric",
        include_processing=include_processing, repetition_mode=mode,
    )
    for allocation, got in zip(allocations, scores):
        ref, tail = _reference(
            problem, allocation, include_processing, mode, upper
        )
        assert abs(got - ref) <= tail + TRAPEZOID_REL * ref


def _deadline_problem():
    tasks = [TaskSpec(i, 2, PRICING, 2.0, "a") for i in range(10)]
    tasks += [TaskSpec(10 + i, 1, SLOW_PRICING, 0.7, "b") for i in range(5)]
    problem = HTuningProblem(tasks, budget=200)
    prices = dict(zip((g.key for g in problem.groups()), (3, 5)))
    return problem, prices


def _reference_cdf(problem, prices, include_processing):
    def cdf(t):
        prob = 1.0
        for group in problem.groups():
            k = group.repetitions
            rates = [group.onhold_rate(prices[group.key])] * k
            if include_processing:
                rates += [group.processing_rate] * k
            prob *= (1.0 - phase_type_sf(rates, t)) ** group.size
        return prob

    return cdf


@pytest.mark.parametrize("include_processing", [True, False])
@pytest.mark.parametrize("confidence", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
def test_latency_quantile(confidence, include_processing):
    problem, prices = _deadline_problem()
    cdf = _reference_cdf(problem, prices, include_processing)
    ref = quantile(cdf, confidence, hi=1e3)
    got = latency_quantile(problem, prices, confidence, include_processing)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("include_processing", [True, False])
@pytest.mark.parametrize("deadline", [0.5, 2.0, 5.0, 10.0])
def test_completion_probability(deadline, include_processing):
    problem, prices = _deadline_problem()
    ref = _reference_cdf(problem, prices, include_processing)(deadline)
    got = completion_probability(problem, prices, deadline, include_processing)
    assert abs(got - ref) <= 1e-12


def _hypoexponential_cdf(a, b, t):
    return 1.0 - (a * math.exp(-b * t) - b * math.exp(-a * t)) / (a - b)


RATE_PAIRS = [(1.0, 2.0), (3.0, 0.5), (10.0, 1.0)]


@pytest.mark.parametrize("a,b", RATE_PAIRS)
def test_sum_of_cdf_is_first_order_in_the_grid_step(a, b):
    components = [Exponential(a), Exponential(b)]
    dist = SumOf(components)
    grid = grid_for(components)
    step = grid[1] - grid[0]
    for factor in (0.1, 0.5, 1.0, 2.0, 4.0):
        t = factor * (1.0 / a + 1.0 / b)
        assert abs(dist.cdf(t) - _hypoexponential_cdf(a, b, t)) <= max(a, b) * step


@pytest.mark.parametrize("a,b", RATE_PAIRS)
def test_sum_of_cdf_error_halves_with_the_grid_step(a, b):
    dist = SumOf([Exponential(a), Exponential(b)])
    t = 1.0 / a + 1.0 / b
    exact = _hypoexponential_cdf(a, b, t)
    coarse = abs(dist.cdf(t, grid_points=4096) - exact)
    fine = abs(dist.cdf(t, grid_points=8192) - exact)
    assert fine == pytest.approx(coarse / 2, rel=0.1)


def _example_1_exact(rate_one, rate_two):
    """``E[max(Exp(a), Erl(2, b))] = 1/a + 2/b − 1/(a+b) − b/(a+b)²``."""
    a, b = rate_one, rate_two
    return 1 / a + 2 / b - 1 / (a + b) - b / (a + b) ** 2


def _example_2_exact(rate_sort, rate_yes_no, processing=(1.0, 2.0)):
    """``E[max]`` of two two-phase tasks, closed-form cdfs, quadrature."""
    chains = {(rate_sort, processing[0]): 1, (rate_yes_no, processing[1]): 1}
    return integrate_survival(max_survival(chains), 1.0)


def _exact_examples():
    """Exact ``(even, load-sensitive)`` latencies of both examples."""
    rate = _table1_rate
    return {
        1: (
            _example_1_exact(rate("sorting-vote", 3.0), rate("sorting-vote", 1.5)),
            _example_1_exact(rate("sorting-vote", 2.0), rate("sorting-vote", 2.0)),
        ),
        2: (
            _example_2_exact(rate("sorting-vote", 3.0), rate("yes-no-vote", 3.0)),
            _example_2_exact(rate("sorting-vote", 4.0), rate("yes-no-vote", 2.0)),
        ),
    }


EXAMPLES = {1: (motivation_example_1, 1e-12), 2: (motivation_example_2, 4e-3)}


@pytest.mark.parametrize("case", ["even", "load-sensitive"])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_table1_motivation_examples(example, case):
    run, rel = EXAMPLES[example]
    result = run()
    even, load_sensitive = _exact_examples()[example]
    if case == "even":
        assert result.even_latency == pytest.approx(even, rel=rel)
    else:
        assert result.load_sensitive_latency == pytest.approx(
            load_sensitive, rel=rel
        )


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_motivation_verdict_matches_exact_latencies(example):
    run, _rel = EXAMPLES[example]
    even, load_sensitive = _exact_examples()[example]
    assert run().load_sensitive_wins == (load_sensitive < even)
