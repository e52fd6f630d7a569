"""Output checks, computed in-process outside every timed window.

* A served run document must equal a direct ``Session.run`` of the same
  spec (``execution`` holds per-run timing and is dropped first).
* A served allocation must equal what a fresh ``LiveMarket`` prices for
  the same request, and the final ledger must have spent exactly the
  sum of the accepted costs, which holds in any arrival order.
* The paper batch must agree, within stated tolerances, with references
  computed independently of the code paths that produced it.

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Relative tolerance of the Table 1 Example 2 check: the exact
#: phase-type value against the numeric convolution path, which is
#: known to read about 0.3% low.
TABLE1_EXAMPLE2_RTOL = 0.01
#: Relative tolerance of Example 1, whose components are exact.
TABLE1_EXAMPLE1_RTOL = 1e-6
#: Fig. 2 Monte Carlo against numeric scoring, point by point.
MC_VS_NUMERIC_RTOL = 0.03
LEDGER_BUDGET = 10**15


def run_document(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "execution"}


class References:
    """In-process references, memoised by request."""

    def __init__(self) -> None:
        from repro.api import Session

        self.session = Session()
        self._runs: dict = {}
        self._prices: dict = {}

    def run(self, spec: dict) -> dict:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._runs:
            self._runs[key] = run_document(self.session.run(spec).to_dict())
        return self._runs[key]

    def fill(self, spec: dict, store: str) -> str:
        """Run *spec* into *store*; keeps the document as its reference."""
        doc = self.session.run(spec, store=store).to_dict()
        self._runs[json.dumps(spec, sort_keys=True)] = run_document(doc)
        return doc["fingerprint"]

    def allocation(self, request: dict) -> dict:
        from repro.serve import LiveMarket

        key = json.dumps(request, sort_keys=True)
        if key not in self._prices:
            self._prices[key] = LiveMarket(budget=LEDGER_BUDGET).allocate(request)
        return self._prices[key]


def _priced(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("allocation_id", "remaining_budget")}


def check_allocation(served: dict, request: dict, refs: References) -> list:
    ref = refs.allocation(request)
    if served.get("cost") != ref["cost"]:
        return [f"allocation cost {served.get('cost')} != reference {ref['cost']} for {request}"]
    if _priced(served) != _priced(ref):
        return [f"allocation document differs from reference for {request}"]
    return []


def check_ledger(state: dict, served_costs: list) -> list:
    ledger = state.get("ledger", {})
    problems = []
    if ledger.get("spent") != sum(served_costs):
        problems.append(f"ledger spent {ledger.get('spent')} != sum of accepted costs {sum(served_costs)}")
    if ledger.get("accepted") != len(served_costs):
        problems.append(f"ledger accepted {ledger.get('accepted')} != {len(served_costs)} allocations")
    return problems


def check_run(served: dict, spec: dict, refs: References) -> list:
    if run_document(served) != refs.run(spec):
        return [f"served run document differs from Session.run for {spec}"]
    return []


# -- paper batch -------------------------------------------------------


def _table1_rate(task: str, price: float) -> float:
    from repro.experiments.figures import TABLE1_RATES

    table = TABLE1_RATES[task]
    if price in table:
        return table[price]
    prices = sorted(table)
    slope, intercept = np.polyfit(prices, [table[p] for p in prices], 1)
    return slope * price + intercept


def _expected_max(cdfs, upper: float) -> float:
    """``E[max] = ∫ (1 - Π F_i(t)) dt`` by the trapezoid rule."""
    t = np.linspace(0.0, upper, 2_000_001)
    prod = np.ones_like(t)
    for cdf in cdfs:
        prod *= cdf(t)
    y = 1.0 - prod
    return float(np.sum((y[1:] + y[:-1]) * np.diff(t)) / 2.0)


def _exp_cdf(rate):
    return lambda t: 1.0 - np.exp(-rate * t)


def _erlang2_cdf(rate):
    return lambda t: 1.0 - np.exp(-rate * t) * (1.0 + rate * t)


def _hypo_cdf(a, b):
    # The two-phase latency L_o + L_p with distinct rates (paper §3.2).
    return lambda t: 1.0 - (b * np.exp(-a * t) - a * np.exp(-b * t)) / (b - a)


def table1_references() -> dict:
    """Table 1 expected latencies from closed-form cdfs, no convolution."""
    r = _table1_rate
    ex1 = {
        "even_latency": _expected_max(
            [_exp_cdf(r("sorting-vote", 3.0)), _erlang2_cdf(r("sorting-vote", 1.5))], 60.0),
        "load_sensitive_latency": _expected_max(
            [_exp_cdf(r("sorting-vote", 2.0)), _erlang2_cdf(r("sorting-vote", 2.0))], 60.0),
    }
    proc_sort, proc_yn = 1.0, 2.0
    ex2 = {
        "even_latency": _expected_max(
            [_hypo_cdf(r("sorting-vote", 3.0), proc_sort), _hypo_cdf(r("yes-no-vote", 3.0), proc_yn)], 80.0),
        "load_sensitive_latency": _expected_max(
            [_hypo_cdf(r("sorting-vote", 4.0), proc_sort), _hypo_cdf(r("yes-no-vote", 2.0), proc_yn)], 80.0),
    }
    return {"example_1": ex1, "example_2": ex2}


def _close(got, want, rtol) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _finite_positive(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values)


def check_paper_batch(docs: list, table1_ref: dict) -> list:
    """Problems in one batch's documents (in ``PAPER_SPECS`` order)."""
    from repro.perf.reference import reference_min_cost_for_deadline
    from repro.workloads.families import scenario_family

    problems = []
    by_label = {}
    for doc in docs:
        params = doc["spec"]["params"]
        label = doc["experiment"]
        if label == "fig2":
            label = f"fig2-{params['scenario']}-{params['scoring']}"
        by_label[label] = doc

    table1 = by_label["table1"]["payload"]
    for example, rtol in (("example_1", TABLE1_EXAMPLE1_RTOL), ("example_2", TABLE1_EXAMPLE2_RTOL)):
        for key, want in table1_ref[example].items():
            got = table1[example][key]
            if not _close(got, want, rtol):
                problems.append(f"table1 {example}.{key} = {got}, reference {want:.6f} (rtol {rtol})")

    optimal = {"homo": "ea", "repe": "ra", "heter": "ha"}
    for scenario, strategy in optimal.items():
        series = by_label[f"fig2-{scenario}-numeric"]["payload"]["series"]
        if not all(_finite_positive(s) for s in series.values()):
            problems.append(f"fig2 {scenario}: non-finite or non-positive latency")
        line = series[strategy]
        if any(b > a * (1 + 1e-9) for a, b in zip(line, line[1:])):
            problems.append(f"fig2 {scenario}: optimal {strategy} latency rises with budget")
    mc = by_label["fig2-repe-mc"]["payload"]["series"]
    numeric = by_label["fig2-repe-numeric"]["payload"]["series"]
    for strategy, line in numeric.items():
        for got, want in zip(mc[strategy], line):
            if not _close(got, want, MC_VS_NUMERIC_RTOL):
                problems.append(f"fig2 repe {strategy}: MC {got} vs numeric {want}")
                break

    frontier = by_label["deadline-frontier"]
    params = frontier["spec"]["params"]
    family = scenario_family(params["scenario"], case=params["case"], n_tasks=params["n_tasks"])
    payload = frontier["payload"]
    for conf in params["confidences"]:
        costs = payload["series"][f"p{conf:g}"]
        for deadline, cost in zip(payload["deadlines"], costs):
            ref = reference_min_cost_for_deadline(
                family.tasks, deadline, confidence=conf, max_price=params["max_price"])
            if ref.cost != cost:
                problems.append(f"deadline-frontier d={deadline:.3f}: cost {cost}, reference {ref.cost}")

    for name in ("fig5c", "fig4"):
        payload = by_label[name]["payload"]
        values = (
            [v for s in payload["series"].values() for v in s]
            if name == "fig5c"
            else list(payload["inferred_rates"].values())
        )
        if not values or not _finite_positive(values):
            problems.append(f"{name}: non-finite or non-positive values")
    return problems
