"""The benchmark's workloads and their seeded inputs.

Every input is a pure function of ``(workload, seed, seconds)``: the
schedule of operations, their due times and their payloads are drawn
from one ``random.Random`` stream, so the same arguments give the same
inputs on any machine.  The program only ever sees the generated
requests.

Serve workloads are open-loop: each phase offers ``rate`` operations
per second for ``duration`` seconds, one op at a random point of each
``1/rate`` slot.  Op kinds come in blocks with the mix's exact counts,
and categorical choices (rate profile, allocate mode) are dealt from
shuffled decks, so sample counts, the tail percentile used, and the
work offered are the same on every run; only which op falls where, and
the sizes within their stated ranges, change with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FAMILIES = ("homo", "repe", "heter")
CASES = "abcdef"
#: serve-compute's rate profiles: every (family, pricing case) pair.
#: Submissions cycle through them evenly, so each run offers the same
#: mix of cheap and expensive profiles.
PROFILES = tuple((f, c) for f in FAMILIES for c in "abc")
#: Distinct ids serve-warm reads through ``GET /runs/<id>/result``.
READ_POOL = 200
#: The optimal tuning strategy per family (EA/RA/HA, paper §4).
OPTIMAL = {"homo": "ea", "repe": "ra", "heter": "ha"}


@dataclass(frozen=True)
class ServeWorkload:
    """An open-loop traffic mix against one ``repro serve`` process."""

    name: str
    rate: float  # offered ops/s in the main phase
    ladder: tuple  # offered rates tried for max_rate_rps, ascending
    tail_limit_ms: float  # the limit req_tail_ms must meet on a rung
    mix: dict  # op kind -> weight
    warmup_s: float
    rung_s: float  # seconds per ladder rung; the main phase gets the rest
    block: int  # ops per block; every block has the mix's exact counts
    why: str
    repeat_share: float = 0.0  # serve-warm: resubmits of ids seen before
    server_args: tuple = ()  # extra ``repro serve`` arguments
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    setups: int  # fresh child processes timed to ready
    batches: int  # of which at least this many run the batch
    n_allocations: int  # in-process allocations after each batch
    why: str


SERVE_WARM = ServeWorkload(
    name="serve-warm",
    rate=100.0,
    ladder=(50.0, 100.0, 200.0, 500.0),
    tail_limit_ms=40.0,
    # The kind shares of ``repro.serve.loadgen.DEFAULT_MIX``, its
    # submits being resubmits of stored specs here.
    mix={"resubmit": 0.25, "result": 0.15, "poll": 0.2, "state": 0.1, "allocate": 0.3},
    warmup_s=1.0,
    rung_s=3.0,
    block=20,
    repeat_share=0.5,
    why="read-mostly: store-served resubmits and result reads, polls, "
    "state, small allocates; HTTP, spec decode, fingerprint and store "
    "verify dominate, kernels idle",
)

SERVE_COMPUTE = ServeWorkload(
    name="serve-compute",
    rate=5.0,
    ladder=(2.5, 5.0, 10.0, 30.0),
    tail_limit_ms=1000.0,
    mix={"submit": 0.5, "allocate": 0.5},
    warmup_s=2.0,
    rung_s=3.5,
    block=18,
    server_args=("--workers", "1"),
    why="unique ~100-task numeric sweeps that miss the store, plus "
    "budget/deadline allocates with some large heter batches; kernels, "
    "executor wait and store writes dominate",
    params={
        "n_tasks": (90, 110),
        "budget_per_task": (15, 40),
        # Ninths, so 45 allocates split exactly 25 / 15 / 5.
        "alloc_modes": {"budget": 5, "deadline": 3, "large": 1},
    },
)

PAPER_BATCH = BatchWorkload(
    name="paper-batch",
    setups=3,
    batches=2,
    n_allocations=30,
    why="the researcher's path: Table 1, Fig. 2 numeric x3 and MC, the "
    "deadline frontier, Fig. 5c and Fig. 4 via Session.run in a fresh "
    "child; the only workload reaching SumOf/convolution",
)

WORKLOADS = {w.name: w for w in (SERVE_WARM, SERVE_COMPUTE, PAPER_BATCH)}

#: The experiments of one paper batch, in run order.
PAPER_SPECS = [
    {"experiment": "table1", "params": {}},
    {"experiment": "fig2", "params": {"scenario": "homo", "scoring": "numeric"}},
    {"experiment": "fig2", "params": {"scenario": "repe", "scoring": "numeric"}},
    {"experiment": "fig2", "params": {"scenario": "heter", "scoring": "numeric"}},
    {"experiment": "fig2", "params": {"scenario": "repe", "scoring": "mc"}},
    {"experiment": "deadline-frontier", "params": {}},
    {"experiment": "fig5c", "params": {}},
    {"experiment": "fig4", "params": {}},
]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _exact_counts(mix: dict, n: int, rng: random.Random) -> list:
    """Op kinds with exact per-kind counts (largest remainder), shuffled."""
    total = sum(mix.values())
    quotas = {k: n * w / total for k, w in sorted(mix.items())}
    counts = {k: int(q) for k, q in quotas.items()}
    spare = n - sum(counts.values())
    for k in sorted(quotas, key=lambda k: (counts[k] - quotas[k], k))[:spare]:
        counts[k] += 1
    kinds = [k for k in sorted(counts) for _ in range(counts[k])]
    rng.shuffle(kinds)
    return kinds


def phases(workload: ServeWorkload, seconds: float) -> list:
    """``[(phase name, offered rate, duration s), ...]`` in run order.

    The main phase offers the nominal rate for what is left of
    *seconds* after one ``rung_s`` step per ladder rung above it.
    """
    above = [r for r in workload.ladder if r > workload.rate]
    main_s = max(seconds - len(above) * workload.rung_s, seconds / 2)
    out = [("warmup", workload.rate, workload.warmup_s), ("main", workload.rate, main_s)]
    out += [(f"rung-{r:g}", r, workload.rung_s) for r in above]
    return out


def lower_rungs(workload: ServeWorkload) -> list:
    """Rungs below the nominal rate, tried only when the main phase fails."""
    below = [r for r in workload.ladder if r < workload.rate]
    return [(f"rung-{r:g}", r, workload.rung_s) for r in sorted(below, reverse=True)]


class _Plain:
    """Independent uniform draws."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def u(self, dim: str, share: int = 1, n: int = 0) -> float:
        return self.rng.random()

    def pick(self, dim: str, options):
        return options[int(self.u(dim) * len(options))]

    def randint(self, dim: str, lo: int, hi: int, share: int = 1) -> int:
        return lo + int(self.u(dim, share) * (hi - lo + 1))


class _Stratified(_Plain):
    """Stratified draws: per dimension, each of ``n`` consecutive draws
    falls in its own ``1/n`` slice of ``[0, 1)``, in shuffled order.

    Inputs then cover their stated ranges evenly in every run, so the
    work a run offers, and with it the figures, varies less from seed
    to seed than independent draws would make it.
    """

    def __init__(self, rng: random.Random, n: int) -> None:
        super().__init__(rng)
        self.n = max(1, n)
        self._streams: dict = {}

    def u(self, dim: str, share: int = 1, n: int = 0) -> float:
        """The next draw of *dim*, a dimension drawn about ``n / share``
        times (one of *share* sub-populations of the ``n`` draws)."""
        stream = self._streams.get(dim)
        if not stream:
            n = n or max(1, -(-self.n // share))
            stream = [(k + self.rng.random()) / n for k in range(n)]
            self.rng.shuffle(stream)
            self._streams[dim] = stream
        return stream.pop()

    def pick(self, dim: str, options):
        # A shuffled deck: every len(options) draws take each option once.
        return options[int(self.u(dim, n=len(options)) * len(options))]


class _SpecPool:
    """Distinct spec documents; a repeated draw is redrawn independently."""

    def __init__(self, rng: random.Random, draw) -> None:
        self.plain = _Plain(rng)
        self.draw = draw
        self.specs: list = []
        self._seen: set = set()

    def new(self, d: _Plain, **fixed) -> int:
        while True:
            spec = self.draw(d, **fixed)
            key = json.dumps(spec, sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                self.specs.append(spec)
                return len(self.specs) - 1
            d = self.plain


def _warm_spec(d: _Plain) -> dict:
    # Small Monte Carlo sweeps: cheap to compute, because the store
    # fill is set-up rather than measurement, and stored documents of
    # the same shape as any other budget sweep.
    family = d.pick("family", FAMILIES)
    n_tasks = d.randint("n_tasks", 6, 16)
    budgets = sorted({n_tasks * d.randint(f"budget{k}", 15, 60)
                      for k in range(d.randint("n_budgets", 1, 3))})
    return {
        "experiment": "budget-sweep",
        "params": {
            "family": family,
            "case": d.pick("case", CASES),
            "n_tasks": n_tasks,
            "budgets": budgets,
            "strategies": [OPTIMAL[family]],
            "scoring": "mc",
            "n_samples": d.randint("n_samples", 50, 200),
        },
    }


def _compute_spec(d: _Plain, profile=None) -> dict:
    lo, hi = SERVE_COMPUTE.params["n_tasks"]
    b_lo, b_hi = SERVE_COMPUTE.params["budget_per_task"]
    family, case = profile or d.pick("profile", PROFILES)
    # Sizes are stratified within each profile, not only overall.
    n_tasks = d.randint(f"n_tasks/{family}{case}", lo, hi, share=len(PROFILES))
    budget = d.randint(f"budget/{family}{case}", b_lo, b_hi, share=len(PROFILES))
    return {
        "experiment": "budget-sweep",
        "params": {
            "family": family,
            "case": case,
            "n_tasks": n_tasks,
            "budgets": [n_tasks * budget],
            "strategies": [OPTIMAL[family]],
            "scoring": "numeric",
        },
    }


def small_allocate(d: _Plain) -> dict:
    """A 4-8 task budget-mode allocate (the serve-warm market traffic)."""
    n_tasks = d.randint("alloc.n_tasks", 4, 8)
    return {
        "scenario": d.pick("alloc.scenario", FAMILIES),
        "case": "a",
        "n_tasks": n_tasks,
        "budget": n_tasks * d.randint("alloc.budget", 30, 60),
    }


def _modes() -> tuple:
    shares = SERVE_COMPUTE.params["alloc_modes"]
    return tuple(m for m in sorted(shares) for _ in range(shares[m]))


def mixed_allocate(d: _Plain) -> dict:
    """Budget mode across EA/RA/HA, deadline mode, or a large heter batch."""
    mode = d.pick("alloc.mode", _modes())
    if mode == "large":
        n_tasks = d.randint("large.n_tasks", 1000, 2000)
        return {"scenario": "heter", "case": "a", "n_tasks": n_tasks,
                "budget": n_tasks * d.randint("large.budget", 20, 40), "strategy": "ha"}
    scenario = d.pick(f"{mode}.scenario", FAMILIES)
    case = d.pick(f"{mode}.case", CASES)
    if mode == "budget":
        n_tasks = d.randint("budget.n_tasks", 20, 200)
        return {"scenario": scenario, "case": case, "n_tasks": n_tasks,
                "budget": n_tasks * d.randint("budget.budget", 10, 40),
                "strategy": OPTIMAL[scenario]}
    return {"scenario": scenario, "case": case,
            "n_tasks": d.randint("deadline.n_tasks", 20, 100),
            "deadline": round(12.0 + 18.0 * d.u("deadline.deadline"), 3),
            "confidence": d.pick("deadline.confidence", (0.8, 0.9, 0.95))}


def build_schedule(name: str, seed: int, seconds: float) -> dict:
    """The full input of one serve run: phases, ops and the spec pool.

    Each op is ``{"i", "phase", "due", "kind", "spec", "target",
    "payload"}`` with ``due`` in seconds from its phase start; ``spec``
    indexes ``specs`` and ``target`` is the op whose submit a poll
    waits for.
    """
    workload = WORKLOADS[name]
    rng = _rng(name, seed)
    warm = name == "serve-warm"
    pool = _SpecPool(rng, _warm_spec if warm else _compute_spec)
    ops = []
    submitted: list = []  # (spec index, op index of its first submit)
    read_only: list = []  # spec indices only ever read through /result
    until_main: list = []  # what ``submitted`` held after the main phase
    main = phases(workload, seconds)
    for phase, rate, duration in main + lower_rungs(workload):
        lower = (phase, rate, duration) not in main
        if lower and submitted is not until_main:
            # A lower rung runs right after a failed main phase, in
            # place of the upper rungs: it may only poll or repeat what
            # the warm-up and the main phase submitted.
            submitted = until_main
        # Rungs below the nominal rate run only when the main phase
        # fails; serve-warm reuses stored ids there, so the store fill
        # does not pay for specs that are almost never requested.
        reuse = warm and lower
        n = max(1, round(rate * duration))
        kinds = [k for _ in range(-(-n // workload.block))
                 for k in _exact_counts(workload.mix, workload.block, rng)][:n]
        profiles = []
        if phase == "warmup" and not warm:
            # One submit per rate profile, so the phase caches hold
            # every profile before measurement starts.
            profiles = list(PROFILES)
            rng.shuffle(profiles)
            n = len(profiles)
            kinds = ["submit"] * n
        strata = {k: _Stratified(rng, kinds.count(k)) for k in sorted(set(kinds))}
        # One op per 1/rate slot, at a random point of its slot: load
        # without arrival clumps, so queues are the service's doing.
        dues = [(k + rng.random()) * duration / n for k in range(n)]
        for due, kind in zip(dues, kinds):
            d = strata[kind]
            op = {"i": len(ops), "phase": phase, "due": due, "kind": kind,
                  "spec": None, "target": None, "payload": None}
            if kind in ("resubmit", "submit"):
                repeat = kind == "resubmit" and submitted and (
                    reuse or rng.random() < workload.repeat_share)
                if repeat:
                    op["spec"] = rng.choice(submitted)[0]
                else:
                    fixed = {"profile": profiles.pop()} if profiles else {}
                    op["spec"] = pool.new(d, **fixed)
                    submitted.append((op["spec"], op["i"]))
            elif kind == "result":
                # Never submitted to the server, so every read goes to
                # the store; a bounded pool keeps the store fill small.
                if (reuse or len(read_only) >= READ_POOL) and read_only:
                    op["spec"] = rng.choice(read_only)
                else:
                    op["spec"] = pool.new(d)
                    read_only.append(op["spec"])
            elif kind == "poll":
                if submitted:
                    op["spec"], op["target"] = rng.choice(submitted)
                else:
                    op["kind"] = "state"
            elif kind == "allocate":
                op["payload"] = small_allocate(d) if warm else mixed_allocate(d)
            ops.append(op)
        if phase == "main":
            until_main = list(submitted)
    return {"workload": name, "seed": int(seed), "ops": ops, "specs": pool.specs}


def allocation_set(seed: int, n: int) -> list:
    """The paper batch's in-process allocations (no large batches)."""
    rng = _rng("paper-batch-allocations", seed)
    d = _Stratified(rng, n)
    out = []
    while len(out) < n:
        request = mixed_allocate(d)
        if request.get("n_tasks", 0) <= 200:
            out.append(request)
    return out
