"""``repro.serve`` — the live crowd-market service layer.

Turns the batch library into a long-running HTTP service (the
ROADMAP's "serving heavy traffic" north star): submissions flow
through the experiment registry and the content-addressed result
store exactly as :meth:`repro.api.Session.run` would take them, an
online market endpoint prices arriving task batches against a live
budget ledger with the paper's DP / deadline kernels, and a seeded
load generator replays deterministic traffic for tests and the
``service_latency`` bench.  Layering (see ``docs/architecture.md``):

    cli → serve → api / exec → engines

Everything is stdlib + the already-present numpy: the HTTP layer is
asyncio streams, compute dispatch rides the ``"async"`` executor
(:mod:`repro.exec.asyncexec`), and failure paths are deterministic
via the ``serve.request`` / ``serve.backend`` fault sites.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ReproService": "service",
    "ServiceHandle": "service",
    "ServiceBackend": "backend",
    "ExecutorBackend": "backend",
    "LiveMarket": "market",
    "DEFAULT_MARKET_BUDGET": "market",
    "ScheduledRequest": "loadgen",
    "LoadReport": "loadgen",
    "DEFAULT_MIX": "loadgen",
    "build_schedule": "loadgen",
    "run_load": "loadgen",
    "http_request": "loadgen",
    "serve_forever": "service",
    "start_in_thread": "service",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
