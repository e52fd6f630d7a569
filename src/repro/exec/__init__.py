"""Executors: where a batch of runs executes (serial / process pool).

The executor layer sits between :class:`repro.api.Session` and the
engines: :meth:`Session.run_many` fans its specs — and
:func:`sharded_run_replications` fans a replication ensemble — across
an :class:`Executor` resolved through the same kind of name registry
engines and comparators use.  ``"serial"`` exercises the wire format
in-process; ``"process"`` is the supervised multiprocess pool with
crash recovery, straggler requeue and graceful degradation
(:mod:`repro.exec.process`); ``"async"`` is the asyncio dispatcher
that feeds a blocking inner executor from an event loop
(:mod:`repro.exec.asyncexec`, the :mod:`repro.serve` backend).
Results are executor-invariant by construction — the certification
tests live under ``tests/exec/``.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_EXECUTOR": "base",
    "ExecTask": "base",
    "Executor": "base",
    "SerialExecutor": "base",
    "TaskOutcome": "base",
    "AsyncExecutor": "asyncexec",
    "ProcessExecutor": "process",
    "available_executors": "base",
    "get_executor": "base",
    "register_executor": "base",
    "resolve_executor": "base",
    "sharded_run_replications": "shard",
    "split_replications": "shard",
    "run_replication_shard": "worker",
    "run_task_document": "worker",
    "worker_main": "worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
