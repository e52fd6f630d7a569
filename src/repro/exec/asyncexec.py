"""``"async"`` executor: an asyncio dispatcher over a blocking inner pool.

:class:`AsyncExecutor` is the bridge between an event loop (the
:mod:`repro.serve` service layer) and the blocking executors that do
the actual work.  Each :class:`~repro.exec.base.ExecTask` is handed to
the *inner* executor — by default the supervised
:class:`~repro.exec.process.ProcessExecutor` pool — on a worker thread
via ``loop.run_in_executor``, so the loop stays responsive while
compute fans out, and an :class:`asyncio.Semaphore` caps how many
inner batches run at once.

Three contracts carry over unchanged from the rest of the executor
layer:

* **Executor-invariant payloads** — a task executes through the same
  wire documents and the same :meth:`repro.api.Session.run` path as it
  would serially, so results are byte-identical across ``"serial"``,
  ``"process"`` and ``"async"`` and ``executor`` stays excluded from
  :meth:`RunConfig.to_dict`.
* **Callback discipline** — ``on_complete`` / ``on_event`` fire on the
  event-loop thread (never concurrently), so checkpoint journals and
  event sinks need no locking.  Inner-executor supervisor events are
  buffered per task and replayed in completion order.
* **Degradation surfaces, it doesn't raise** — a task whose inner
  batch degrades or fails comes back as an ordinary
  :class:`~repro.exec.base.TaskOutcome`, feeding the same
  :class:`~repro.resilience.batch.BatchReport` machinery.

The synchronous :meth:`run_tasks` entry point (the registry contract
used by :meth:`Session.run_many`) simply drives
:meth:`run_tasks_async` with :func:`asyncio.run`; it must not be
called from a thread that already runs an event loop — async callers
await :meth:`run_tasks_async` (or the single-task
:meth:`execute_async`) directly.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Optional

from ..errors import ModelError
from .base import Executor, resolve_executor

__all__ = ["AsyncExecutor"]


class AsyncExecutor(Executor):
    """Asyncio dispatcher running tasks on a blocking inner executor.

    Parameters
    ----------
    inner:
        The executor that actually runs each task — a registered name
        or an :class:`Executor` instance (default ``"process"``, the
        supervised pool).  Resolved lazily at dispatch time, so the
        registry can rebind the name after construction.
    workers:
        Maximum number of tasks in flight at once (semaphore width,
        and the dispatch thread-pool size).
    """

    name = "async"

    def __init__(self, inner="process", workers: int = 2) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ModelError(f"workers must be an int >= 1, got {workers!r}")
        self.inner = inner
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- dispatch ------------------------------------------------------

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-async-dispatch",
            )
        return self._pool

    def _run_one(self, inner, task, faults, retry, timeout, warmup):
        """Blocking single-task inner batch (runs on a worker thread).

        Events are buffered and handed back so the async side can
        replay them on the loop thread.
        """
        events: list = []
        outcomes = inner.run_tasks(
            [task],
            faults=faults,
            retry=retry,
            timeout=timeout,
            on_event=events.append,
            warmup=warmup,
        )
        return outcomes[0], events

    async def execute_async(
        self,
        task,
        *,
        faults=None,
        retry=None,
        timeout=None,
        warmup=None,
        on_event: Optional[Callable] = None,
    ):
        """Run one task on the inner executor without blocking the loop."""
        loop = asyncio.get_running_loop()
        inner = resolve_executor(self.inner)
        outcome, events = await loop.run_in_executor(
            self._dispatch_pool(),
            partial(self._run_one, inner, task, faults, retry, timeout, warmup),
        )
        if on_event is not None:
            for event in events:
                on_event(event)
        return outcome

    async def run_tasks_async(
        self,
        tasks,
        *,
        fail_fast: bool = False,
        faults=None,
        retry=None,
        timeout=None,
        on_complete: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        warmup=None,
    ) -> list:
        """Async variant of :meth:`run_tasks` (same outcome contract)."""
        tasks = list(tasks)
        if not tasks:
            return []
        semaphore = asyncio.Semaphore(self.workers)

        async def dispatch(task):
            async with semaphore:
                return task, await self.execute_async(
                    task,
                    faults=faults,
                    retry=retry,
                    timeout=timeout,
                    warmup=warmup,
                    on_event=on_event,
                )

        pending = [asyncio.ensure_future(dispatch(t)) for t in tasks]
        outcomes: list = []
        try:
            for fut in asyncio.as_completed(list(pending)):
                task, outcome = await fut
                outcomes.append(outcome)
                if on_complete is not None:
                    on_complete(task, outcome)
                if fail_fast and not outcome.ok:
                    break
        finally:
            for fut in pending:
                fut.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        return outcomes

    def run_tasks(
        self,
        tasks,
        *,
        fail_fast: bool = False,
        faults=None,
        retry=None,
        timeout=None,
        on_complete: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        warmup=None,
    ) -> list:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ModelError(
                "AsyncExecutor.run_tasks cannot block inside a running "
                "event loop; await run_tasks_async instead"
            )
        return asyncio.run(
            self.run_tasks_async(
                tasks,
                fail_fast=fail_fast,
                faults=faults,
                retry=retry,
                timeout=timeout,
                on_complete=on_complete,
                on_event=on_event,
                warmup=warmup,
            )
        )

    def close(self) -> None:
        """Shut down the dispatch thread pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: The instance the executor registry serves as ``"async"``.
ASYNC_EXECUTOR = AsyncExecutor()
