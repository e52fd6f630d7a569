"""Open-loop HTTP load generator for the serve workloads.

One asyncio process sends every operation at its scheduled due time,
whether or not earlier ones have finished.  At most ``senders`` HTTP
exchanges are in flight; an operation due while every sender is busy
waits for one, and because every exchange is timed from the moment it
was due (not from when it was sent) that wait counts against the
service.  A poll that follows a ``202`` is due one poll interval after
the previous answer arrived.

The generator measures its own lateness (how long after its due time
the scheduler woke up to start an operation) so a run in which the
generator, not the service, fell behind can be told apart.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time

POLL_INTERVAL_S = 0.01
EXCHANGE_TIMEOUT_S = 30.0


async def http(host: str, port: int, method: str, path: str, body=None):
    """One HTTP/1.1 exchange on a fresh connection: ``(status, doc)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, (json.loads(rest) if rest else None)


class OpFailed(Exception):
    """An operation got an unexpected answer."""


class Generator:
    """Drives scheduled operations against one service address.

    ``fingerprints`` maps a spec index to the run id the service must
    answer with (known up front for stored specs); ``specs`` holds the
    spec documents.
    """

    def __init__(self, host, port, senders, specs, fingerprints=None):
        self.host, self.port = host, port
        self.specs = specs
        self.fingerprints = dict(fingerprints or {})
        self.senders = senders
        self._slots = asyncio.Semaphore(senders)
        self._rids = itertools.count(1)
        self.exchanges: list = []  # (op, phase, label, due_ns, end_ns, status, rid)
        self.ops: dict = {}  # op index -> outcome dict
        self.lateness_ns: dict = {}  # phase -> [ns late, ...]
        self.finished = 0
        self._done: dict = {}

    async def exchange(self, op, label, due_ns, method, path, body=None):
        async with self._slots:
            rid = next(self._rids)
            sep = "&" if "?" in path else "?"
            try:
                status, doc = await asyncio.wait_for(
                    http(self.host, self.port, method, f"{path}{sep}rid={rid}", body),
                    EXCHANGE_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
                status, doc = None, None
                error = f"{label}: {type(exc).__name__}: {exc}"
            else:
                error = None
        end_ns = time.perf_counter_ns()
        self.exchanges.append((op["i"], op["phase"], label, due_ns, end_ns, status, rid))
        if error is not None:
            raise OpFailed(error)
        return status, doc

    def _expect(self, label, status, doc, want):
        if status != want or not isinstance(doc, dict):
            raise OpFailed(f"{label}: HTTP {status}, expected {want}: {str(doc)[:200]}")
        return doc

    async def _cycle(self, op, due_ns):
        """``POST /runs``, polls until done, then the result document."""
        spec = self.specs[op["spec"]]
        status, doc = await self.exchange(op, "post_runs", due_ns, "POST", "/runs", {"spec": spec})
        if status not in (200, 202) or not isinstance(doc, dict):
            raise OpFailed(f"post_runs: HTTP {status}: {str(doc)[:200]}")
        run_id = doc.get("run_id")
        expected = self.fingerprints.get(op["spec"])
        if expected is not None and run_id != expected:
            raise OpFailed(f"post_runs: run id {run_id} != {expected}")
        outcome = {"run_id": run_id, "post_status": status}
        while doc.get("status") not in ("succeeded", "degraded"):
            if doc.get("status") == "failed":
                raise OpFailed(f"run {run_id} failed: {str(doc.get('error'))[:200]}")
            await asyncio.sleep(POLL_INTERVAL_S)
            doc = self._expect("poll", *await self.exchange(
                op, "poll", time.perf_counter_ns(), "GET", f"/runs/{run_id}"), 200)
        outcome["result"] = self._expect("result", *await self.exchange(
            op, "result", time.perf_counter_ns(), "GET", f"/runs/{run_id}/result"), 200)
        return outcome

    async def run_op(self, op, due_ns):
        kind = op["kind"]
        outcome = {"kind": kind, "phase": op["phase"], "due_ns": due_ns, "ok": True}
        try:
            if kind in ("resubmit", "submit"):
                outcome.update(await self._cycle(op, due_ns))
            elif kind == "result":
                run_id = self.fingerprints[op["spec"]]
                outcome["result"] = self._expect("result_get", *await self.exchange(
                    op, "result_get", due_ns, "GET", f"/runs/{run_id}/result"), 200)
            elif kind == "poll":
                await self._done[op["target"]].wait()
                run_id = self.ops[op["target"]].get("run_id")
                doc = self._expect("poll", *await self.exchange(
                    op, "poll", due_ns, "GET", f"/runs/{run_id}"), 200)
                if doc.get("status") not in ("succeeded", "degraded"):
                    raise OpFailed(f"poll of a finished run says {doc.get('status')}")
            elif kind == "state":
                outcome["state"] = self._expect("state", *await self.exchange(
                    op, "state", due_ns, "GET", "/market/state"), 200)
            elif kind == "allocate":
                outcome["allocation"] = self._expect("allocate", *await self.exchange(
                    op, "allocate", due_ns, "POST", "/market/allocate", op["payload"]), 200)
        except OpFailed as exc:
            outcome["ok"] = False
            outcome["error"] = str(exc)
        outcome["done_ns"] = time.perf_counter_ns()
        self.ops[op["i"]] = outcome
        self.finished += 1
        self._done[op["i"]].set()

    async def run_phase(self, ops, give_up_at=None) -> tuple:
        """Offer *ops* open-loop; returns ``(start ns, ops not sent)``.

        With *give_up_at*, the phase stops offering ops once that many
        started ops are unfinished: the service is already overloaded,
        and the ops not sent are not attempted.
        """
        for op in ops:
            self._done.setdefault(op["i"], asyncio.Event())
        t0 = time.perf_counter_ns()
        finished0 = self.finished
        tasks = []
        for k, op in enumerate(ops):
            due_ns = t0 + int(op["due"] * 1e9)
            delay = (due_ns - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            if give_up_at is not None and len(tasks) - (self.finished - finished0) > give_up_at:
                await asyncio.gather(*tasks)
                return t0, len(ops) - k
            self.lateness_ns.setdefault(op["phase"], []).append(time.perf_counter_ns() - due_ns)
            tasks.append(asyncio.create_task(self.run_op(op, due_ns)))
        await asyncio.gather(*tasks)
        return t0, 0

    async def get(self, path: str):
        """An unscheduled control request (health, final state)."""
        return await asyncio.wait_for(http(self.host, self.port, "GET", path), EXCHANGE_TIMEOUT_S)
