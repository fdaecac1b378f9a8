"""Campaign coordinator: leases work units to workers, keeps order.

The coordinator is a single-threaded ``selectors`` loop owned by the
calling :func:`~repro.scenarios.runner.run_campaign` process.  It
listens on a TCP socket, hands each work unit (see
:func:`~repro.scenarios.runner.partition_units`) to a connected worker
as a *lease*, and buffers completed units so scenarios are handed back
strictly in campaign order — workers may finish in any order without
perturbing a byte of the output.

Robustness contract:

- liveness is heartbeat-based: a worker that holds a lease and stays
  silent longer than ``heartbeat_timeout`` is declared dead and its
  lease re-queued (an EOF/SIGKILL is just the fast path of the same
  detection); workers beacon only while they hold a lease, so a worker
  that said hello and waits for one is never timed out, and a lease
  restarts its silence clock;
- an optional ``lease_timeout`` bounds any single unit's wall-clock on
  one worker;
- a failed unit is retried on a *different* worker when one exists,
  at most ``max_retries`` times, then executed in-process; a result
  whose payloads do not validate as the leased scenarios' store
  entries counts as a failure (``bad_result``), so a worker's answer
  never writes a row it did not earn;
- if no worker connects within ``wait_for_workers`` seconds the whole
  campaign degrades to in-process execution, one unit at a time, while
  the socket stays open for late joiners.

Results from a superseded lease (a worker declared dead that answers
anyway) are discarded by lease id, so a unit's rows are committed
exactly once.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.scenarios.spec import Scenario, scenario_hash
from repro.service.protocol import FrameDecoder, ProtocolError, send_message
from repro.service.store import StoreEntry, StoreIntegrityError
from repro.service.units import UnitEntry, execute_unit, to_wire
from repro.sim.parallel import credit_simulations

__all__ = ["Coordinator", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Tunables for one coordinator run.

    ``port=0`` binds an ephemeral port; ``on_bound`` (if set) receives
    ``(host, port)`` once the listener is up — tests and examples use
    it to learn where to point their workers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds to wait for a first worker before units start running
    #: in-process (late workers still join and take later units).
    wait_for_workers: float = 10.0
    #: Seconds of silence before a worker that holds a lease (or a
    #: connection that never said hello) is declared dead.
    heartbeat_timeout: float = 15.0
    #: Wall-clock bound for one lease on one worker (None = unbounded).
    lease_timeout: float | None = None
    #: Times a unit is re-leased after a failure before the
    #: coordinator runs it in-process itself.
    max_retries: int = 2
    on_bound: Callable[[str, int], None] | None = field(
        default=None, repr=False, compare=False
    )


class _Unit:
    __slots__ = ("uid", "kind", "indices", "retries", "tried")

    def __init__(self, uid: int, kind: str, indices: list[int]):
        self.uid = uid
        self.kind = kind
        self.indices = indices
        self.retries = 0
        #: Worker names that already failed this unit.
        self.tried: set[str] = set()


class _WorkerConn:
    __slots__ = (
        "conn", "addr", "name", "decoder", "lease", "unit_uid",
        "assigned_at", "last_seen",
    )

    def __init__(self, conn, addr, now: float):
        self.conn = conn
        self.addr = addr
        self.name: str | None = None  # set by hello
        self.decoder = FrameDecoder()
        self.lease: int | None = None  # active lease id
        self.unit_uid: int | None = None  # unit the active lease covers
        self.assigned_at = 0.0
        self.last_seen = now


class Coordinator:
    """Schedules one campaign's work units over the service socket.

    Construct with the campaign name, its (deduplicated) scenario
    list, a :class:`ServiceConfig`, the in-process worker count used
    for local-fallback units, and the runner's heartbeat callback;
    then call :meth:`execute` once.
    """

    def __init__(
        self,
        campaign: str,
        scenarios: Sequence[Scenario],
        config: ServiceConfig,
        local_workers: int = 1,
        heartbeat=None,
    ):
        self.campaign = campaign
        self.scenarios = list(scenarios)
        self.config = config
        self.local_workers = local_workers
        self._heartbeat = heartbeat or (lambda **fields: None)
        self._lease_seq = 0

    def execute(self, units, on_scenario) -> None:
        """Run the units; invoke ``on_scenario(index, entry)`` in order.

        ``units`` is :func:`~repro.scenarios.runner.partition_units`
        output.  ``on_scenario`` fires exactly once per pending
        scenario, in strictly increasing campaign-index order, with the
        scenario's :class:`~repro.service.store.StoreEntry` — regardless
        of which worker (or this process) produced it, and regardless
        of completion order.
        """
        if not units:
            return
        cfg = self.config
        self._units = [_Unit(u, kind, idx) for u, (kind, idx) in enumerate(units)]
        self._queue: deque[_Unit] = deque(self._units)
        self._results: dict[int, list] = {}
        self._workers: dict = {}  # conn -> _WorkerConn
        next_uid = 0

        listener = socket.create_server((cfg.host, cfg.port), backlog=16)
        listener.setblocking(False)
        host, port = listener.getsockname()[:2]
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ)
        self._heartbeat(
            event="service_listening", campaign=self.campaign,
            host=host, port=port, units=len(self._units),
        )
        if cfg.on_bound is not None:
            cfg.on_bound(host, port)
        self._last_worker_seen = time.monotonic()
        try:
            while next_uid < len(self._units):
                self._assign_leases()
                for key, _ in self._sel.select(timeout=0.1):
                    if key.fileobj is listener:
                        self._accept(listener)
                    else:
                        self._read(self._workers[key.fileobj])
                self._check_timeouts()
                if (
                    self._queue
                    and not self._workers
                    and time.monotonic() - self._last_worker_seen
                    > cfg.wait_for_workers
                ):
                    # Degradation: nobody to lease to — run the next
                    # unit here while the socket stays open for late
                    # joiners.
                    self._run_unit_locally(self._queue.popleft(), "no_workers")
                while next_uid < len(self._units) and next_uid in self._results:
                    for k, entry in self._results.pop(next_uid):
                        on_scenario(k, entry)
                    next_uid += 1
        finally:
            for worker in list(self._workers.values()):
                try:
                    self._send(worker, {"type": "shutdown"})
                except OSError:
                    pass
                self._drop(worker)
            self._sel.unregister(listener)
            listener.close()
            self._sel.close()

    # -- connection handling -------------------------------------------

    def _send(self, worker, message: dict) -> None:
        # Sockets live non-blocking for the selector loop; sends flip
        # to a bounded blocking mode so a large lease never trips
        # BlockingIOError on a full buffer (and a worker that stopped
        # reading surfaces as a timeout, i.e. an OSError, not a hang).
        worker.conn.settimeout(30.0)
        try:
            send_message(worker.conn, message)
        finally:
            worker.conn.setblocking(False)

    def _accept(self, listener) -> None:
        try:
            conn, addr = listener.accept()
        except OSError:  # pragma: no cover - raced connection reset
            return
        conn.setblocking(False)
        now = time.monotonic()
        self._last_worker_seen = now
        worker = _WorkerConn(conn, addr, now)
        self._workers[conn] = worker
        self._sel.register(conn, selectors.EVENT_READ)

    def _drop(self, worker) -> None:
        self._workers.pop(worker.conn, None)
        try:
            self._sel.unregister(worker.conn)
        except (KeyError, ValueError):
            pass
        worker.conn.close()
        # Keep degradation patient while other workers remain; the
        # wait_for_workers clock restarts when the last one leaves.
        self._last_worker_seen = time.monotonic()

    def _fail_worker(self, worker, reason: str) -> None:
        if worker.name is not None:
            self._heartbeat(
                event="worker_dead", campaign=self.campaign,
                worker=worker.name, reason=reason,
            )
        unit_uid = worker.unit_uid if worker.lease is not None else None
        name = worker.name or f"{worker.addr[0]}:{worker.addr[1]}"
        self._drop(worker)
        if unit_uid is not None and unit_uid not in self._results:
            self._retry_unit(self._units[unit_uid], name, reason)

    def _retry_unit(self, unit, worker_name: str, reason: str) -> None:
        unit.retries += 1
        unit.tried.add(worker_name)
        if unit.retries > self.config.max_retries:
            self._heartbeat(
                event="unit_local_fallback", campaign=self.campaign,
                unit=unit.uid, reason=reason, retries=unit.retries,
            )
            self._run_unit_locally(unit, reason)
        else:
            self._heartbeat(
                event="lease_retry", campaign=self.campaign,
                unit=unit.uid, retries=unit.retries, reason=reason,
            )
            self._queue.appendleft(unit)

    # -- lease lifecycle -----------------------------------------------

    def _assign_leases(self) -> None:
        idle = [
            w
            for w in self._workers.values()
            if w.name is not None and w.lease is None
        ]
        for worker in idle:
            if not self._queue:
                return
            # Prefer a unit this worker has not already failed.
            unit = None
            for candidate in self._queue:
                if worker.name not in candidate.tried:
                    unit = candidate
                    break
            if unit is None:
                unit = self._queue[0]
            self._queue.remove(unit)
            self._lease_seq += 1
            lease = self._lease_seq
            message = {
                "type": "lease",
                "lease": lease,
                "unit": unit.uid,
                "kind": unit.kind,
                "campaign": self.campaign,
                "scenarios": [
                    to_wire(UnitEntry(k, len(self.scenarios), self.scenarios[k]))
                    for k in unit.indices
                ],
            }
            try:
                self._send(worker, message)
            except OSError:
                self._queue.appendleft(unit)
                self._fail_worker(worker, "send_failed")
                continue
            worker.lease = lease
            worker.unit_uid = unit.uid
            worker.assigned_at = worker.last_seen = time.monotonic()

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        cfg = self.config
        for worker in list(self._workers.values()):
            if worker.lease is None and worker.name is not None:
                continue  # idle: it sends nothing until its next lease
            if now - worker.last_seen > cfg.heartbeat_timeout:
                self._fail_worker(worker, "heartbeat_timeout")
            elif (
                worker.lease is not None
                and cfg.lease_timeout is not None
                and now - worker.assigned_at > cfg.lease_timeout
            ):
                self._fail_worker(worker, "lease_timeout")

    # -- message handling ----------------------------------------------

    def _read(self, worker) -> None:
        try:
            data = worker.conn.recv(1 << 20)
        except (BlockingIOError, InterruptedError):  # pragma: no cover
            return
        except OSError:
            self._fail_worker(worker, "recv_failed")
            return
        if not data:
            self._fail_worker(worker, "disconnected")
            return
        worker.last_seen = time.monotonic()
        self._last_worker_seen = worker.last_seen
        try:
            messages = worker.decoder.feed(data)
        except ProtocolError:
            self._fail_worker(worker, "protocol_error")
            return
        for message in messages:
            self._handle(worker, message)

    def _handle(self, worker, message: dict) -> None:
        kind = message["type"]
        if kind == "hello":
            worker.name = str(message.get("worker") or f"worker@{worker.addr[1]}")
            self._heartbeat(
                event="worker_joined", campaign=self.campaign,
                worker=worker.name, pid=message.get("pid"),
                workers=message.get("workers"),
            )
        elif kind == "heartbeat":
            event = message.get("event")
            if isinstance(event, dict) and event.get("event"):
                self._heartbeat(**{**event, "worker": worker.name})
        elif kind == "result":
            if message.get("lease") != worker.lease or worker.lease is None:
                return  # stale: this lease was re-queued already
            unit = self._units[worker.unit_uid]
            worker.lease = None
            entries = self._result_entries(unit, message)
            if entries is None:
                self._retry_unit(unit, worker.name, "bad_result")
                return
            credit_simulations(message["sims"])
            self._results[unit.uid] = list(zip(unit.indices, entries))
        elif kind == "error":
            if message.get("lease") != worker.lease or worker.lease is None:
                return
            unit = self._units[worker.unit_uid]
            worker.lease = None
            self._retry_unit(
                unit, worker.name, f"worker_error: {message.get('error')}"
            )
        # Unknown types are ignored (forward compatibility).

    def _result_entries(self, unit, message: dict) -> list[StoreEntry] | None:
        """A result message's payloads as validated entries, or None.

        A worker's answer is untrusted input.  ``sims`` must be a
        non-negative int, and each payload a dict carrying its leased
        scenario's hash, with exactly that scenario's number of rows,
        which must pass :meth:`StoreEntry.validate`.  Each row is
        encoded here, once, into the entry the runner writes from.
        """
        sims, payloads = message.get("sims"), message.get("results")
        if (
            type(sims) is not int
            or sims < 0
            or not isinstance(payloads, list)
            or len(payloads) != len(unit.indices)
        ):
            return None
        entries = []
        for k, payload in zip(unit.indices, payloads):
            if not isinstance(payload, dict):
                return None
            h = scenario_hash(self.scenarios[k])
            rows, metrics = payload.get("rows"), payload.get("metrics")
            if (
                payload.get("scenario") != h
                or not isinstance(rows, list)
                or not isinstance(metrics, list)
                or len(rows) != self.scenarios[k].num_rows
            ):
                return None
            try:
                entry = StoreEntry(h, rows, metrics)
                entry.validate()
            except (StoreIntegrityError, RecursionError):
                return None
            entries.append(entry)
        return entries

    # -- local fallback ------------------------------------------------

    def _run_unit_locally(self, unit, reason: str) -> None:
        entries = [
            UnitEntry(k, len(self.scenarios), self.scenarios[k])
            for k in unit.indices
        ]
        payloads, _sims = execute_unit(
            self.campaign, unit.kind, entries,
            workers=self.local_workers, heartbeat=self._heartbeat,
        )
        # No socket was read while the unit ran here, so the workers'
        # heartbeats are waiting unread, not missing: restart their
        # silence clocks instead of declaring them dead.
        now = time.monotonic()
        for worker in self._workers.values():
            worker.last_seen = now
        self._results[unit.uid] = [
            (k, StoreEntry(p["scenario"], p["rows"], p["metrics"]))
            for k, p in zip(unit.indices, payloads)
        ]
