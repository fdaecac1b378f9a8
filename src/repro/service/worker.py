"""Campaign service worker: lease, simulate, report, repeat.

:func:`serve_worker` connects to a coordinator, introduces itself with
a ``hello``, then serves leases until the coordinator says
``shutdown`` (or the connection drops).  While a lease runs, a
background thread sends ``heartbeat`` messages every
``heartbeat_interval`` seconds so the coordinator can tell "busy
simulating" from "dead" — the execution itself happens on this thread
through the exact unit executor the in-process runner uses, so rows
produced here are byte-identical to local ones.

``fail_after=N`` is deterministic fault injection for tests and CI:
the worker SIGKILLs itself upon receiving its N-th lease, exercising
the coordinator's dead-worker detection and retry path without any
timing games.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

from repro.service.protocol import ProtocolError, recv_message, send_message
from repro.service.units import execute_unit, from_wire

__all__ = ["parse_address", "serve_worker"]


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string (port required) into its parts."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"service address must be HOST:PORT, got {address!r}")
    return host or "127.0.0.1", int(port)


def _connect(host: str, port: int, retry_for: float) -> socket.socket:
    """Dial the coordinator, retrying refusals until the deadline.

    Workers routinely start before (or between) coordinators, so a
    refused/unreachable connection is retried for ``retry_for``
    seconds before giving up.  The 10 s timeout bounds only the
    connect: the returned socket blocks without one, because an idle
    worker may wait any time for its next lease.  Liveness needs no
    timeout here: the coordinator watches this worker's heartbeats, and
    a coordinator that goes away shows up as EOF.
    """
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
            continue
        sock.settimeout(None)
        return sock


class _HeartbeatThread:
    """Background liveness beacon for the duration of one lease."""

    def __init__(self, sock, lock, lease: int, interval: float):
        self._sock = sock
        self._lock = lock
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                send_message(
                    self._sock,
                    {"type": "heartbeat", "lease": self._lease},
                    lock=self._lock,
                )
            except OSError:
                return  # connection is gone; the main loop will notice

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def serve_worker(
    address: str,
    workers: int = 1,
    retry_for: float = 10.0,
    name: str | None = None,
    heartbeat_interval: float = 1.0,
    fail_after: int | None = None,
    progress=None,
) -> int:
    """Serve one coordinator until shutdown; return leases completed.

    ``address`` is ``HOST:PORT``; ``workers`` is this worker's local
    fork-pool fan-out per unit.  ``retry_for`` bounds the initial
    connect retries (workers may start first).  ``progress`` (if set)
    receives each locally produced heartbeat event dict — the same
    shapes the in-process runner emits — after it is forwarded to the
    coordinator.  ``fail_after=N`` SIGKILLs the process on the N-th
    lease (fault-injection hook; see module docstring).
    """
    host, port = parse_address(address)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    sock = _connect(host, port, retry_for)
    lock = threading.Lock()
    completed = 0
    try:
        send_message(
            sock,
            {"type": "hello", "worker": worker_name, "pid": os.getpid(), "workers": workers},
            lock=lock,
        )
        while True:
            try:
                message = recv_message(sock)
            except ProtocolError:
                break
            if message is None or message["type"] == "shutdown":
                break
            if message["type"] != "lease":
                continue
            lease = message["lease"]
            if fail_after is not None and completed + 1 >= fail_after:
                # Deterministic crash: die holding the lease, without
                # a FIN, exactly like a powered-off host.
                os.kill(os.getpid(), signal.SIGKILL)

            def _forward(**event) -> None:
                try:
                    send_message(
                        sock, {"type": "heartbeat", "lease": lease, "event": event},
                        lock=lock,
                    )
                except OSError:
                    pass
                if progress is not None:
                    progress(event)

            entries = [from_wire(e) for e in message["scenarios"]]
            try:
                with _HeartbeatThread(sock, lock, lease, heartbeat_interval):
                    payloads, sims = execute_unit(
                        message["campaign"], message["kind"], entries,
                        workers=workers, heartbeat=_forward,
                    )
            except Exception as exc:  # noqa: BLE001 - reported to coordinator
                send_message(
                    sock,
                    {"type": "error", "lease": lease, "error": f"{type(exc).__name__}: {exc}"},
                    lock=lock,
                )
                continue
            send_message(
                sock,
                {"type": "result", "lease": lease, "results": payloads, "sims": sims},
                lock=lock,
            )
            completed += 1
    finally:
        sock.close()
    return completed
