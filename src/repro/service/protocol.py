"""Length-prefixed JSON socket protocol for the campaign service.

Every message is one JSON object encoded UTF-8, prefixed by a 4-byte
big-endian unsigned length.  The framing is symmetric (coordinator and
worker speak the same wire format) and self-describing: each message
carries a ``"type"`` key drawn from :data:`MESSAGE_TYPES`.

Blocking peers use :func:`send_message` / :func:`recv_message`; the
single-threaded coordinator feeds whatever bytes ``recv`` returned
into a per-connection :class:`FrameDecoder` and handles the complete
messages it yields.  Anything malformed — oversized frame, truncated
frame, non-JSON or too deeply nested payload, non-object message —
raises :class:`ProtocolError`; the coordinator answers that by
dropping the connection and re-leasing the work, never by guessing.
"""

from __future__ import annotations

import json
import struct

__all__ = [
    "MAX_MESSAGE_BYTES",
    "MESSAGE_TYPES",
    "FrameDecoder",
    "ProtocolError",
    "recv_message",
    "send_message",
]

#: Upper bound on one frame's payload; a length prefix beyond this is
#: treated as protocol corruption, not an allocation request.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Message vocabulary: type -> (direction, meaning).  Rendered into
#: REGISTRY.md by docs/gen_registry.py and staleness-tested, so adding
#: a message type here without regenerating the docs fails CI.
MESSAGE_TYPES: dict[str, tuple[str, str]] = {
    "hello": ("worker -> coordinator", "join: worker name, pid, and local fan-out"),
    "lease": ("coordinator -> worker", "work unit: lease id, kind, wire scenarios"),
    "heartbeat": ("worker -> coordinator", "liveness beacon; may carry a progress event"),
    "result": ("worker -> coordinator", "completed lease: per-scenario payloads + sims count"),
    "error": ("worker -> coordinator", "lease failed on the worker; coordinator re-leases"),
    "shutdown": ("coordinator -> worker", "campaign done; worker exits its serve loop"),
}


class ProtocolError(Exception):
    """The peer violated the framing or message contract."""


def _encode(message: dict) -> bytes:
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("messages must be dicts with a 'type' key")
    payload = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds frame limit")
    return _HEADER.pack(len(payload)) + payload


def _decode(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload is not a typed message object")
    return message


def send_message(sock, message: dict, lock=None) -> None:
    """Frame and send one message on a blocking socket.

    ``lock`` serializes concurrent senders on a shared socket (the
    worker's heartbeat thread interleaves with its result sends).
    """
    data = _encode(message)
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def recv_message(sock) -> dict | None:
    """Receive one message from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on EOF mid-frame or a malformed frame.
    """
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds frame limit")
    payload = _recv_exact(sock, length, allow_eof=False)
    return _decode(payload)


def _recv_exact(sock, n: int, allow_eof: bool) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking reads.

    Feed it whatever ``recv`` returned; it buffers partial frames
    across calls and yields each complete message exactly once.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Absorb bytes; return the messages they complete, in order."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _HEADER.size:
                break
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length > MAX_MESSAGE_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds frame limit")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            messages.append(_decode(payload))
        return messages
