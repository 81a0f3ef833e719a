"""The TARDiS wire protocol: length-prefixed JSON frames.

Every message — request or response — is one *frame*:

    +----------------+---------------------------+
    | uint32 (BE)    | UTF-8 JSON object         |
    | payload length | exactly that many bytes   |
    +----------------+---------------------------+

A zero-length frame is invalid, and a declared length above the codec's
cap (:data:`MAX_FRAME`, 1 MiB by default) is rejected *before* the
payload is read, so a hostile or confused peer cannot make the receiver
buffer unbounded data. Both sides close the connection on a framing
error: once the byte stream is torn there is no way to resynchronize.

Requests are JSON objects ``{"id": <int>, "op": "<OP>", ...}``;
responses echo the id: ``{"id": <int>, "ok": true, ...}`` or
``{"id": <int>, "ok": false, "error": {"code", "message"}}``. Requests
on one connection are processed strictly in order, so ``id`` exists for
client-side bookkeeping, not reordering. The full command and error-code
catalogue is specified in docs/internals.md §12.

One exception to request/response pairing: a connection that issued
``OBS_SUBSCRIBE`` also receives server-initiated *push frames* —
``{"push": "obs", "seq": <int>, "dropped": <int>, "snapshot": {...}}``
— interleaved between responses on the sampler's cadence. Push frames
carry no ``id``; clients route on the ``push`` key (docs/internals.md
§14 specifies the snapshot schema and the slow-consumer drop policy).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, Optional

from repro.errors import FrameTooLarge, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "HEADER",
    "OPS",
    "PUSH_KINDS",
    "ERROR_CODES",
    "encode_frame",
    "FrameDecoder",
    "ok_response",
    "error_response",
]

#: bumped on any incompatible change; HELLO negotiates (exact match).
PROTOCOL_VERSION = 1

#: default cap on one frame's JSON payload, in bytes.
MAX_FRAME = 1 << 20

#: the 4-byte big-endian unsigned payload-length prefix.
HEADER = struct.Struct(">I")

#: the command verbs (requests carry one as their ``op`` field).
OPS = frozenset(
    {
        "HELLO",   # handshake: bind the connection to a client session
        "BEGIN",   # start a single-mode transaction
        "READ",    # read a key inside a transaction
        "READ_MANY",  # read a batch of keys in one round trip
        "WRITE",   # buffer a write (or delete) inside a transaction
        "COMMIT",  # commit a transaction
        "ABORT",   # abort a transaction
        "MERGE",   # start a merge transaction over the current branches
        "STATS",   # server + store counters (health/leak checks)
        "OBS_SNAPSHOT",     # one-shot observability snapshot
        "OBS_SUBSCRIBE",    # push obs snapshots on the sampler cadence
        "OBS_UNSUBSCRIBE",  # stop the push stream; returns accounting
        "BYE",     # polite close: server responds, then drops the link
    }
)

#: kinds of server-initiated push frames (the ``push`` field).
PUSH_KINDS = frozenset({"obs"})

#: wire error codes -> meaning. ``BAD_FRAME``/``FRAME_TOO_LARGE`` are
#: connection-fatal (framing is lost); everything else is per-request.
ERROR_CODES: Dict[str, str] = {
    "BAD_FRAME": "payload was not a JSON object, or had a zero length",
    "FRAME_TOO_LARGE": "declared payload length exceeds the server's cap",
    "BAD_REQUEST": "missing or ill-typed request field",
    "UNKNOWN_OP": "the op verb is not in the protocol",
    "NO_HELLO": "a command was issued before the HELLO handshake",
    "ALREADY_HELLO": "a second HELLO was issued on the connection",
    "BAD_VERSION": "the client's protocol version does not match",
    "SESSION_IN_USE": "the session name is bound to another live connection",
    "UNKNOWN_TXN": "the txn id does not name an open transaction",
    "TXN_ABORTED": "the transaction could not commit (end constraint)",
    "TXN_CLOSED": "the transaction already committed or aborted",
    "BEGIN_FAILED": "no state satisfies the begin constraint",
    "KEY_CONFLICT": "the key holds conflicting values across merged branches",
    "READ_ONLY": "a write was issued in a read-only transaction",
    "BAD_CONSTRAINT": "unknown begin/end constraint name",
    "OBS_UNAVAILABLE": "the server runs no live sampler (start with --obs-interval)",
    "TIMEOUT": "the request exceeded the server's per-request timeout",
    "SERVER_BUSY": "the server is at its connection cap",
    "SHUTTING_DOWN": "the server is draining and takes no new work",
    "INTERNAL": "unexpected server-side failure",
}


def encode_frame(obj: Dict[str, Any], max_frame: int = MAX_FRAME) -> bytes:
    """Serialize one message to its wire form (header + JSON payload).

    Raises :class:`~repro.errors.FrameTooLarge` when the encoded payload
    exceeds ``max_frame`` — the sender's half of the cap both sides
    enforce.
    """
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameTooLarge(len(payload), max_frame)
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for an arbitrarily chunked byte stream.

    ``feed`` bytes as they arrive (any chunking: one byte at a time, or
    several frames fused), then drain complete messages::

        decoder = FrameDecoder()
        decoder.feed(sock.recv(4096))
        for message in decoder.frames():
            handle(message)

    Raises :class:`~repro.errors.FrameTooLarge` as soon as a header
    declares an oversized payload (without buffering it) and
    :class:`~repro.errors.ProtocolError` for zero-length frames,
    undecodable payloads, and non-object documents. After either, the
    stream is unrecoverable and the connection must be closed.
    """

    __slots__ = ("_buffer", "_need", "max_frame", "frames_decoded", "bytes_fed")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self._buffer = bytearray()
        #: payload length of the frame in progress; None while the
        #: header itself is incomplete.
        self._need: Optional[int] = None
        self.max_frame = max_frame
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> None:
        self.bytes_fed += len(data)
        self._buffer.extend(data)

    def pending(self) -> int:
        """Bytes buffered but not yet consumed by a complete frame."""
        return len(self._buffer)

    def next_frame(self) -> Optional[Dict[str, Any]]:
        """The next complete message, or None until more bytes arrive."""
        if self._need is None:
            if len(self._buffer) < HEADER.size:
                return None
            (length,) = HEADER.unpack(bytes(self._buffer[: HEADER.size]))
            if length == 0:
                raise ProtocolError("zero-length frame")
            if length > self.max_frame:
                raise FrameTooLarge(length, self.max_frame)
            del self._buffer[: HEADER.size]
            self._need = length
        if len(self._buffer) < self._need:
            return None
        payload = bytes(self._buffer[: self._need])
        del self._buffer[: self._need]
        self._need = None
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError("undecodable frame payload: %s" % exc)
        if not isinstance(message, dict):
            raise ProtocolError(
                "frame payload must be a JSON object, got %s"
                % type(message).__name__
            )
        self.frames_decoded += 1
        return message

    def frames(self) -> Iterator[Dict[str, Any]]:
        """Drain every complete message currently buffered."""
        while True:
            message = self.next_frame()
            if message is None:
                return
            yield message


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id: Any, code: str, message: str = "") -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError("unknown error code: %r" % (code,))
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message or ERROR_CODES[code]},
    }
