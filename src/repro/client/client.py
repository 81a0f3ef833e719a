"""Synchronous TARDiS client: plain sockets, blocking calls.

The client mirrors the in-process API shape so application code ports
with a search-and-replace::

    from repro.client import TardisClient

    client = TardisClient(port=7145, session="alice")
    with client.begin() as t:
        t.put("greeting", "hello")

    merge = client.merge()
    for conflict in merge.conflicts:
        merge.put(conflict["key"], max(conflict["values"]))
    merge.commit()

Requests on one connection are answered strictly in order, so the
client is a simple send-one/read-one loop; one ``TardisClient`` must not
be shared across threads (open one per thread — sessions are cheap).

Error mapping: ``TXN_ABORTED`` re-raises
:class:`~repro.errors.TransactionAborted` and ``BEGIN_FAILED`` re-raises
:class:`~repro.errors.BeginError`, so retry loops written against the
in-process store work unchanged; every other wire error surfaces as
:class:`~repro.errors.ServerError` with the code attached.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import (
    BeginError,
    KeyNotFound,
    NetworkError,
    ServerError,
    TransactionAborted,
    TransactionClosed,
)
from repro.server.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)

__all__ = ["TardisClient", "ClientTransaction", "ClientMergeTransaction"]

_RAISE = object()


def raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    """Map an error response onto the library's exception hierarchy."""
    if response.get("ok", False):
        return response
    error = response.get("error") or {}
    code = error.get("code", "INTERNAL")
    message = error.get("message", "")
    if code == "TXN_ABORTED":
        raise TransactionAborted(message)
    if code == "TXN_CLOSED":
        raise TransactionClosed(message)
    if code == "BEGIN_FAILED":
        raise BeginError(message)
    raise ServerError(code, message)


class _BaseClientTransaction:
    """Shared bookkeeping for the sync transaction handles."""

    def __init__(self, client: "TardisClient", txn_id: int) -> None:
        self._client = client
        self._txn_id = txn_id
        self.status = "active"
        #: state id repr of the commit state, once committed.
        self.commit_state: Optional[str] = None

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        response = self._client._request("READ", txn=self._txn_id, key=key)
        if not response["found"]:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return response["value"]

    def get_many(self, keys: List[Any], default: Any = _RAISE) -> List[Any]:
        """Batch read: one READ_MANY round trip for the whole key list."""
        response = self._client._request(
            "READ_MANY", txn=self._txn_id, keys=list(keys)
        )
        values = []
        for key, found, value in zip(keys, response["found"], response["values"]):
            if not found:
                if default is _RAISE:
                    raise KeyNotFound(key)
                value = default
            values.append(value)
        return values

    def put(self, key: Any, value: Any) -> None:
        self._client._request("WRITE", txn=self._txn_id, key=key, value=value)

    def delete(self, key: Any) -> None:
        self._client._request("WRITE", txn=self._txn_id, key=key, delete=True)

    def commit(self, constraint: Optional[str] = None) -> str:
        fields: Dict[str, Any] = {"txn": self._txn_id}
        if constraint is not None:
            fields["constraint"] = constraint
        try:
            response = self._client._request("COMMIT", **fields)
        except (TransactionAborted, TransactionClosed):
            self.status = "aborted"
            raise
        self.status = "committed"
        self.commit_state = response["commit_state"]
        return self.commit_state

    def abort(self) -> None:
        self._client._request("ABORT", txn=self._txn_id)
        self.status = "aborted"

    def __enter__(self) -> "_BaseClientTransaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status == "active":
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class ClientTransaction(_BaseClientTransaction):
    """A single-mode transaction over the wire."""

    def __init__(self, client: "TardisClient", txn_id: int, read_state: str) -> None:
        super().__init__(client, txn_id)
        #: state id repr of the snapshot this transaction reads.
        self.read_state = read_state

    def __repr__(self) -> str:
        return "<ClientTransaction txn=%d read_state=%s status=%s>" % (
            self._txn_id,
            self.read_state,
            self.status,
        )


class ClientMergeTransaction(_BaseClientTransaction):
    """A merge transaction over the wire.

    The server computes the reconciliation context at MERGE time:
    ``parents`` (the branch heads being merged), ``fork_points``, and
    ``conflicts`` — a list of ``{"key", "base", "values"}`` dicts, one
    per key written concurrently on several branches (``base`` is the
    fork-point value for three-way merges). ``put`` the resolved values,
    then ``commit``.
    """

    def __init__(
        self,
        client: "TardisClient",
        txn_id: int,
        parents: List[str],
        fork_points: List[str],
        conflicts: List[Dict[str, Any]],
    ) -> None:
        super().__init__(client, txn_id)
        self.parents = parents
        self.fork_points = fork_points
        self.conflicts = conflicts

    def __repr__(self) -> str:
        return "<ClientMergeTransaction txn=%d parents=%d conflicts=%d status=%s>" % (
            self._txn_id,
            len(self.parents),
            len(self.conflicts),
            self.status,
        )


class TardisClient:
    """A blocking-socket client for one TARDiS server connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7145,
        session: Optional[str] = None,
        timeout: float = 10.0,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder(max_frame)
        self._next_id = 1
        self._closed = False
        self.max_frame = max_frame
        self.timeout = timeout
        #: server-push frames (OBS_SUBSCRIBE streams) diverted out of the
        #: request/response path, oldest first; drained by next_obs_frame.
        self._pushes: Deque[Dict[str, Any]] = deque()
        hello = self._request("HELLO", session=session, protocol=PROTOCOL_VERSION)
        #: the session name the server bound this connection to.
        self.session = hello["session"]
        #: the server's site name.
        self.site = hello["site"]

    # -- plumbing ---------------------------------------------------------

    def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        if self._closed:
            raise NetworkError("client is closed")
        request: Dict[str, Any] = {"id": self._next_id, "op": op}
        self._next_id += 1
        request.update(fields)
        self._sock.sendall(encode_frame(request, self.max_frame))
        response = self._read_frame()
        if response.get("id") != request["id"]:
            raise NetworkError(
                "response id %r does not match request id %r (protocol is ordered)"
                % (response.get("id"), request["id"])
            )
        return raise_for_error(response)

    def _read_frame(self) -> Dict[str, Any]:
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                if "push" in frame:
                    # Server-initiated frame (an obs stream) interleaved
                    # with a response: park it so request/response pairing
                    # stays strict while subscribed.
                    self._pushes.append(frame)
                    continue
                return frame
            data = self._sock.recv(65536)
            if not data:
                self._closed = True
                raise NetworkError("server closed the connection")
            self._decoder.feed(data)

    # -- transactions -----------------------------------------------------

    def begin(
        self, read_only: bool = False, constraint: Optional[str] = None
    ) -> ClientTransaction:
        """Start a transaction; constraint is a begin-constraint name
        (``ancestor``, ``any``, ``parent``; server default: ancestor)."""
        fields: Dict[str, Any] = {"read_only": read_only}
        if constraint is not None:
            fields["constraint"] = constraint
        response = self._request("BEGIN", **fields)
        return ClientTransaction(self, response["txn"], response["read_state"])

    def merge(self) -> ClientMergeTransaction:
        """Start a merge transaction over the current branch heads."""
        response = self._request("MERGE")
        return ClientMergeTransaction(
            self,
            response["txn"],
            response["parents"],
            response["fork_points"],
            response["conflicts"],
        )

    # -- autocommit convenience -------------------------------------------

    def put(self, key: Any, value: Any) -> str:
        """Single-write autocommit transaction; returns the commit state."""
        txn = self.begin()
        txn.put(key, value)
        return txn.commit()

    def get(self, key: Any, default: Any = None) -> Any:
        """Single-read autocommit transaction."""
        txn = self.begin(read_only=True)
        try:
            value = txn.get(key, default=default)
        finally:
            if txn.status == "active":
                txn.commit()
        return value

    def get_many(self, keys: List[Any], default: Any = None) -> List[Any]:
        """Batch-read autocommit transaction (one READ_MANY frame)."""
        txn = self.begin(read_only=True)
        try:
            values = txn.get_many(keys, default=default)
        finally:
            if txn.status == "active":
                txn.commit()
        return values

    def stats(self) -> Dict[str, Any]:
        """Server + store counters (see docs/internals.md §12)."""
        return self._request("STATS")["stats"]

    # -- live observability (docs/internals.md §14) -----------------------

    def obs_snapshot(self, tail: Optional[int] = None) -> Dict[str, Any]:
        """One observability snapshot (series tails cut to ``tail``)."""
        fields: Dict[str, Any] = {}
        if tail is not None:
            fields["tail"] = tail
        return self._request("OBS_SNAPSHOT", **fields)["snapshot"]

    def subscribe_obs(self) -> Dict[str, Any]:
        """Start the push stream; returns ``{interval_s, tail, resumed}``.

        Raises :class:`~repro.errors.ServerError` with code
        ``OBS_UNAVAILABLE`` when the server runs no live sampler. After
        subscribing, drain frames with :meth:`next_obs_frame` — ordinary
        requests keep working, pushes are diverted internally.
        """
        return self._request("OBS_SUBSCRIBE")

    def unsubscribe_obs(self) -> Dict[str, Any]:
        """Stop the stream; returns ``{subscribed, frames, dropped}``."""
        return self._request("OBS_UNSUBSCRIBE")

    def next_obs_frame(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next push frame, or None when ``timeout`` elapses first.

        Returns the whole wire frame: ``{"push": "obs", "seq", "dropped",
        "snapshot"}``. Frames already diverted by an interleaved request
        are served before the socket is read again.
        """
        if self._pushes:
            return self._pushes.popleft()
        if self._closed:
            raise NetworkError("client is closed")
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout if timeout is not None else previous)
        try:
            while True:
                frame = self._decoder.next_frame()
                if frame is not None:
                    if "push" in frame:
                        return frame
                    # A response with no request in flight is a protocol
                    # violation; surface it rather than swallowing.
                    raise NetworkError("unexpected response frame %r" % (frame.get("id"),))
                try:
                    data = self._sock.recv(65536)
                except socket.timeout:
                    return None
                if not data:
                    self._closed = True
                    raise NetworkError("server closed the connection")
                self._decoder.feed(data)
        finally:
            try:
                self._sock.settimeout(previous)
            except OSError:
                pass

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Polite close: BYE (best effort), then drop the socket."""
        if self._closed:
            return
        try:
            self._request("BYE")
        except (NetworkError, ServerError, OSError):
            pass
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TardisClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<TardisClient session=%s site=%s%s>" % (
            self.session,
            self.site,
            " closed" if self._closed else "",
        )
