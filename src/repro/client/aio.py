"""Asynchronous TARDiS client: asyncio streams, ``await``-shaped API.

The async twin of :class:`repro.client.client.TardisClient`, sharing its
error mapping and the wire codec. One ``AsyncTardisClient`` is one
connection/session; like the sync client it is a strict
send-one/read-one loop, so do not interleave requests from concurrent
tasks on a single client — open one client per task::

    client = await AsyncTardisClient.connect(port=7145, session="alice")
    txn = await client.begin()
    await txn.put("greeting", "hello")
    await txn.commit()
    await client.close()
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.client.client import _RAISE, raise_for_error
from repro.errors import (
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

__all__ = ["AsyncTardisClient", "AsyncClientTransaction", "AsyncClientMergeTransaction"]


class AsyncClientTransaction:
    """A single-mode transaction over the wire (async)."""

    def __init__(
        self, client: "AsyncTardisClient", txn_id: int, read_state: str
    ) -> None:
        self._client = client
        self._txn_id = txn_id
        self.read_state = read_state
        self.status = "active"
        self.commit_state: Optional[str] = None

    async def get(self, key: Any, default: Any = _RAISE) -> Any:
        response = await self._client._request("READ", txn=self._txn_id, key=key)
        if not response["found"]:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return response["value"]

    async def get_many(self, keys: List[Any], default: Any = _RAISE) -> List[Any]:
        """Batch read: one READ_MANY round trip (see the sync twin)."""
        response = await self._client._request(
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

    async def put(self, key: Any, value: Any) -> None:
        await self._client._request("WRITE", txn=self._txn_id, key=key, value=value)

    async def delete(self, key: Any) -> None:
        await self._client._request("WRITE", txn=self._txn_id, key=key, delete=True)

    async def commit(self, constraint: Optional[str] = None) -> str:
        fields: Dict[str, Any] = {"txn": self._txn_id}
        if constraint is not None:
            fields["constraint"] = constraint
        try:
            response = await self._client._request("COMMIT", **fields)
        except (TransactionAborted, TransactionClosed):
            self.status = "aborted"
            raise
        self.status = "committed"
        self.commit_state = response["commit_state"]
        return self.commit_state

    async def abort(self) -> None:
        await self._client._request("ABORT", txn=self._txn_id)
        self.status = "aborted"

    async def __aenter__(self) -> "AsyncClientTransaction":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status == "active":
            if exc_type is None:
                await self.commit()
            else:
                await self.abort()


class AsyncClientMergeTransaction(AsyncClientTransaction):
    """A merge transaction over the wire (async); see the sync twin."""

    def __init__(
        self,
        client: "AsyncTardisClient",
        txn_id: int,
        parents: List[str],
        fork_points: List[str],
        conflicts: List[Dict[str, Any]],
    ) -> None:
        super().__init__(client, txn_id, read_state="")
        self.parents = parents
        self.fork_points = fork_points
        self.conflicts = conflicts


class AsyncTardisClient:
    """An asyncio-streams client for one TARDiS server connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = MAX_FRAME,
    ) -> None:
        # Use :meth:`connect` — the constructor wires pre-opened streams.
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame)
        self._next_id = 1
        self._closed = False
        self.max_frame = max_frame
        self.session: Optional[str] = None
        self.site: Optional[str] = None
        #: push frames diverted out of the request/response path.
        self._pushes: Deque[Dict[str, Any]] = deque()

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7145,
        session: Optional[str] = None,
        max_frame: int = MAX_FRAME,
    ) -> "AsyncTardisClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame=max_frame)
        hello = await client._request(
            "HELLO", session=session, protocol=PROTOCOL_VERSION
        )
        client.session = hello["session"]
        client.site = hello["site"]
        return client

    async def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        if self._closed:
            raise NetworkError("client is closed")
        request: Dict[str, Any] = {"id": self._next_id, "op": op}
        self._next_id += 1
        request.update(fields)
        self._writer.write(encode_frame(request, self.max_frame))
        await self._writer.drain()
        response = await self._read_frame()
        if response.get("id") != request["id"]:
            raise NetworkError(
                "response id %r does not match request id %r"
                % (response.get("id"), request["id"])
            )
        return raise_for_error(response)

    async def _read_frame(self) -> Dict[str, Any]:
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                if "push" in frame:
                    # Diverted like the sync client: pushes never break
                    # request/response pairing (drain via next_obs_frame).
                    self._pushes.append(frame)
                    continue
                return frame
            data = await self._reader.read(65536)
            if not data:
                self._closed = True
                raise NetworkError("server closed the connection")
            self._decoder.feed(data)

    async def begin(
        self, read_only: bool = False, constraint: Optional[str] = None
    ) -> AsyncClientTransaction:
        fields: Dict[str, Any] = {"read_only": read_only}
        if constraint is not None:
            fields["constraint"] = constraint
        response = await self._request("BEGIN", **fields)
        return AsyncClientTransaction(self, response["txn"], response["read_state"])

    async def merge(self) -> AsyncClientMergeTransaction:
        response = await self._request("MERGE")
        return AsyncClientMergeTransaction(
            self,
            response["txn"],
            response["parents"],
            response["fork_points"],
            response["conflicts"],
        )

    async def put(self, key: Any, value: Any) -> str:
        txn = await self.begin()
        await txn.put(key, value)
        return await txn.commit()

    async def get(self, key: Any, default: Any = None) -> Any:
        txn = await self.begin(read_only=True)
        try:
            value = await txn.get(key, default=default)
        finally:
            if txn.status == "active":
                await txn.commit()
        return value

    async def get_many(self, keys: List[Any], default: Any = None) -> List[Any]:
        """Batch-read autocommit transaction (one READ_MANY frame)."""
        txn = await self.begin(read_only=True)
        try:
            values = await txn.get_many(keys, default=default)
        finally:
            if txn.status == "active":
                await txn.commit()
        return values

    async def stats(self) -> Dict[str, Any]:
        return (await self._request("STATS"))["stats"]

    # -- live observability (docs/internals.md §14) -----------------------

    async def obs_snapshot(self, tail: Optional[int] = None) -> Dict[str, Any]:
        """One observability snapshot (series tails cut to ``tail``)."""
        fields: Dict[str, Any] = {}
        if tail is not None:
            fields["tail"] = tail
        return (await self._request("OBS_SNAPSHOT", **fields))["snapshot"]

    async def subscribe_obs(self) -> Dict[str, Any]:
        """Start the push stream; see the sync twin for semantics."""
        return await self._request("OBS_SUBSCRIBE")

    async def unsubscribe_obs(self) -> Dict[str, Any]:
        """Stop the stream; returns ``{subscribed, frames, dropped}``."""
        return await self._request("OBS_UNSUBSCRIBE")

    async def next_obs_frame(
        self, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """The next push frame, or None when ``timeout`` elapses first."""
        if self._pushes:
            return self._pushes.popleft()
        if self._closed:
            raise NetworkError("client is closed")
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                if "push" in frame:
                    return frame
                raise NetworkError(
                    "unexpected response frame %r" % (frame.get("id"),)
                )
            try:
                data = await asyncio.wait_for(self._reader.read(65536), timeout)
            except asyncio.TimeoutError:
                return None
            if not data:
                self._closed = True
                raise NetworkError("server closed the connection")
            self._decoder.feed(data)

    async def close(self) -> None:
        if self._closed:
            return
        try:
            await self._request("BYE")
        except (NetworkError, ServerError, OSError):
            pass
        self._closed = True
        self._writer.close()

    async def __aenter__(self) -> "AsyncTardisClient":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()
