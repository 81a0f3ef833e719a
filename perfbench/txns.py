"""One transaction's steps, written once for the wire and for the store.

:func:`txn_steps` runs a :data:`~workloads.Txn` against a *connection*:
either a :class:`repro.client.TardisClient` (the served run) or a
:class:`LocalConn` over an in-process :class:`repro.core.store.TardisStore`
(the traced run's core replay). Both expose ``begin(read_only)`` and
``merge()``, and their transactions expose ``get``, ``get_many``,
``put`` and ``commit``. The steps are a generator that yields between
requests, so the replay can interleave two sessions request by request,
the way the two served connections interleave on the server.

Every store call goes through ``timed(op, fn, *args)``, where ``op`` is
the wire verb. The untraced run passes :func:`untimed`; the traced run
passes a span recorder.

:class:`Checker` is the correctness gate for one session. Counters only
grow, and a session's begin is anchored at its own last commit (the
default Ancestor constraint), so no read may return less than the value
the session last committed to that key. Every scan must see every key,
each with its own value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List

from repro.core.store import TardisStore
from workloads import Txn, blob

Timed = Callable[..., Any]


def untimed(op: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class Checker:
    """Per-session outcome counts and correctness violations."""

    def __init__(self, session: str) -> None:
        self.session = session
        #: key -> the counter value this session last committed to it.
        self.last: Dict[int, int] = {}
        self.violations: List[str] = []
        self.commits = 0
        self.merges = 0

    def _violate(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append("%s: %s" % (self.session, message))

    def saw(self, key: int, value: Any) -> None:
        floor = self.last.get(key, 0)
        if not isinstance(value, int) or value < floor:
            self._violate(
                "read %r for key %d below its own last commit %d" % (value, key, floor)
            )

    def wrote(self, key: int, value: int) -> None:
        self.last[key] = value

    def scanned(self, keys: List[int], values: List[Any]) -> None:
        for key, value in zip(keys, values):
            if value is None:
                self._violate("READ_MANY missed preloaded key %d" % key)
            elif not (isinstance(value, str) and value.startswith("%d:" % key)):
                self._violate("READ_MANY returned %.20r for key %d" % (value, key))


def txn_steps(txn: Txn, conn: Any, chk: Checker, timed: Timed) -> Iterator[None]:
    """Run ``txn`` on ``conn``; yields after each request."""
    kind, keys, tag = txn
    if kind == "merge":
        merge = timed("MERGE", conn.merge)
        chk.merges += 1
        yield
        resolved = {}
        for conflict in merge.conflicts:
            key, value = conflict["key"], max(conflict["values"])
            chk.saw(key, value)
            resolved[key] = value
            timed("WRITE", merge.put, key, value)
            yield
        timed("COMMIT", merge.commit)
        chk.commits += 1
        for key, value in resolved.items():
            chk.wrote(key, value)
        return
    t = timed("BEGIN", conn.begin, kind in ("get", "scan"))
    yield
    writes: Dict[int, Any] = {}
    if kind in ("get", "inc"):
        value = timed("READ", t.get, keys[0], None)
        chk.saw(keys[0], value)
        yield
        if kind == "inc":
            writes[keys[0]] = value + 1
    elif kind in ("scan", "inc3"):
        values = timed("READ_MANY", t.get_many, list(keys), None)
        if kind == "scan":
            chk.scanned(list(keys), values)
        else:
            for key, value in zip(keys, values):
                chk.saw(key, value)
                writes[key] = value + 1
        yield
    elif kind == "put":
        writes = {key: blob(key, tag) for key in keys}
    else:
        raise ValueError("unknown transaction kind %r" % (kind,))
    for key, value in writes.items():
        timed("WRITE", t.put, key, value)
        yield
    timed("COMMIT", t.commit)
    chk.commits += 1
    if kind != "put":
        for key, value in writes.items():
            chk.wrote(key, value)


class LocalConn:
    """One in-process session with the served connection's shape.

    ``merge`` mirrors the server's MERGE handler: it begins the merge
    and computes fork points and the conflict list (with each key's base
    and branch values) before returning.
    """

    def __init__(self, store: TardisStore, name: str) -> None:
        self.store = store
        self.session = store.session(name)

    def begin(self, read_only: bool = False) -> Any:
        return self.store.begin(session=self.session, read_only=read_only)

    def merge(self) -> Any:
        merge = self.store.begin_merge(session=self.session)
        fork_points = merge.find_fork_points()
        merge.conflicts = [
            {
                "key": key,
                "base": (
                    merge.get_for_id(key, fork_points[0], default=None)
                    if fork_points
                    else None
                ),
                "values": merge.get_all(key),
            }
            for key in merge.find_conflict_writes()
        ]
        return merge


#: writes per preload transaction.
PRELOAD_BATCH = 1024


def preload(conn: Any, keys: List[int], value_of: Callable[[int], Any]) -> None:
    """Write ``keys`` through ``conn`` in transactions of PRELOAD_BATCH writes."""
    for start in range(0, len(keys), PRELOAD_BATCH):
        t = conn.begin(False)
        for key in keys[start : start + PRELOAD_BATCH]:
            t.put(key, value_of(key))
        t.commit()
