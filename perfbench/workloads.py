"""The served-system benchmark's workloads and their seeded op streams.

A workload fixes the server configuration, the preloaded keys and a
transaction mix. The op stream of one connection is a pure function of
``(workload, seed, connection)``: :func:`txn_stream` draws from a
``random.Random`` seeded with a string built from exactly those three
values, so the same triple always yields the same transactions, in any
process and under any ``PYTHONHASHSEED``.

A transaction is a tuple ``(kind, keys, tag)``:

* ``get``   read-only: BEGIN, READ one key, COMMIT.
* ``inc``   read-write: BEGIN, READ one key, WRITE it plus one, COMMIT.
* ``scan``  read-only: BEGIN, one READ_MANY of all ``keys``, COMMIT.
* ``put``   write-only: BEGIN, WRITE a fresh blob to each key, COMMIT.
* ``inc3``  read-write: BEGIN, READ_MANY ``keys``, WRITE each plus one,
  COMMIT.
* ``merge`` BEGIN a MERGE over every branch, WRITE the max of each
  conflicting key's values, COMMIT.

``tag`` makes written blobs unique and traceable to the transaction
that wrote them; counters need none.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

Txn = Tuple[str, Tuple[int, ...], str]

#: width of every scan-read value, preloaded or written.
BLOB_BYTES = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``tardis serve --shards``; None serves the flat store.
    shards: Optional[int]
    n_keys: int
    #: preload counters (0) or blobs (:func:`blob`).
    blobs: bool
    #: leading transactions of each connection's stream run before the
    #: clock starts (caches fill, the loop settles).
    warmup_txns: int
    #: None bounds an episode by time. Otherwise it is bounded by count:
    #: each connection runs ``count_rate`` transactions per second of
    #: the episode's length, so the state an episode builds does not
    #: depend on how fast the program runs.
    count_rate: Optional[int]
    #: the stream merges, so its runs report the fork and merge metrics.
    merges: bool
    #: fresh servers per untraced run, each loaded for an equal share of
    #: ``--seconds``; setup_s is the median of their set-up times.
    episodes: int
    #: completed transactions per measurement window (see run.py).
    window_txns: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point-rw",
            "single-key transactions on 1,024 counters: the request path "
            "(server, protocol, executor hop) does most of the work",
            shards=None,
            n_keys=1024,
            blobs=False,
            warmup_txns=200,
            count_rate=None,
            merges=False,
            episodes=10,
            window_txns=500,
        ),
        Workload(
            "scan-read",
            "128-key READ_MANY over 4 in-process shards with 256-byte "
            "values: heavy requests, ~32 KB replies, partitioning runs",
            shards=4,
            n_keys=16384,
            blobs=True,
            warmup_txns=30,
            count_rate=None,
            merges=False,
            # Each episode's preload of 16,384 blobs takes seconds, so
            # fewer, longer episodes, cut into smaller windows.
            episodes=5,
            window_txns=250,
        ),
        Workload(
            "hot-merge",
            "two sessions increment 16 hot keys and merge every 20th "
            "transaction: forks, merges and state growth",
            shards=None,
            n_keys=16,
            blobs=False,
            warmup_txns=0,
            count_rate=225,
            merges=True,
            episodes=5,
            window_txns=500,
        ),
    )
}


def blob(key: int, tag: str) -> str:
    """The scan-read value for ``key`` written by ``tag``.

    It starts with ``"<key>:"``, so a reader can check that a READ_MANY
    returned each key's own value and not a neighbour's.
    """
    return ("%d:%s:" % (key, tag)).ljust(BLOB_BYTES, "#")


def txn_stream(workload: str, seed: int, conn: int) -> Iterator[Txn]:
    """The endless transaction stream of connection ``conn``."""
    rng = random.Random("%s/%d/%d" % (workload, seed, conn))
    keys = range(WORKLOADS[workload].n_keys)
    for i in itertools.count():
        if workload == "point-rw":
            kind = "inc" if rng.random() < 0.1 else "get"
            yield (kind, (rng.randrange(len(keys)),), "")
        elif workload == "scan-read":
            if rng.random() < 0.1:
                yield ("put", tuple(rng.sample(keys, 4)), "%d.%d" % (conn, i))
            else:
                yield ("scan", tuple(rng.sample(keys, 128)), "")
        elif workload == "hot-merge":
            # Sessions merge at staggered points: one session merges
            # while the other is mid-transaction, whose commit then lands
            # beside the merge, so the two branches never collapse.
            if (i + 10 * conn) % 20 == 19:
                yield ("merge", (), "")
            else:
                yield ("inc3", tuple(rng.sample(keys, 3)), "")
        else:
            raise ValueError("unknown workload %r" % (workload,))


def preload_value(workload: Workload, key: int) -> Any:
    return blob(key, "p") if workload.blobs else 0
