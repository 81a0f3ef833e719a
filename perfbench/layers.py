"""The traced run: per-layer metrics for client, server, protocol, core,
storage and partitioning.

A traced run makes two served episodes on fresh servers with the same
seed and length: one untraced, one traced. The traced episode records a
span around every client call (``client``) and samples the frames the
client encodes and decodes (``protocol``); after the load it reads the
server's per-op request histograms through OBS_SNAPSHOT and its CPU time
from ``/proc`` (``server``), and STATS (``storage``, served DAG size).
Then, in this process:

* ``protocol``: ``encode_frame`` and ``FrameDecoder`` are timed on the
  sampled frames;
* ``core``: the traced episode's op streams are replayed against an
  in-process ``TardisStore`` with the served ``shards=``, the sessions
  interleaved request by request as on the server, timing each store
  call;
* ``partitioning``: ``ShardRouter.plan`` is timed on the replayed key
  lists, and the replay counts commits whose writes span several shards.

The fork and merge metrics (:data:`MERGE_METRICS`) are emitted only for
a workload whose streams merge; every other metric is emitted for every
workload. A metric whose layer or op does not run in a workload
(READ_MANY in point-rw, partitioning outside scan-read) reads 0.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.client.client as client_module
from repro.core.store import TardisStore
from repro.server.protocol import FrameDecoder, encode_frame
from served import Episode, run_episode
from txns import Checker, LocalConn, preload, txn_steps
from workloads import Workload, preload_value, txn_stream

OPS = ("BEGIN", "READ", "READ_MANY", "WRITE", "COMMIT", "MERGE")
CORE_OPS = {
    "BEGIN": "core.begin_us",
    "READ": "core.read_us",
    "READ_MANY": "core.read_many_us",
    "WRITE": "core.write_us",
    "COMMIT": "core.commit_us",
    "MERGE": "core.merge_begin_us",
}

#: frames kept for the protocol timings (a uniform sample of the load).
FRAME_SAMPLE = 2000
#: passes over the sampled frames; the median pass is reported.
PROTOCOL_PASSES = 5

#: per-layer metric name -> unit, in report order.
UNITS: Dict[str, str] = {}
UNITS.update({"client.rtt_us.%s" % op: "us" for op in OPS})
UNITS.update({"client.requests_per_txn": "count", "client.gen_cpu_frac": "ratio"})
UNITS.update({"server.request_us.%s" % op: "us" for op in OPS})
UNITS.update({"server.cpu_ms_per_txn": "ms", "server.cpu_busy_frac": "ratio"})
UNITS.update({
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.bytes_per_txn": "B",
})
UNITS.update({name: "us" for name in CORE_OPS.values()})
UNITS.update({
    "core.us_per_txn": "us",
    "core.begin_cache_hit_ratio": "ratio",
    "core.vis_cache_hit_ratio": "ratio",
    "core.writeset_hit_ratio": "ratio",
    "core.forks": "count",
    "core.merges": "count",
    "core.dag_states": "count",
    "core.conflict_keys_per_merge": "count",
    "storage.versions": "count",
    "storage.versions_per_key": "count",
    "partitioning.plan_us": "us",
    "partitioning.shard_skew": "ratio",
    "partitioning.cross_shard_commit_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.rtt_sum_ms_per_txn": "ms",
    "trace.txn_p50_ms": "ms",
    "trace.served_dag_states": "count",
    "trace.served_dag_leaves": "count",
})

#: metrics that only a merging workload moves; without merges each reads
#: 0 (and the served DAG keeps one leaf), so other workloads omit them.
MERGE_METRICS = frozenset({
    "client.rtt_us.MERGE",
    "server.request_us.MERGE",
    "core.merge_begin_us",
    "core.writeset_hit_ratio",
    "core.forks",
    "core.merges",
    "core.conflict_keys_per_merge",
    "trace.served_dag_leaves",
})


class FrameSample:
    """A uniform sample of the frames the client encodes and decodes.

    While installed it wraps the client module's ``encode_frame`` and
    ``FrameDecoder``; only frames seen while ``active`` (the measured
    load) are offered to the reservoir.
    """

    def __init__(self, seed: int, capacity: int = FRAME_SAMPLE) -> None:
        self.frames: List[Dict[str, Any]] = []
        self.capacity = capacity
        self.seen = 0
        self.active = False
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def offer(self, frame: Dict[str, Any]) -> None:
        if not self.active:
            return
        with self._lock:
            self.seen += 1
            if len(self.frames) < self.capacity:
                self.frames.append(frame)
            else:
                slot = self._rng.randrange(self.seen)
                if slot < self.capacity:
                    self.frames[slot] = frame

    def install(self) -> Callable[[], None]:
        """Wrap the client's codec; returns the function that unwraps it."""
        sample = self
        encode, decoder = client_module.encode_frame, client_module.FrameDecoder

        def recording_encode(obj: Dict[str, Any], max_frame: int = client_module.MAX_FRAME) -> bytes:
            sample.offer(obj)
            return encode(obj, max_frame)

        class RecordingDecoder(decoder):  # type: ignore[misc, valid-type]
            def next_frame(self) -> Optional[Dict[str, Any]]:
                frame = super().next_frame()
                if frame is not None:
                    sample.offer(frame)
                return frame

        client_module.encode_frame = recording_encode
        client_module.FrameDecoder = RecordingDecoder

        def uninstall() -> None:
            client_module.encode_frame = encode
            client_module.FrameDecoder = decoder

        return uninstall


def protocol_timings(frames: List[Dict[str, Any]]) -> Tuple[float, float]:
    """Median-pass µs per frame for ``encode_frame`` and ``FrameDecoder``."""
    encoded = [encode_frame(frame) for frame in frames]
    enc, dec = [], []
    for _ in range(PROTOCOL_PASSES):
        start = time.perf_counter_ns()
        for frame in frames:
            encode_frame(frame)
        enc.append(time.perf_counter_ns() - start)
        decoder = FrameDecoder()
        start = time.perf_counter_ns()
        for data in encoded:
            decoder.feed(data)
            decoder.next_frame()
        dec.append(time.perf_counter_ns() - start)
    per_frame = 1e3 * len(frames)
    return statistics.median(enc) / per_frame, statistics.median(dec) / per_frame


class Replay:
    """The core replay: the served streams against an in-process store."""

    def __init__(self, workload: Workload, seed: int, counts: List[int]) -> None:
        self.store = TardisStore("replay", shards=workload.shards)
        self.conns = [LocalConn(self.store, "replay-%d" % c) for c in range(len(counts))]
        self.checkers = [Checker(conn.session.name) for conn in self.conns]
        keys = list(range(workload.n_keys))
        for c, conn in enumerate(self.conns):
            preload(conn, keys[c :: len(counts)], lambda k: preload_value(workload, k))
        self.txns = [
            list(itertools.islice(txn_stream(workload.name, seed, c), count))
            for c, count in enumerate(counts)
        ]
        self.ns: Dict[str, List[int]] = defaultdict(list)
        self.conflict_keys = 0
        self.write_commits = 0
        self.cross_shard_commits = 0
        prepare = getattr(self.store.versions, "prepare_commit", None)
        if prepare is not None:

            def counting_prepare(writes: Dict[Any, Any]) -> Any:
                staged = prepare(writes)
                self.write_commits += 1
                self.cross_shard_commits += staged.n_shards > 1
                return staged

            self.store.versions.prepare_commit = counting_prepare

    def timed(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter_ns()
        result = fn(*args)
        self.ns[op].append(time.perf_counter_ns() - start)
        if op == "MERGE":
            self.conflict_keys += len(result.conflicts)
        return result

    def run(self) -> None:
        """Round-robin the sessions one request at a time."""

        def steps(c: int):
            for txn in self.txns[c]:
                yield from txn_steps(txn, self.conns[c], self.checkers[c], self.timed)

        running = [steps(c) for c in range(len(self.conns))]
        while running:
            for gen in list(running):
                try:
                    next(gen)
                except StopIteration:
                    running.remove(gen)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for op, name in CORE_OPS.items():
            samples = self.ns.get(op)
            out[name] = statistics.fmean(samples) / 1e3 if samples else 0.0
        n_txns = sum(len(txns) for txns in self.txns)
        out["core.us_per_txn"] = sum(map(sum, self.ns.values())) / 1e3 / n_txns
        cache = self.store.cache_stats()
        out["core.begin_cache_hit_ratio"] = _ratio(cache["begin_hits"], cache["begin_misses"])
        out["core.vis_cache_hit_ratio"] = _ratio(cache["vis_hits"], cache["vis_misses"])
        out["core.writeset_hit_ratio"] = _ratio(
            cache.get("writeset_hits", 0), cache.get("writeset_misses", 0)
        )
        metrics = self.store.metrics
        out["core.forks"] = float(metrics.forks)
        out["core.merges"] = float(metrics.merges)
        out["core.dag_states"] = float(len(self.store.dag))
        out["core.conflict_keys_per_merge"] = (
            self.conflict_keys / metrics.merges if metrics.merges else 0.0
        )
        return out

    def partitioning(self) -> Dict[str, float]:
        router = getattr(self.store.versions, "router", None)
        if router is None:
            return {"partitioning.plan_us": 0.0, "partitioning.cross_shard_commit_frac": 0.0}
        key_lists = [keys for txns in self.txns for _, keys, _ in txns if keys]
        start = time.perf_counter_ns()
        for keys in key_lists:
            router.plan(keys)
        elapsed = time.perf_counter_ns() - start
        return {
            "partitioning.plan_us": elapsed / 1e3 / len(key_lists),
            "partitioning.cross_shard_commit_frac": (
                self.cross_shard_commits / self.write_commits if self.write_commits else 0.0
            ),
        }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def served_metrics(episode: Episode, workload: Workload) -> Dict[str, float]:
    """client, server, storage and served-DAG metrics of a traced episode."""
    assert episode.spans is not None and episode.snapshot is not None
    spans = [s for conn in episode.spans for s in conn.spans]
    by_op: Dict[str, List[float]] = defaultdict(list)
    for name, start, end, _txn in spans:
        by_op[name].append((end - start) / 1e3)
    n_txns = len(by_op["txn"])
    requests = [x for op in OPS for x in by_op[op]]
    out: Dict[str, float] = {}
    for op in OPS:
        out["client.rtt_us.%s" % op] = _p50(by_op[op])
    out["client.requests_per_txn"] = len(requests) / n_txns
    out["client.gen_cpu_frac"] = episode.gen_cpu_s / episode.wall_s
    latency = episode.snapshot.get("latency_ms") or {}
    for op in OPS:
        summary = latency.get(op)
        out["server.request_us.%s" % op] = summary["p50"] * 1e3 if summary else 0.0
    out["server.cpu_ms_per_txn"] = episode.server_cpu_s * 1e3 / episode.committed
    out["server.cpu_busy_frac"] = episode.server_cpu_s / episode.wall_s
    before, after = episode.stats_before, episode.stats_after
    moved = (after["bytes_in"] - before["bytes_in"]) + (after["bytes_out"] - before["bytes_out"])
    out["protocol.bytes_per_txn"] = moved / sum(c.stream_txns for c in episode.conns)
    store = after["store"]
    out["storage.versions"] = float(store["records"])
    out["storage.versions_per_key"] = store["records"] / workload.n_keys
    out["trace.rtt_sum_ms_per_txn"] = sum(requests) / 1e3 / n_txns
    out["trace.txn_p50_ms"] = _p50(episode.latencies_ms)
    out["trace.served_dag_states"] = float(store["states"])
    out["trace.served_dag_leaves"] = float(store["leaves"])
    shards = episode.snapshot.get("shards")
    accesses = shards["accesses"] if shards else []
    out["partitioning.shard_skew"] = (
        max(accesses) / statistics.fmean(accesses) if accesses and any(accesses) else 0.0
    )
    return out


def closure(metrics: Dict[str, float], replay: Replay) -> List[str]:
    """The closure report; lines starting with VIOLATION fail the run."""
    lines = []
    for op in OPS:
        client = metrics["client.rtt_us.%s" % op]
        server = metrics["server.request_us.%s" % op]
        if not client:
            continue
        # The server's p50 is a histogram-bucket midpoint, off by at
        # most 1/16 of the value; only a larger excess is a real break.
        ok = server <= client * (1 + 1 / 16)
        lines.append(
            "%sclosure %-9s client.rtt_us %9.1f  server.request_us %9.1f  gap %9.1f"
            % ("" if ok else "VIOLATION ", op, client, server, client - server)
        )
    lines.append(
        "closure per txn: summed client RTTs %.3f ms, traced txn_p50_ms %.3f ms"
        % (metrics["trace.rtt_sum_ms_per_txn"], metrics["trace.txn_p50_ms"])
    )
    lines.append(
        "closure dag: replay core.forks %d, served states %d, served leaves %d"
        % (metrics["core.forks"], metrics["trace.served_dag_states"],
           metrics["trace.served_dag_leaves"])
    )
    lines.append("closure trace.overhead_frac %.4f" % metrics["trace.overhead_frac"])
    lines.extend("VIOLATION replay " + v for chk in replay.checkers for v in chk.violations)
    return lines


def write_spans(root: str, workload: Workload, seed: int, episode: Episode) -> str:
    """Dump the traced episode's spans to ``.perfbench/`` in the checkout."""
    assert episode.spans is not None
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.json" % (workload.name, seed))
    doc = {
        "fields": ["name", "start_ns", "end_ns", "txn"],
        "connections": [conn.spans for conn in episode.spans],
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def traced_run(
    root: str, workload: Workload, seed: int, n_conns: int, per_episode: float
) -> Tuple[List[Episode], Dict[str, Dict[str, float]], List[str]]:
    """Both episodes last ``per_episode`` seconds, as an untraced run's do."""
    untraced = run_episode(root, workload, seed, n_conns, per_episode)
    sample = FrameSample(seed)
    uninstall = sample.install()
    try:
        traced = run_episode(root, workload, seed, n_conns, per_episode, trace=sample)
    finally:
        uninstall()
    values = served_metrics(traced, workload)
    enc, dec = protocol_timings(sample.frames)
    values["protocol.encode_us_per_frame"] = enc
    values["protocol.decode_us_per_frame"] = dec
    replay = Replay(workload, seed, [c.stream_txns for c in traced.conns])
    replay.run()
    values.update(replay.metrics())
    values.update(replay.partitioning())
    untraced_tps = untraced.committed / untraced.wall_s
    values["trace.overhead_frac"] = 1.0 - (traced.committed / traced.wall_s) / untraced_tps
    notes = closure(values, replay)
    notes.append("spans written to %s" % os.path.relpath(write_spans(root, workload, seed, traced), root))
    notes.append("frames sampled %d of %d" % (len(sample.frames), sample.seen))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in UNITS.items()
        if workload.merges or name not in MERGE_METRICS
    }
    return [untraced, traced], metrics, notes
