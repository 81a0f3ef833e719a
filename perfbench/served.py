"""A spawned ``tardis serve`` and one closed-loop episode against it.

An *episode* is one fresh server process, its preload, and a measured
load phase. The load comes from this process only: one thread per
connection, each connection one client session, each session sending
its next request only after the previous reply (a TARDiS session is
sequential). The threads start their clocks together at a barrier, after
each has run its stream's warm-up transactions.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import TardisClient
from txns import Checker, Timed, preload, txn_steps, untimed
from workloads import Workload, preload_value, txn_stream

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = "tardis serve: listening on "
_REPORT = "TARDIS_SERVE_REPORT "


class ServerProcess:
    """``python -m repro.tools.cli serve`` on an ephemeral port."""

    def __init__(self, root: str, shards: Optional[int], timeout: float = 60.0) -> None:
        cmd = [sys.executable, "-m", "repro.tools.cli", "serve", "--port", "0"]
        if shards is not None:
            cmd += ["--shards", str(shards)]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            cmd,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            self.port = self._await_port(timeout)
        except BaseException:
            self.kill()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("tardis serve did not listen within %.0fs" % timeout)
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("tardis serve exited with %r" % self.proc.wait())
            if line.startswith(_LISTENING):
                return int(line[len(_LISTENING) :].split()[0].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server process so far."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self, timeout: float = 30.0) -> Dict[str, Any]:
        """SIGINT (graceful drain), then the shutdown report and exit code."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return {"returncode": None, "report": None}
        report = None
        for line in out.splitlines():
            if line.startswith(_REPORT):
                report = json.loads(line[len(_REPORT) :])
        return {"returncode": self.proc.returncode, "report": report}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLK_TCK


def run_threads(fns: List[Callable[[], Any]]) -> List[Any]:
    """Run each function on its own thread; re-raise the first failure."""
    results: List[Any] = [None] * len(fns)
    errors: List[BaseException] = []

    def _run(i: int) -> None:
        try:
            results[i] = fns[i]()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=_run, args=(i,)) for i in range(len(fns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class Spans:
    """One connection's spans: ``(name, start_ns, end_ns, txn)`` tuples.

    A ``txn`` span covers a whole transaction; the request spans inside
    it carry the same transaction number, which is their parent.
    """

    def __init__(self) -> None:
        self.txn = 0
        self.spans: List[tuple] = []

    def timed(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter_ns()
        result = fn(*args)
        self.spans.append((op, start, time.perf_counter_ns(), self.txn))
        return result


@dataclass
class ConnResult:
    chk: Checker
    #: latency (ms) and completion time of each measured committed
    #: transaction, in completion order.
    latencies_ms: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None
    #: transactions run from the head of the stream, warm-up included.
    stream_txns: int = 0
    end: float = 0.0


def _drive(
    client: TardisClient,
    workload: Workload,
    seed: int,
    conn: int,
    seconds: float,
    barrier: threading.Barrier,
    clock: Dict[str, float],
    spans: Optional[Spans],
) -> ConnResult:
    stream = txn_stream(workload.name, seed, conn)
    out = ConnResult(Checker(client.session))
    timed: Timed = spans.timed if spans is not None else untimed

    def one() -> bool:
        txn = next(stream)
        out.stream_txns += 1
        start = time.perf_counter()
        try:
            for _ in txn_steps(txn, client, out.chk, timed):
                pass
        except Exception as exc:  # any error response or a dropped link fails the txn
            out.failed += 1
            out.error = "%s: %r" % (client.session, exc)
            return False
        end = time.perf_counter()
        if spans is not None:
            spans.spans.append(("txn", int(start * 1e9), int(end * 1e9), spans.txn))
            spans.txn += 1
        out.latencies_ms.append((end - start) * 1000.0)
        out.ends.append(end)
        return True

    alive = all(one() for _ in range(workload.warmup_txns))
    out.latencies_ms.clear()
    out.ends.clear()
    out.failed = 0 if alive else 1
    if spans is not None:
        spans.spans.clear()
    barrier.wait(timeout=120)
    if alive:
        if workload.count_rate is not None:
            count = round(workload.count_rate * seconds)
            while len(out.latencies_ms) < count and one():
                pass
        else:
            deadline = clock["start"] + seconds
            while time.perf_counter() < deadline and one():
                pass
    out.attempted = len(out.latencies_ms) + out.failed
    out.end = time.perf_counter()
    return out


@dataclass
class Episode:
    setup_s: float
    start: float
    wall_s: float
    conns: List[ConnResult]
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    server_cpu_s: float
    gen_cpu_s: float
    #: host CPU time stolen by the hypervisor during the load.
    steal_s: float
    shutdown: Dict[str, Any]
    snapshot: Optional[Dict[str, Any]] = None
    spans: Optional[List[Spans]] = None

    @property
    def latencies_ms(self) -> List[float]:
        return [x for c in self.conns for x in c.latencies_ms]

    @property
    def committed(self) -> int:
        return sum(len(c.latencies_ms) for c in self.conns)

    def windows(self, target: int) -> List[Tuple[float, List[float]]]:
        """Consecutive windows of about ``target`` completed transactions.

        The episode's completions are cut into equal windows, at least
        one; the remainder is dropped. Each window is ``(rate,
        latencies)``: its completions per second, from the previous
        window's last completion (or the load start) to its own, and
        their latencies in ms.
        """
        done = sorted(
            (end, lat) for c in self.conns for end, lat in zip(c.ends, c.latencies_ms)
        )
        if not done:
            return []
        size = len(done) // max(1, len(done) // target)
        out = []
        previous = self.start
        for i in range(size, len(done) + 1, size):
            chunk = done[i - size : i]
            out.append((size / (chunk[-1][0] - previous), [lat for _, lat in chunk]))
            previous = chunk[-1][0]
        return out

    def violations(self) -> List[str]:
        """Every correctness-gate failure of this episode."""
        out = [v for c in self.conns for v in c.chk.violations]
        client_commits = sum(c.chk.commits for c in self.conns)
        client_merges = sum(c.chk.merges for c in self.conns)
        for name, client in (("commits", client_commits), ("merges", client_merges)):
            server = self.stats_after[name] - self.stats_before[name]
            if server != client:
                out.append("server %s delta %d != client count %d" % (name, server, client))
        report = self.shutdown.get("report")
        if report is None:
            out.append("no shutdown report (server exit %r)" % self.shutdown["returncode"])
        elif report.get("leaked_sessions"):
            out.append("leaked sessions %r" % report["leaked_sessions"])
        if self.shutdown["returncode"] != 0:
            out.append("server exit code %r" % self.shutdown["returncode"])
        return out


def run_episode(
    root: str,
    workload: Workload,
    seed: int,
    n_conns: int,
    seconds: float,
    trace: Any = None,
) -> Episode:
    """Spawn, preload, load for ``seconds`` (or the workload's count), stop.

    With a ``trace`` (an object with an ``active`` flag, set for exactly
    the measured load) the episode records spans and an OBS_SNAPSHOT.
    """
    t0 = time.perf_counter()
    server = ServerProcess(root, workload.shards)
    stopped: Dict[str, Any] = {"returncode": None, "report": None}
    try:
        clients = [
            TardisClient(port=server.port, session="bench-%d" % c, timeout=60.0)
            for c in range(n_conns)
        ]
        keys = list(range(workload.n_keys))
        run_threads(
            [
                lambda c=c: preload(
                    clients[c], keys[c::n_conns], lambda k: preload_value(workload, k)
                )
                for c in range(n_conns)
            ]
        )
        setup_s = time.perf_counter() - t0
        before = clients[0].stats()
        spans = [Spans() for _ in range(n_conns)] if trace is not None else None
        clock: Dict[str, float] = {}

        def start_clock() -> None:
            # Warm-up is over: CPU is counted from here, like the load.
            clock["cpu0"], clock["gen0"] = server.cpu_seconds(), time.process_time()
            clock["steal0"] = host_steal_seconds()
            clock["start"] = time.perf_counter()
            if trace is not None:
                trace.active = True

        barrier = threading.Barrier(n_conns, action=start_clock)
        results = run_threads(
            [
                lambda c=c: _drive(
                    clients[c], workload, seed, c, seconds, barrier, clock,
                    spans[c] if spans is not None else None,
                )
                for c in range(n_conns)
            ]
        )
        wall_s = max(r.end for r in results) - clock["start"]
        cpu1, gen1 = server.cpu_seconds(), time.process_time()
        steal_s = host_steal_seconds() - clock["steal0"]
        if trace is not None:
            trace.active = False
        after = clients[0].stats()
        snapshot = clients[0].obs_snapshot(tail=0) if trace is not None else None
        for client in clients:
            client.close()
        stopped = server.stop()
    finally:
        if stopped["returncode"] is None:
            server.kill()
    return Episode(
        setup_s=setup_s,
        start=clock["start"],
        wall_s=wall_s,
        conns=results,
        stats_before=before,
        stats_after=after,
        server_cpu_s=cpu1 - clock["cpu0"],
        gen_cpu_s=gen1 - clock["gen0"],
        steal_s=steal_s,
        shutdown=stopped,
        snapshot=snapshot,
        spans=spans,
    )
