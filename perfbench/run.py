"""Served-system benchmark: one workload against fresh ``tardis serve`` processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-rw --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the untraced episodes and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced episode plus the
in-process layer measurements and reports the per-layer metrics (see
README.md in this directory). Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give the host and run facts, the
correctness gates and, for a traced run, the closure report. The exit
code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def git_rev(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(src: str) -> str:
    """SHA-256 over the program's sources: identifies it without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def window_metrics(episodes: List[Any], window_txns: int) -> List[Tuple[float, float, float]]:
    """Rate, p50 and p99 latency of each window of the given episodes."""
    return [
        (
            rate,
            statistics.median(lat),
            statistics.quantiles(lat, n=100, method="inclusive")[98],
        )
        for e in episodes
        for rate, lat in e.windows(window_txns)
    ]


def end_to_end(episodes: List[Any], window_txns: int) -> Dict[str, Dict[str, float]]:
    """The run's end-to-end metrics: the fast quartile of its windows.

    The host's CPUs are shared with other tenants, whose load comes and
    goes over seconds to minutes and only ever slows the program. So a
    run pools the windows of all its episodes (some 60) and reports the
    upper quartile of their rates and the lower quartile of their p50s
    and p99s: the program's speed on a quiet host, read from a dozen or
    more windows rather than from the single best one.
    """
    windows = window_metrics(episodes, window_txns)

    def quartile(values: List[float], which: int) -> float:
        return statistics.quantiles(values, n=4, method="inclusive")[which]

    return {
        "txn_per_s": {"value": quartile([w[0] for w in windows], 2), "unit": "1/s"},
        "txn_p50_ms": {"value": quartile([w[1] for w in windows], 0), "unit": "ms"},
        "txn_p99_ms": {"value": quartile([w[2] for w in windows], 0), "unit": "ms"},
        "setup_s": {"value": statistics.median(e.setup_s for e in episodes), "unit": "s"},
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "server", "server.py")):
        print("perfbench: no TARDiS sources under %s" % SRC, file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from served import run_episode
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    # A terminated run still unwinds, so each spawned server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    n_conns = min(2, len(os.sched_getaffinity(0)))
    per_episode = args.seconds / workload.episodes
    if args.trace:
        from layers import traced_run

        episodes, metrics, notes = traced_run(
            ROOT, workload, args.seed, n_conns, per_episode
        )
    else:
        episodes = [
            run_episode(ROOT, workload, args.seed, n_conns, per_episode)
            for _ in range(workload.episodes)
        ]
        if not all(e.committed for e in episodes):
            print("perfbench: an episode committed no transaction", file=sys.stderr)
            return 1
        metrics = end_to_end(episodes, workload.window_txns)
        notes = []
    attempted = sum(c.attempted for e in episodes for c in e.conns)
    failed = sum(c.failed for e in episodes for c in e.conns)
    violations = [v for e in episodes for v in e.violations()]
    errors = [c.error for e in episodes for c in e.conns if c.error]
    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": len(episodes),
        "connections": n_conns,
        "transactions": attempted,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(ROOT),
        "src_sha256": src_digest(SRC),
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    latencies = [x for e in episodes for x in e.latencies_ms]
    print("samples txn_latency=%d failed_frac=%.6f (%d of %d)"
          % (len(latencies), failed / max(attempted, 1), failed, attempted))
    for i, e in enumerate(episodes):
        windows = window_metrics([e], workload.window_txns)
        rate, p50, p99 = (statistics.median(w[k] for w in windows) for k in range(3))
        print("episode %d setup_s %.3f committed %d in %d windows: txn_per_s %.1f "
              "p50_ms %.3f p99_ms %.3f (window medians) server_cpu_s %.2f "
              "host_steal_s %.2f"
              % (i, e.setup_s, e.committed, len(windows), rate, p50, p99,
                 e.server_cpu_s, e.steal_s))
    for note in notes:
        print(note)
    for error in errors:
        print("failed txn " + error)
    for violation in violations:
        print("VIOLATION " + violation)
    for name, metric in metrics.items():
        print("%-40s %14.6f %s" % (name, metric["value"], metric["unit"]))
    correct = not violations and not any(n.startswith("VIOLATION") for n in notes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
