"""pstray benchmark: build, save, load and query one seeded workload.

    python3 bench/run.py --workload random --seed 1 --seconds 8 --trace 0

Runs the library's public path (``ingest`` -> ``assemble`` -> ``save`` ->
``load`` -> ``PSTrayIndex.query``) in this one process, with one closed-loop
client and no extra threads, and checks every answer against the matcher in
``reference.py``. Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer split from ``tracing.py``. The workloads and the metric each
layer should move are described in ``bench/README.md``.

End-to-end times are scaled to a reference machine speed (see
``workload.SpeedProbe``); the unscaled values are printed beside them.

The package is imported from ``src/`` next to this directory; the script
exits with status 2, printing no result, when that source tree is absent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path

import corpora
from workload import (SpeedProbe, Workload, clock, format_metrics,
                      percentile)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run is ROUNDS rounds of build, save, load and a timed query loop of
# seconds/ROUNDS on the loaded index, and every metric is the median over
# rounds, scaled to the reference machine speed by the probes of the whole
# run (see workload.SpeedProbe). A burst of slowness on the shared machine
# then moves one round, not the metric; this matters most for the p99 of
# workloads whose queries all cost the same.
ROUNDS = 7
# Untimed queries at the start of each round's loop.
WARMUP_QUERIES = 100
# A round's loop runs on past its time until it has this many samples, so
# that its p99 has at least ten beyond it.
MIN_ROUND_QUERIES = 1000
# Query time between two speed probes.
SEGMENT_NS = 500_000_000
# Within a round, save and load repeat until they have taken this share of
# the round's query time, and the round keeps their median: on the small
# corpora one save takes 60 ms.
STEP_MIN_SHARE = 0.2


def import_pstray():
    """Import the package from this checkout's ``src/`` or exit 2."""
    if not (SRC / "pstray" / "__init__.py").is_file():
        print(f"bench: no pstray sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pstray
    if Path(pstray.__file__).resolve().parent != SRC / "pstray":
        print(f"bench: imported pstray from {pstray.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return pstray


def repeated(work: Workload, min_ns: int, fn, *args):
    """Run a save or load until it has taken ``min_ns`` in all or has
    failed, each time from a collected heap: (median ns, last result)."""
    times: list[int] = []
    out = None
    failed = work.failed
    while sum(times) < min_ns and work.failed == failed:
        out = None  # let the previous result go before the next run
        gc.collect()
        ns, out = work.timed(fn, *args)
        times.append(ns)
    return statistics.median(times), out


def run_round(work: Workload, speed: SpeedProbe, index_path: Path,
              order: list[int], seconds: float) -> dict[str, float]:
    """One build, save, load and query loop, probing the machine's speed
    between steps: the round's raw timings."""
    from pstray import index_io

    # Each step starts from a collected heap, so the cyclic collector's
    # passes inside it do not depend on what ran before.
    gc.collect()
    speed.probe()
    build_ns, index = work.build()
    if index is None:
        raise RuntimeError("build failed")
    n = index.text.n
    speed.probe()
    step_min_ns = int(seconds * STEP_MIN_SHARE * 1e9)
    save_ns, _ = repeated(work, step_min_ns, index_io.save, index,
                          index_path)
    index = None
    speed.probe()
    load_ns, index = repeated(work, step_min_ns, index_io.load, index_path)
    if index is None:
        raise RuntimeError("load failed")

    for j in order[:WARMUP_QUERIES]:
        work.query(index, j)
    latencies: list[int] = []
    deadline = clock() + int(seconds * 1e9)
    segment_end = 0
    k = 0
    while (now := clock()) < deadline or len(latencies) < MIN_ROUND_QUERIES:
        if now >= segment_end:
            speed.probe()
            segment_end = clock() + SEGMENT_NS
        result = work.query(index, order[k % len(order)])
        k += 1
        if result is not None:
            latencies.append(result[0])
    speed.probe()
    latencies.sort()
    return {
        "setup_s": build_ns / 1e9,
        "save_s": save_ns / 1e9,
        "load_s": load_ns / 1e9,
        "query_p50_us": percentile(latencies, 0.50) / 1e3,
        "query_p99_us": percentile(latencies, 0.99) / 1e3,
        "query_qps": len(latencies) / sum(latencies) * 1e9,
        "queries": len(latencies),
        "index_bytes_per_symbol": index_path.stat().st_size / n,
    }


def run_end_to_end(work: Workload, seed: int, seconds: float,
                   index_path: Path) -> tuple[dict, list[str]]:
    order = list(range(len(work.patterns)))
    random.Random(f"order:{seed}").shuffle(order)
    speed = SpeedProbe()
    rounds = [run_round(work, speed, index_path, order, seconds / ROUNDS)]
    # Peak memory of one build, save, load and query loop: the later rounds
    # only add heap fragmentation left by the earlier ones.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds += [run_round(work, speed, index_path, order, seconds / ROUNDS)
               for _ in range(ROUNDS - 1)]
    scale = speed.scale()

    def median(name: str, scaled: bool = True) -> float:
        raw = statistics.median(r[name] for r in rounds)
        if not scaled:
            return raw
        return raw / scale if name == "query_qps" else raw * scale

    timed = {"setup_s": "s", "save_s": "s", "load_s": "s",
             "query_p50_us": "us", "query_p99_us": "us", "query_qps": "1/s"}
    metrics = {name: (median(name), unit) for name, unit in timed.items()}
    metrics["index_bytes_per_symbol"] = (rounds[0]["index_bytes_per_symbol"],
                                         "B/symbol")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    samples = [r["queries"] for r in rounds]
    notes = {name: f"median of {ROUNDS} rounds; unscaled "
                   f"{median(name, scaled=False):.6g}" for name in timed}
    notes["setup_s"] += (f"; ingest+assemble; times scaled by {scale:.4f} "
                         f"from {len(speed.samples)} speed probes")
    notes["query_p99_us"] += (f"; >= {min(samples)} samples per round, "
                              f"{sum(samples)} in all")
    notes["index_bytes_per_symbol"] = "saved file size / n"
    notes["peak_rss_mb"] = "ru_maxrss after the first round"
    # failed_ops_frac is 0 on a correct program, so it is reported here and
    # through the result's "failed"/"attempted" rather than as a metric.
    lines = format_metrics(metrics, notes) + format_metrics(
        {"failed_ops_frac": (work.failed / work.attempted, "frac")},
        {"failed_ops_frac": f"{work.failed} failed / {work.attempted} "
                            f"builds, saves, loads and queries"})
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed query loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus and query-set size factor (smoke test)")
    args = parser.parse_args(argv)

    pstray = import_pstray()
    OUT.mkdir(exist_ok=True)
    index_path = OUT / f"{args.workload}-{os.getpid()}.idx"
    work = Workload(pstray, args.workload, args.seed, args.scale)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(work.corpus.text)} {work.corpus.mode}, "
          f"{len(work.patterns)} patterns")
    try:
        if args.trace:
            import tracing
            metrics, lines = tracing.run_traced(
                work, index_path, OUT / f"trace-{args.workload}.jsonl")
        else:
            metrics, lines = run_end_to_end(work, args.seed,
                                            args.seconds, index_path)
    finally:
        index_path.unlink(missing_ok=True)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
