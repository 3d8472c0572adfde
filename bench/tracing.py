"""Traced run: per-layer times and work counters of one workload.

Spans are recorded only from the benchmark's own code, around calls into
each pstray module: the build stages of ``assemble`` are called one by one,
and module globals that the package looks up at call time (the pattern
helpers ``tray`` uses, ``index_io.SparseTable`` and the validators run by
``load``) are swapped for wrappers that record a span around the original.
Spans stay in memory and are written out as JSON lines when the run ends.
A span's self time is its duration minus that of its direct children.

The tracing overhead is reported as the traced minus the untraced setup
time and query p50, both measured in this run.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workload import Workload, clock, format_metrics, percentile

QUERY_COUNTERS = ("symbol_comparisons", "nodes_visited", "parray_lookups",
                  "psa_probes")
# Modules in the order their metrics are listed; "trace" is the harness.
LAYERS = ("alphabet", "encoding", "suffixes", "tree", "tray", "index_io",
          "trace")
# Patterns per alternating untraced/traced block of the query passes.
QUERY_BLOCK = 50
# The direct children of the "setup" span.
BUILD_SPANS = ("alphabet.ingest", "encoding.prev_codes", "suffixes.build_psa",
               "tree.build_tree", "tray.classify_pnodes",
               "tray.propagate_rep_pairs", "tray.compute_pfunctions",
               "tray.build_parrays", "tray.assemble")


class Tracer:
    """In-memory spans: (id, parent id or -1, name, start ns, end ns).

    Ids are allocated when a span opens, so a parent's id is always smaller
    than its children's.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = clock()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = clock()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
        return traced

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (count, total duration ns, total self ns)."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, _, name, start, end in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[sid]
        return {name: tuple(acc) for name, acc in out.items()}

    def write(self, path: Path) -> None:
        """One JSON object per span; ``trace`` is the id of its root span."""
        root = [0] * len(self.spans)
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                root[sid] = sid if parent < 0 else root[parent]
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "trace": root[sid], "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Swap each ``(module, attribute, span name)`` for a traced wrapper
    while the block runs; yields the names of attributes that are absent."""
    saved, missing = [], []
    for module, attr, name in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, name))
    try:
        yield missing
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _nbytes(obj) -> int:
    """Bytes of the NumPy arrays held by an object, its lists and fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x) for x in vars(obj).values())
    return 0


def replicate_assemble(tracer: Tracer, work: Workload):
    """``ingest`` and the stages of ``assemble``, each in its own span.

    Returns (psa_index, ann, missing stage names). When a stage function
    no longer exists, ``assemble`` runs whole in one span instead.
    """
    from pstray import alphabet, suffixes, tray
    from pstray import tree as tree_mod

    stages = {
        "suffixes.build_psa": getattr(suffixes, "build_psa", None),
        "tree.build_tree": getattr(tree_mod, "build_tree", None),
        "tray.classify_pnodes": getattr(tray, "classify_pnodes", None),
        "tray.propagate_rep_pairs": getattr(tray, "propagate_rep_pairs", None),
        "tray.compute_pfunctions": getattr(tray, "compute_pfunctions", None),
        "tray.build_parrays": getattr(tray, "build_parrays", None),
        "encoding.prev_codes": getattr(alphabet.PText, "prev_codes", None),
    }
    missing = [name for name, fn in stages.items() if fn is None]
    span = tracer.span
    with span("setup"):
        with span("alphabet.ingest"):
            text = alphabet.ingest(work.raw, work.spec)
        if missing:
            with span("tray.assemble"):
                index = tray.assemble(text)
            return index.psa_index, index.ann, missing
        with span("encoding.prev_codes"):
            text.prev_codes
        with span("suffixes.build_psa"):
            psa_index = stages["suffixes.build_psa"](text)
        with span("tree.build_tree"):
            tree = stages["tree.build_tree"](psa_index, text)
        with span("tray.classify_pnodes"):
            ann = stages["tray.classify_pnodes"](tree, text)
        with span("tray.propagate_rep_pairs"):
            stages["tray.propagate_rep_pairs"](tree, ann, text)
        with span("tray.compute_pfunctions"):
            stages["tray.compute_pfunctions"](tree, ann, text)
        with span("tray.build_parrays"):
            stages["tray.build_parrays"](tree, ann, text, psa_index)
    return psa_index, ann, missing


def run_traced(work: Workload, index_path: Path, spans_path: Path):
    from pstray import encoding, index_io, suffixes, tray
    from pstray import tree as tree_mod

    tracer = Tracer()
    setup_untraced_ns, index = work.build()
    if index is None:
        raise RuntimeError("build failed")
    psa_index, ann, tree = index.psa_index, index.ann, index.tree
    plcp = psa_index.plcp
    counters = {
        "suffixes.sum_plcp": (int(plcp.sum()), "count"),
        "suffixes.max_plcp": (int(plcp.max()), "count"),
        "suffixes.rmq_bytes": (_nbytes(getattr(psa_index, "rmq", None)), "B"),
        "suffixes.psa_plcp_bytes": (psa_index.psa.nbytes + plcp.nbytes, "B"),
        "tree.nodes": (tree.size, "count"),
        "tray.pnodes": (sum(ann.is_pnode), "count"),
        "tray.branching_pnodes": (sum(ann.is_branching), "count"),
        "tray.parray_cells": (ann.parray_cells(), "count"),
    }

    # The replica must rebuild exactly what assemble built.
    replica = work.op(replicate_assemble, tracer, work)
    missing: list[str] = []
    if replica is not None:
        rep_psa, rep_ann, missing = replica
        same = (np.array_equal(rep_psa.psa, psa_index.psa)
                and np.array_equal(rep_psa.plcp, plcp)
                and rep_ann.parray == ann.parray)
        if not same:
            work.failed += 1
            print("bench: stage-by-stage build differs from assemble",
                  file=sys.stderr)
    del replica
    gc.collect()

    text = work.op(work.pstray.ingest, work.raw, work.spec)
    tracemalloc.start()
    try:
        work.op(work.pstray.assemble, text)
        assemble_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del text
    gc.collect()

    with tracer.span("index_io.save"):
        work.op(index_io.save, index, index_path)
    del index, psa_index, ann, tree, plcp
    gc.collect()
    load_targets = [
        (index_io, "SparseTable", "index_io.SparseTable"),
        (suffixes, "validate_psa", "suffixes.validate_psa"),
        (tree_mod, "validate_tree", "tree.validate_tree"),
        (encoding, "prev", "encoding.prev"),
    ]
    with instrumented(tracer, load_targets) as absent:
        with tracer.span("index_io.load"):
            index = work.op(index_io.load, index_path)
    missing += absent
    if index is None:
        raise RuntimeError("load failed")

    # Untraced and traced passes alternate block by block over the pattern
    # list, so drift in machine speed falls on both alike.
    count = len(work.patterns)
    query_targets = [(tray, attr, f"tray.{attr}") for attr in
                     ("encode_pattern", "prev", "spe", "range_search", "report")]
    traced_query = tracer.wrap(index.query, "tray.query")
    untraced: list[int] = []
    traced: list[int] = []
    sums = dict.fromkeys(QUERY_COUNTERS, 0)
    max_range = occ = 0
    for lo in range(0, count, QUERY_BLOCK):
        block = range(lo, min(lo + QUERY_BLOCK, count))
        untraced += [r[0] for r in (work.query(index, j) for j in block)
                     if r is not None]
        index.query = traced_query
        with instrumented(tracer, query_targets) as absent:
            for j in block:
                result = work.query(index, j)
                if result is None:
                    continue
                elapsed, got, stats = result
                traced.append(elapsed)
                occ += len(got)
                for field in QUERY_COUNTERS:
                    sums[field] += getattr(stats, field, 0)
                max_range = max(max_range,
                                getattr(stats, "max_range_searched", 0))
        del index.query
    missing += absent
    if not untraced or not traced:
        raise RuntimeError("no query succeeded")
    untraced.sort()
    traced.sort()
    tracer.write(spans_path)

    totals = tracer.totals()

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def per_query_us(*names: str) -> float:
        return sum(totals.get(n, (0, 0, 0))[2] for n in names) / count / 1e3

    setup_traced_ns = totals["setup"][1]
    p50_untraced = percentile(untraced, 0.5) / 1e3
    p50_traced = percentile(traced, 0.5) / 1e3
    metrics = {
        "alphabet.ingest_s": (self_s("alphabet.ingest"), "s"),
        "alphabet.encode_pattern_us": (per_query_us("tray.encode_pattern"), "us"),
        "encoding.prev_codes_s": (self_s("encoding.prev_codes"), "s"),
        "encoding.pattern_prev_spe_us": (per_query_us("tray.prev", "tray.spe"),
                                         "us"),
        "suffixes.build_psa_s": (self_s("suffixes.build_psa"), "s"),
        "suffixes.range_search_us": (per_query_us("tray.range_search"), "us"),
        "suffixes.range_search_calls": (
            totals.get("tray.range_search", (0,))[0], "count"),
        "suffixes.psa_probes": (sums["psa_probes"], "count"),
        "suffixes.symbol_comparisons": (sums["symbol_comparisons"], "count"),
        "suffixes.report_us": (per_query_us("tray.report"), "us"),
        "suffixes.occ_total": (occ, "count"),
        "suffixes.occ_per_query": (occ / count, "count/query"),
        "tree.build_tree_s": (self_s("tree.build_tree"), "s"),
        "tray.classify_s": (self_s("tray.classify_pnodes"), "s"),
        "tray.reps_s": (self_s("tray.propagate_rep_pairs"), "s"),
        "tray.pfun_s": (self_s("tray.compute_pfunctions"), "s"),
        "tray.parrays_s": (self_s("tray.build_parrays"), "s"),
        "tray.assemble_peak_mb": (assemble_peak / 2**20, "MB"),
        "tray.descent_us": (per_query_us("tray.query"), "us"),
        "tray.nodes_visited": (sums["nodes_visited"], "count"),
        "tray.parray_lookups": (sums["parray_lookups"], "count"),
        "tray.max_range_searched": (max_range, "count"),
        "index_io.load_rmq_s": (self_s("index_io.SparseTable"), "s"),
        "index_io.load_validate_s": (
            self_s("suffixes.validate_psa") + self_s("tree.validate_tree"), "s"),
        "index_io.load_prev_codes_s": (self_s("encoding.prev"), "s"),
        "index_io.load_parse_s": (self_s("index_io.load"), "s"),
        "trace.queries": (count, "count"),
        "trace.setup_overhead_s": (
            (setup_traced_ns - setup_untraced_ns) / 1e9, "s"),
        "trace.query_overhead_us": (p50_traced - p50_untraced, "us"),
    }
    metrics.update(counters)
    metrics = dict(sorted(metrics.items(),
                          key=lambda kv: LAYERS.index(kv[0].split(".")[0])))

    stage_ns = sum(totals[name][1] for name in BUILD_SPANS if name in totals)
    phase_us = per_query_us("tray.query", "tray.encode_pattern", "tray.prev",
                            "tray.spe", "tray.range_search", "tray.report")
    traced_mean_us = totals["tray.query"][1] / count / 1e3
    untraced_mean_us = sum(untraced) / len(untraced) / 1e3
    lines = [
        f"build: stage spans {stage_ns / 1e9:.4f} s of traced setup "
        f"{setup_traced_ns / 1e9:.4f} s; untraced setup "
        f"{setup_untraced_ns / 1e9:.4f} s",
        f"query: phase self times sum to the traced mean {phase_us:.2f} "
        f"us/query; untraced mean {untraced_mean_us:.2f} us, so tracing adds "
        f"{traced_mean_us - untraced_mean_us:.2f} us/query; p50 untraced "
        f"{p50_untraced:.2f} us, traced {p50_traced:.2f} us; {count} queries "
        f"each",
        f"spans: {len(tracer.spans)} written to {spans_path.name}",
    ]
    if missing:
        lines.append("missing (reported as 0): " + ", ".join(missing))
    return metrics, format_metrics(metrics) + lines

