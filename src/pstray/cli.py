"""Command-line interface.

Verbs: ``build`` an index from a text and an alphabet spec, ``query`` it,
print structural ``stats``, ``bench`` tree-assisted queries against plain
suffix-array search, and ``self-check`` an index against the brute-force
oracle. Occurrence output is machine-parseable (one ascending position per
line on stdout); everything diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import random
import sys
import time
from pathlib import Path

from . import index_io
from .alphabet import ingest, parse_alphabet_spec, pattern_codes
from .errors import InputError, PstrayError
from .oracle import (encode_pattern, naive_ppm, plain_range_search,
                     random_pattern)
from .suffixes import QueryStats, report
from .tray import assemble, query
from .tree import heavy_threshold


def _read(path: str) -> str:
    """The content of a UTF-8 input file; InputError naming the file when
    it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def _read_text_file(path: str, mode: str) -> str:
    content = _read(path)
    if mode == "bytes" and content.endswith("\n"):
        content = content[:-1]  # trailing newline is an artifact, not a symbol
    return content


def _load_text(args):
    spec = parse_alphabet_spec(_read(args.alphabet))
    return ingest(_read_text_file(args.text, spec.mode), spec)


def _pattern_arg(raw: str, mode: str) -> str:
    if raw.startswith("@"):
        return _read_text_file(raw[1:], mode)
    return raw


def _structure(index) -> dict[str, int]:
    """The structural counts that ``build`` and ``stats`` print, in order.
    The p-nodes are the tree's nodes with a depth, and its light nodes
    (``light_targets``) are exactly the blocks a dispatch can hand over to
    the suffix-array search."""
    text, tree, ann = index.text, index.tree, index.ann
    pnodes = len(tree.depth_array)
    return {"n": text.n, "pi": text.pi, "sigma": text.sigma,
            "nodes": tree.size, "pnodes": pnodes,
            "light_targets": tree.size - pnodes,
            "branching_pnodes": len(ann.parray),
            "parray_cells": ann.parray_cells()}


def cmd_build(args) -> int:
    index = assemble(_load_text(args))
    index_io.save(index, args.out)
    print(" ".join(f"{key}={val}" for key, val in _structure(index).items()))
    return 0


def cmd_query(args) -> int:
    index = index_io.load(args.index)
    pattern = _pattern_arg(args.pattern, index.text.spec.mode)
    occ, stats = query(index, pattern)
    for pos in occ:
        print(pos)
    if args.stats:
        for key, val in stats.as_dict().items():
            print(f"{key}={val}", file=sys.stderr)
    if args.oracle_check:
        expect = naive_ppm(index.text, encode_pattern(index.text, pattern))
        if occ != expect:
            print(f"oracle mismatch: index={occ} oracle={expect}",
                  file=sys.stderr)
            return 1
        print("oracle-check ok", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    """The counts of ``build``, one per line, each bounded one followed by
    its bound and its margin below it, then the bytes per word of the
    file's text, suffix and LCP arrays and the file's size."""
    index = index_io.load(args.index)
    counts = _structure(index)
    n, cells = counts["n"], counts.pop("parray_cells")
    bound = n // heavy_threshold(index.text)
    file_bytes = Path(args.index).stat().st_size
    counts.update(branching_bound=bound,
                  branching_margin=bound - counts["branching_pnodes"],
                  parray_cells=cells, parray_cells_bound=2 * n,
                  parray_cells_margin=2 * n - cells,
                  word_bytes=",".join(map(str, index_io.word_widths(index))),
                  file_bytes=file_bytes,
                  bytes_per_symbol=f"{file_bytes / n:.3f}")
    for key, val in counts.items():
        print(f"{key}={val}")
    return 0


def cmd_bench(args) -> int:
    index = index_io.load(args.index)
    text = index.text
    patterns = [line for line in _read(args.patterns).splitlines() if line]
    rows = []
    for pid, raw in enumerate(patterns):
        t0 = time.perf_counter()
        occ, stats = query(index, raw)
        micros_tray = (time.perf_counter() - t0) * 1e6

        psa_stats = QueryStats()
        t0 = time.perf_counter()
        codes = pattern_codes(text, raw)
        pattern_prev = codes[0] if codes else []
        rng = None
        if pattern_prev:
            rng = plain_range_search(index.psa_index, pattern_prev, 1, text.n,
                                     0, psa_stats)
        psa_occ = sorted(report(index.psa_index, rng))
        micros_psa = (time.perf_counter() - t0) * 1e6
        if psa_occ != occ:
            print(f"bench mismatch on pattern {pid}", file=sys.stderr)
            return 1
        rows.append({
            "pattern_id": pid, "m": len(text.spec.tokenize(raw)),
            "occ": len(occ),
            "comparisons_tray": stats.symbol_comparisons,
            "comparisons_psa": psa_stats.symbol_comparisons,
            "max_range": stats.max_range_searched,
            "micros_tray": f"{micros_tray:.1f}",
            "micros_psa": f"{micros_psa:.1f}",
        })
    fields = ["pattern_id", "m", "occ", "comparisons_tray", "comparisons_psa",
              "max_range", "micros_tray", "micros_psa"]
    with (open(args.csv, "w", newline="", encoding="utf-8") if args.csv
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_self_check(args) -> int:
    text = _load_text(args)
    if args.trials <= 0:
        return 0
    index = assemble(text)
    index.validate()
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        pattern = random_pattern(rng, text, max_m=12)
        occ, _ = query(index, pattern)
        expect = naive_ppm(text, encode_pattern(text, pattern))
        if occ != expect:
            print(f"self-check mismatch at trial {trial}: pattern={pattern!r} "
                  f"index={occ} oracle={expect}", file=sys.stderr)
            return 1
    print(f"ok trials={args.trials} seed={args.seed}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstray",
        description="parameterized pattern matching index")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="build and save an index")
    p.add_argument("--text", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="find pattern occurrences")
    p.add_argument("--index", required=True)
    p.add_argument("--pattern", required=True,
                   help="pattern string, or @file to read one")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="structural report of an index")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="compare tree-assisted vs plain search")
    p.add_argument("--index", required=True)
    p.add_argument("--patterns", required=True,
                   help="file with one pattern per line")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("self-check", help="randomized oracle equivalence")
    p.add_argument("--text", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_self_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PstrayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
