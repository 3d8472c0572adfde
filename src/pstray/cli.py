"""Command-line interface.

Verbs: ``build`` an index from a text and an alphabet spec, ``query`` it,
print structural ``stats``, ``bench`` tree-assisted queries against plain
suffix-array search, and ``self-check`` an index against the brute-force
oracle. Occurrence output is machine-parseable (one ascending position per
line on stdout); everything diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from pathlib import Path

from . import index_io
from .alphabet import (encode_pattern, ingest, parse_alphabet_spec,
                       pattern_codes)
from .errors import PstrayError
from .oracle import naive_ppm
from .suffixes import QueryStats, plain_range_search, report
from .tray import assemble, query


def _read_text_file(path: str, mode: str) -> str:
    content = Path(path).read_text(encoding="utf-8")
    if mode == "bytes" and content.endswith("\n"):
        content = content[:-1]  # trailing newline is an artifact, not a symbol
    return content


def _load_text(args):
    spec = parse_alphabet_spec(Path(args.alphabet).read_text(encoding="utf-8"))
    return ingest(_read_text_file(args.text, spec.mode), spec)


def _pattern_arg(raw: str, mode: str) -> str:
    if raw.startswith("@"):
        return _read_text_file(raw[1:], mode)
    return raw


def _structure(index) -> dict[str, int]:
    """The structural counts that ``build`` and ``stats`` print, in order.
    The tree keeps the heavy nodes and their children; the light ones are
    where a descent hands over to the suffix-array search."""
    text, tree, ann = index.text, index.tree, index.ann
    pnodes = sum(ann.is_pnode)
    return {"n": text.n, "pi": text.pi, "sigma": text.sigma,
            "nodes": tree.size, "pnodes": pnodes,
            "light_targets": tree.size - pnodes,
            "branching_pnodes": sum(ann.is_branching),
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
        encoded = encode_pattern(index.text, pattern)
        expect = sorted(naive_ppm(index.text, encoded)) if encoded else []
        if occ != expect:
            print(f"oracle mismatch: index={occ} oracle={expect}",
                  file=sys.stderr)
            return 1
        print("oracle-check ok", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    """The counts of ``build``, one per line, each bounded one followed by
    its bound and its margin below it."""
    index = index_io.load(args.index)
    counts = _structure(index)
    n, cells = counts["n"], counts.pop("parray_cells")
    bound = n // index.ann.threshold
    counts.update(branching_bound=bound,
                  branching_margin=bound - counts["branching_pnodes"],
                  parray_cells=cells, parray_cells_bound=2 * n,
                  parray_cells_margin=2 * n - cells)
    for key, val in counts.items():
        print(f"{key}={val}")
    return 0


def cmd_bench(args) -> int:
    index = index_io.load(args.index)
    text = index.text
    patterns = [line for line in
                Path(args.patterns).read_text(encoding="utf-8").splitlines()
                if line]
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
            "pattern_id": pid, "m": len(pattern_prev), "occ": len(occ),
            "comparisons_tray": stats.symbol_comparisons,
            "comparisons_psa": psa_stats.symbol_comparisons,
            "max_range": stats.max_range_searched,
            "micros_tray": f"{micros_tray:.1f}",
            "micros_psa": f"{micros_psa:.1f}",
        })
    fields = ["pattern_id", "m", "occ", "comparisons_tray", "comparisons_psa",
              "max_range", "micros_tray", "micros_psa"]
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _random_pattern(rng: random.Random, text) -> str | list[str]:
    """Half window-with-renaming (guaranteed-ish hits), half random draws."""
    n = text.n
    tokens = sorted(text.tok2id)
    pi_toks = sorted(t for t in tokens if text.spec.is_parameterized(t))
    if rng.random() < 0.5 and n > 2:
        m = rng.randint(1, min(12, n - 1))
        start = rng.randint(1, n - m)
        window = [text.id2tok[c] for c in
                  text.symbol_array[start - 1:start - 1 + m].tolist()]
        if pi_toks:
            shuffled = pi_toks[:]
            rng.shuffle(shuffled)
            renaming = dict(zip(pi_toks, shuffled))
            window = [renaming.get(t, t) for t in window]
    else:
        m = rng.randint(1, 12)
        window = [rng.choice(tokens) for _ in range(m)]
    if text.spec.mode == "bytes":
        return "".join(window)
    return window


def cmd_self_check(args) -> int:
    text = _load_text(args)
    if args.trials <= 0:
        return 0
    index = assemble(text)
    index.validate()
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        pattern = _random_pattern(rng, text)
        occ, _ = query(index, pattern)
        encoded = encode_pattern(text, pattern)
        expect = sorted(naive_ppm(text, encoded)) if encoded else []
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
    except PstrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
