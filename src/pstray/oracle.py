"""Brute-force reference implementations.

These are definitional transcriptions used to generate expected values and
to cross-check the optimized paths in tests and `self-check`, beside the
definitional helpers the index never calls: the per-suffix f-arrays and
the p-match test. They share no code with the indexed paths: suffixes are
materialized, renamings are enumerated, matches are rescanned per
position.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .alphabet import PText
from .encoding import STATIC_BASE, prev, spe
from .errors import CapacityError, QueryError
from .tray import NO_NODE
from .tree import TrayTree

MAX_ORACLE_DISTINCT = 8
MAX_ORACLE_TEXT = 5000


def naive_ppm(text: PText, pattern: Sequence[int]) -> list[int]:
    """Every 1-based position whose window p-matches the pattern, by
    re-deriving the window's prev encoding from scratch (early exit on the
    first differing symbol)."""
    symbols = text.symbol_array.tolist()
    pi = text.pi
    n = text.n
    pp = prev(pattern, pi)
    m = len(pp)
    out = []
    for i in range(n - m + 1):
        last: dict[int, int] = {}
        for k in range(m):
            c = symbols[i + k]
            if c <= pi:
                j = last.get(c)
                code = 0 if j is None else k - j
                last[c] = k
            else:
                code = STATIC_BASE + c
            if code != pp[k]:
                break
        else:
            out.append(i + 1)
    return out


def naive_spe(w: Sequence[int], pi: int) -> list[int]:
    """Lexicographically least renaming of ``w``, found by enumerating every
    bijection of its distinct parameterized symbols onto canonical ids."""
    distinct: list[int] = []
    seen = set()
    for c in w:
        if c <= pi and c not in seen:
            seen.add(c)
            distinct.append(c)
    k = len(distinct)
    if k > MAX_ORACLE_DISTINCT:
        raise CapacityError(f"{k} distinct parameterized symbols exceeds "
                            f"oracle capacity {MAX_ORACLE_DISTINCT}")
    best: list[int] | None = None
    for perm in permutations(range(1, k + 1)):
        mapping = dict(zip(distinct, perm))
        cand = [mapping[c] if c <= pi else c for c in w]
        if best is None or cand < best:
            best = cand
    return best if best is not None else list(w)


def p_match(x: Sequence[int], y: Sequence[int], pi: int) -> bool:
    """True iff the two sequences match up to renaming of parameterized
    symbols (equal length and equal prev encodings)."""
    return len(x) == len(y) and prev(x, pi) == prev(y, pi)


def bijection_p_match(x: Sequence[int], y: Sequence[int], pi: int) -> bool:
    """Direct test: is there a renaming bijection of parameterized symbols,
    identity on statics, carrying ``x`` onto ``y``?"""
    if len(x) != len(y):
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for a, b in zip(x, y):
        pa, pb = a <= pi, b <= pi
        if pa != pb:
            return False
        if not pa:
            if a != b:
                return False
            continue
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


def fpos_stream(text: PText,
                positions: set[int] | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Walk suffixes right to left, yielding per-suffix f-arrays.

    The f-array of suffix ``T[i:]`` maps each canonical parameterized id
    (index ``x-1``) to the 1-based offset of the first occurrence of ``x``
    in the suffix, 0 if absent. One global table of absolute first
    occurrences is maintained in O(1) per step; the length-pi copy is made
    only for yielded steps. ``positions`` restricts which steps are
    materialized (all of them when None).
    """
    pi = text.pi
    symbols = text.symbol_array.tolist()
    first_abs = [0] * (pi + 1)  # first_abs[x] = smallest seen position of x
    for i in range(text.n, 0, -1):
        c = symbols[i - 1]
        if c <= pi:
            first_abs[c] = i
        if positions is None or i in positions:
            yield i, tuple(first_abs[x] - i + 1 if first_abs[x] else 0
                           for x in range(1, pi + 1))


def fpos(text: PText, i: int) -> tuple[int, ...]:
    """f-array of the single suffix ``T[i:]``; QueryError unless
    1 <= i <= n."""
    for _, farr in fpos_stream(text, positions={i}):
        return farr
    raise QueryError(f"suffix start {i} out of range")


def naive_psa(text: PText) -> tuple[list[int], list[int]]:
    """Sorted suffix order and adjacent LCPs by materializing every
    prev-encoded suffix."""
    n = text.n
    if n > MAX_ORACLE_TEXT:
        raise CapacityError(f"text length {n} exceeds oracle capacity")
    symbols = text.symbol_array.tolist()
    encoded = [tuple(prev(symbols[i - 1:], text.pi)) for i in range(1, n + 1)]
    order = sorted(range(1, n + 1), key=lambda i: encoded[i - 1])
    plcp = [0]
    for a, b in zip(order, order[1:]):
        ea, eb = encoded[a - 1], encoded[b - 1]
        l = 0
        while l < min(len(ea), len(eb)) and ea[l] == eb[l]:
            l += 1
        plcp.append(l)
    return order, plcp


def naive_parray(tree: TrayTree, text: PText, index, node: int) -> list[int]:
    """Dispatch array of ``node`` straight from the definition.

    For each canonical symbol x, materialize the prev encoding of the
    node's canonical window extended by x and find the child whose label
    has it as a prefix (children compared through fully materialized leaf
    suffixes). Entry 0 is unused; missing children are -1.
    """
    depth = tree.depth[node]
    start = index.starts[tree.lo[node] - 1]
    symbols = text.symbol_array.tolist()
    window = symbols[start - 1:start - 1 + depth]
    canon = spe(window, text.pi)
    kids = tree.children(node)
    kid_prefixes = []
    for u in kids:
        leaf_start = index.starts[tree.lo[u] - 1]
        enc = prev(symbols[leaf_start - 1:], text.pi)
        kid_prefixes.append((u, enc[:depth + 1]))
    width = text.sigma + text.pi
    out = [NO_NODE] * (width + 1)
    for x in range(1, width + 1):
        target = prev(canon + [x], text.pi)
        for u, pref in kid_prefixes:
            if pref == target:
                out[x] = u
                break
    return out
