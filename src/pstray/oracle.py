"""Brute-force reference implementations.

These are definitional transcriptions used to generate expected values and
to cross-check the optimized paths in tests and `self-check`, beside the
definitional helpers the index never calls: the per-suffix f-arrays and
the p-match test. The references share no code with the indexed paths:
suffixes are materialized, renamings are enumerated, matches are rescanned
per position.

Two helpers serve those comparisons and read the index's own pattern
intake and suffix comparison: ``encode_pattern`` maps a pattern to the
text ids ``naive_ppm`` takes, and ``plain_range_search`` is the plain
binary search over the suffix array, the tests' reference for
``suffixes.range_search`` and the full-range baseline of ``pstray bench``.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .alphabet import PText, pattern_codes
from .encoding import STATIC_BASE, prev, spe
from .errors import CapacityError, QueryError
from .suffixes import PsaIndex, QueryStats, compare_suffix
from .tray import NO_NODE
from .tree import TrayTree

MAX_ORACLE_DISTINCT = 8
MAX_ORACLE_TEXT = 5000


def encode_pattern(text: PText, raw: str | Sequence[str]) -> list[int] | None:
    """Map a pattern onto the text's internal ids.

    Parameterized tokens unknown to the text get fresh negative ids (their
    identity only matters up to equality within the pattern). A static token
    the text has never seen cannot match anywhere: returns None. The pattern
    is checked by ``pattern_codes``, so this raises QueryError where it
    does: for an empty pattern and for one that is neither a string nor a
    sequence of string tokens.
    """
    if pattern_codes(text, raw) is None:
        return None
    out: list[int] = []
    fresh: dict[str, int] = {}
    for tok in text.spec.tokenize(raw):
        sym = text.tok2id.get(tok)
        if sym is None:  # a parameterized token, as pattern_codes passed it
            sym = fresh.setdefault(tok, -len(fresh) - 1)
        out.append(sym)
    return out


def _lower_bound_plain(index, pattern_prev, lo, hi, skip, strict, stats):
    """Smallest rank in [lo, hi+1] whose suffix is >= the pattern (prefix
    matches count as equal); ``strict`` asks for strictly greater instead."""
    result = hi + 1
    while lo <= hi:
        mid = (lo + hi) // 2
        stats.psa_probes += 1
        rel, _ = compare_suffix(index, index.starts[mid - 1], pattern_prev,
                                skip, stats)
        if rel > 0 or (not strict and rel == 0):
            result = mid
            hi = mid - 1
        else:
            lo = mid + 1
    return result


def plain_range_search(index: PsaIndex, pattern_prev: list[int], lo: int,
                       hi: int, skip: int,
                       stats: QueryStats) -> tuple[int, int] | None:
    """Maximal subrange of [lo, hi] whose suffixes extend the pattern, by
    two plain binary searches that read no LCP values.

    The reference the tests hold ``range_search`` to, and the full-range
    baseline of ``pstray bench``: over [1, n] a min over LCP slices would
    cost O(n) per probe. Raises QueryError for a range reaching outside
    1..n, as ``range_search`` does.
    """
    if not (1 <= lo and hi <= index.n):
        raise QueryError(f"range [{lo},{hi}] out of bounds")
    first = _lower_bound_plain(index, pattern_prev, lo, hi, skip, False, stats)
    if first > hi:
        return None
    last = _lower_bound_plain(index, pattern_prev, first, hi, skip, True, stats) - 1
    if last < first:
        return None
    return first, last


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
