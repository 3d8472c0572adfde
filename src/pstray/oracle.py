"""Brute-force reference implementations.

These are definitional transcriptions used to generate expected values and
to cross-check the optimized paths in tests and `self-check`, beside the
definitional helpers the index never calls: the per-suffix f-arrays and
the p-match test. The references share no code with the indexed paths
(``naive_parray`` takes only the heavy threshold): suffixes are
materialized, renamings are enumerated, matches are rescanned per position.

Helpers of those comparisons: ``random_pattern`` draws their patterns;
``encode_pattern`` maps one to the ids ``naive_ppm`` takes, checking it
without the query's intake; ``plain_range_search``, the plain binary
search over the suffix array, is the tests' reference for ``range_search``
and ``pstray bench``'s baseline, and alone shares code with the index: its
suffix comparison.
"""

from __future__ import annotations

from itertools import permutations
from random import Random
from typing import Iterator, Sequence

from .alphabet import BYTE_MODE, PText
from .encoding import STATIC_BASE, prev, spe
from .errors import CapacityError, QueryError, ValidationError
from .suffixes import PsaIndex, QueryStats, compare_suffix
from .tray import NO_NODE
from .tree import TrayTree, heavy_threshold

MAX_ORACLE_DISTINCT = 8
MAX_ORACLE_TEXT = 5000


def encode_pattern(text: PText, raw: str | Sequence[str]) -> list[int]:
    """Map a pattern onto the ids ``naive_ppm`` compares with the text's:
    a token's text id, else a fresh negative one for a parameterized token
    (only equality within the pattern matters) and one above the end
    marker's, which no window holds, for a static token or ``$``. Raises
    QueryError unless the pattern is a nonempty string or sequence of
    string tokens, checked here and not by the query's intake."""
    try:
        tokens = text.spec.tokenize(raw)
    except TypeError:
        tokens = []
    if not tokens or not all(isinstance(tok, str) for tok in tokens):
        raise QueryError("a pattern is a nonempty string or sequence of "
                         "string tokens")
    fresh: dict[str, int] = {}
    for tok in tokens:
        if tok not in text.tok2id and tok not in fresh:
            fresh[tok] = (-len(fresh) - 1 if text.spec.is_parameterized(tok)
                          else text.sentinel + len(fresh) + 1)
    ids = text.tok2id | fresh
    return [ids[tok] for tok in tokens]


def random_pattern(rng: Random, text: PText,
                   max_m: int = 14) -> str | list[str]:
    """Half the time a window of the text of at most ``max_m`` tokens with
    its parameterized tokens permuted, else at most ``max_m`` random tokens
    of the text: a string in byte mode, a token list in token mode."""
    tokens = sorted(text.tok2id)
    if rng.random() < 0.5 and text.n > 2:
        m = rng.randint(1, min(max_m, text.n - 1))
        start = rng.randint(1, text.n - m)
        shuffled = [tok for tok in tokens if text.spec.is_parameterized(tok)]
        rng.shuffle(shuffled)
        renaming = dict(zip(sorted(shuffled), shuffled))
        window = [renaming.get(text.id2tok[c], text.id2tok[c]) for c in
                  text.symbol_array[start - 1:start - 1 + m].tolist()]
    else:
        window = [rng.choice(tokens) for _ in range(rng.randint(1, max_m))]
    return "".join(window) if text.spec.mode == BYTE_MODE else window


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
    """Every 1-based position, ascending, whose window p-matches the
    pattern, by re-deriving the window's prev encoding from scratch (early
    exit on the first differing symbol)."""
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


def naive_parray(tree: TrayTree, index: PsaIndex, node: int) -> list[int]:
    """Dispatch array of ``node`` straight from the definition.

    The children come from the node's block, not from the tree: its
    suffixes' prev encodings, materialized to depth + 1, split it into one
    run of ranks per child, named by the kept node with exactly that
    block. Each canonical symbol x selects the child whose prefix is the
    node's canonical window extended by x. Entry 0 is unused; a symbol
    that selects no child, or a light child of a node with fewer than two
    heavy ones (which the tray does not keep), gives -1. Raises
    ValidationError for a child the tray keeps but no kept node holds.
    """
    text, depth = index.text, tree.depth[node]
    pi, threshold = text.pi, heavy_threshold(text)
    symbols = text.symbol_array.tolist()
    runs: dict[tuple[int, ...], tuple[int, int]] = {}  # prefix -> ranks
    for r in range(tree.lo[node], tree.hi[node] + 1):
        i = index.starts[r - 1] - 1
        key = tuple(prev(symbols[i:i + depth + 1], pi))
        if len(key) > depth:  # not a leaf's own suffix
            runs[key] = (runs.get(key, (r,))[0], r)
    heavy = sum(hi - lo + 1 >= threshold for lo, hi in runs.values())
    kept = {block: u for u, block in enumerate(zip(tree.lo, tree.hi))}
    named = {}
    for key, (lo, hi) in runs.items():
        if heavy >= 2 or hi - lo + 1 >= threshold:
            if (lo, hi) not in kept:
                raise ValidationError(f"no kept node holds child ranks "
                                      f"{lo}..{hi} of node {node}")
            named[key] = kept[lo, hi]
    i = index.starts[tree.lo[node] - 1] - 1
    canon = spe(symbols[i:i + depth], pi)
    return [NO_NODE] + [named.get(tuple(prev(canon + [x], pi)), NO_NODE)
                        for x in range(1, text.sigma + pi + 1)]
