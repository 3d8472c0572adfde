"""Sorted array of prev-encoded suffixes, adjacent-LCP array, range search.

Suffix comparisons never materialize an encoded suffix: symbol ``d`` of the
suffix starting at ``j`` is derived in O(1) from the whole-text prev codes
(see ``encoding.prev_char_in_window``). The sort is a level-synchronous
MSD bucketing over suffix start indices: each numpy round advances every
unsorted group by one symbol at once, so the sort takes max LCP + 1 rounds
and O(n + sum of LCPs) element work. The LCP of two neighbouring suffixes
is exactly the depth at which their group split, so the LCP array falls
out of the sort for free.

The index holds only O(n) words: the suffix array, the LCP array and plain
list copies of both and of the text's prev codes. The search loops read
the lists, never a numpy scalar. There is one search path, an
LCP-accelerated binary search (Manber & Myers). The LCP of two ranks is a
min over the LCP slice between them, which is cheap because the tray only
hands it ranges shorter than ``(sigma + pi + 1) * max(sigma, pi)``.
Reporting a match range is one slice of the suffix-start list. The plain
binary search is kept as the tests' oracle and as the full-range baseline
of ``pstray bench``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import PText
from .encoding import STATIC_BASE
from .errors import ValidationError

# When enabled, range_search re-checks its caller-guaranteed precondition
# (every suffix in the range agrees with the pattern on the first `skip`
# symbols). Too slow for production paths; tests flip it on.
STRICT_CHECKS = False


@dataclass
class QueryStats:
    """Instrumentation counters for one query.

    ``symbol_comparisons`` counts every encoded-symbol equality test against
    the pattern (tree descent and binary search alike); ``psa_probes``
    counts binary-search steps; ``max_range_searched`` is the widest
    suffix-array range handed to range_search.
    """

    symbol_comparisons: int = 0
    nodes_visited: int = 0
    parray_lookups: int = 0
    psa_probes: int = 0
    max_range_searched: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "symbol_comparisons": self.symbol_comparisons,
            "nodes_visited": self.nodes_visited,
            "parray_lookups": self.parray_lookups,
            "psa_probes": self.psa_probes,
            "max_range_searched": self.max_range_searched,
        }


@dataclass(eq=False)
class PsaIndex:
    """Parameterized suffix array plus adjacent-LCP array, in O(n) words.

    ``psa`` holds 1-based suffix start positions in encoded-suffix order;
    ``plcp[r]`` (0-based r) is the longest common prefix of ranks r and r-1
    (0 at r=0). ``codes`` (the text's prev codes), ``starts`` and ``lcps``
    (made from ``psa`` and ``plcp`` here) are plain-list copies for fast
    scalar access and slicing in the search loops: the suffix of 1-based
    rank ``r`` starts at ``starts[r - 1]``. ``starts`` is the index's one
    rank-to-start list; the tree's leaves read it too.
    """

    psa: np.ndarray
    plcp: np.ndarray
    codes: list[int]
    starts: list[int] = field(init=False, repr=False)
    lcps: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.starts = self.psa.tolist()
        self.lcps = self.plcp.tolist()

    @property
    def n(self) -> int:
        return len(self.psa)

    def lcp_between(self, a: int, b: int) -> int:
        """LCP of the suffixes at 1-based ranks a < b: the least adjacent
        LCP from rank a+1 to rank b, a min over b - a list entries."""
        return min(self.lcps[a:b])


def build_psa(text: PText) -> PsaIndex:
    """Sort all suffix start positions by their prev-encoded suffixes.

    Level-synchronous MSD sort: before round ``d``, every suffix not yet
    alone in its group sits in one array, groups contiguous in rank order,
    each group agreeing on its first d-1 encoded symbols. The round reads
    symbol ``d`` of all of them in one gather. A group is constant between
    the places where its symbol changes, so it is already ordered iff the
    symbol rises at every change; only when some change falls does the
    round pay one stable argsort of (group, symbol) over all groups at
    once. Each change records the LCP d-1 at its rank, and a suffix left
    alone in its group takes its final rank and leaves. The sentinel makes
    all suffixes distinct, so the sort takes max LCP + 1 rounds and
    O(n + sum of LCPs) element work, and never reads past a suffix's end.
    Deterministic.
    """
    n = text.n
    codes = text.prev_codes
    raw = np.asarray(codes, dtype=np.int64)
    # Distances are below n; moving the static codes to just above them
    # keeps the order and lets (group, symbol) share one int64 sort key.
    code = np.where(raw >= STATIC_BASE, raw - STATIC_BASE + n, raw)
    width = int(code.max(initial=0)) + 1
    # sym[p] is the symbol at text position p read at the current depth d.
    # A distance reaching past the window start is a first occurrence inside
    # the window, so distance x reads as 0 until depth x + 1, when the
    # positions holding x (by_code[code_start[x]:code_start[x + 1]]) get it
    # back: O(n) updates over the whole sort instead of a pass per round.
    sym = np.where(code < n, 0, code)
    by_code = np.argsort(code)
    code_start = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=width), out=code_start[1:])

    psa = np.arange(1, n + 1, dtype=np.int64)  # set as suffixes leave
    plcp = np.zeros(n, dtype=np.int64)
    act = np.arange(n, dtype=np.int64)  # 0-based starts of grouped suffixes
    slot = np.arange(n, dtype=np.int64)  # their ranks, ascending
    head = np.zeros(n + 1, dtype=bool)  # group starts, plus an end mark
    head[0] = head[n] = True
    inner = ~head[1:n]  # adjacent pairs within one group
    d = 1
    while len(act) > 1:
        m = len(act)
        sym[by_code[code_start[d - 1]:code_start[d]]] = d - 1
        key = sym[d - 1:][act]
        step = key[1:] - key[:-1]
        cut = step != 0
        cut &= inner
        change = cut.nonzero()[0]
        if len(change):
            if step[change].min() < 0:
                order = np.argsort(np.cumsum(head[:m]) * width + key,
                                   kind="stable")
                act = act[order]
                key = key[order]
                cut = key[1:] != key[:-1]
                cut &= inner
                change = cut.nonzero()[0]
            change += 1
            plcp[slot[change]] = d - 1
            head[change] = True
            lone = (head[:-1] & head[1:]).nonzero()[0]
            if len(lone):
                psa[slot[lone]] = act[lone] + 1
                k = len(lone)
                # A run of one symbol loses its shortest suffix, the last,
                # every round: slice rather than compact when only the last
                # suffixes leave.
                if lone[0] == m - k:
                    act, slot, head = act[:m - k], slot[:m - k], head[:m - k + 1]
                else:
                    keep = np.ones(m + 1, dtype=bool)
                    keep[lone] = False
                    head = head[keep]
                    act, slot = act[keep[:m]], slot[keep[:m]]
            inner = ~head[1:-1]
        d += 1

    return PsaIndex(psa=psa, plcp=plcp, codes=codes)


def _compare_suffix(index: PsaIndex, j: int, pattern_prev: list[int],
                    start: int, stats: QueryStats) -> tuple[int, int]:
    """Compare the encoded suffix starting at 1-based ``j`` with the pattern.

    Symbols before 0-based position ``start`` are assumed equal. Returns
    (rel, lcp): rel is -1 / 0 / +1 for suffix below / pattern-is-prefix /
    suffix above, lcp the number of matching symbols from the beginning.
    """
    codes = index.codes
    n = index.n
    m = len(pattern_prev)
    slen = n - j + 1
    t = start
    while t < m:
        if t >= slen:
            return -1, t  # suffix exhausted first: suffix is smaller
        b = codes[j + t - 1]
        if b < STATIC_BASE and b >= t + 1:
            b = 0
        stats.symbol_comparisons += 1
        p = pattern_prev[t]
        if b != p:
            return (1 if b > p else -1), t
        t += 1
    return 0, m


def _lower_bound_plain(index, pattern_prev, lo, hi, skip, strict, stats):
    """Smallest rank in [lo, hi+1] whose suffix is >= the pattern (prefix
    matches count as equal); ``strict`` asks for strictly greater instead."""
    result = hi + 1
    while lo <= hi:
        mid = (lo + hi) // 2
        stats.psa_probes += 1
        rel, _ = _compare_suffix(index, index.starts[mid - 1], pattern_prev,
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
    cost O(n) per probe.
    """
    first = _lower_bound_plain(index, pattern_prev, lo, hi, skip, False, stats)
    if first > hi:
        return None
    last = _lower_bound_plain(index, pattern_prev, first, hi, skip, True, stats) - 1
    if last < first:
        return None
    return first, last


def _mm_lower_bound(index, pattern_prev, lo, hi, skip, stats):
    """LCP-accelerated lower bound: smallest rank whose suffix compares >=
    the pattern, plus that suffix's relation and LCP.

    Classic two-pointer search: boundary LCPs ``l``/``r`` with the pattern
    are maintained so that a midpoint is either resolved purely from its
    LCP with the nearer-matching boundary (no symbol comparisons) or
    compared starting where the longer boundary match left off.
    """
    starts = index.starts
    rel, l = _compare_suffix(index, starts[lo - 1], pattern_prev, skip, stats)
    stats.psa_probes += 1
    if rel >= 0:
        return lo, rel, l
    if lo == hi:
        return hi + 1, -1, 0
    rel_hi, r = _compare_suffix(index, starts[hi - 1], pattern_prev, skip, stats)
    stats.psa_probes += 1
    if rel_hi < 0:
        return hi + 1, -1, 0
    left, right = lo, hi
    while right - left > 1:
        mid = (left + right) // 2
        stats.psa_probes += 1
        if l >= r:
            h = index.lcp_between(left, mid)
            if h > l:
                left = mid
            elif h < l:
                right, r, rel_hi = mid, h, 1
            else:
                rel, t = _compare_suffix(index, starts[mid - 1],
                                         pattern_prev, l, stats)
                if rel >= 0:
                    right, r, rel_hi = mid, t, rel
                else:
                    left, l = mid, t
        else:
            h = index.lcp_between(mid, right)
            if h > r:
                right = mid  # same relation as the right boundary
            elif h < r:
                left, l = mid, h
            else:
                rel, t = _compare_suffix(index, starts[mid - 1],
                                         pattern_prev, r, stats)
                if rel >= 0:
                    right, r, rel_hi = mid, t, rel
                else:
                    left, l = mid, t
    return right, rel_hi, r


def range_search(index: PsaIndex, pattern_prev: list[int],
                 lo: int, hi: int, skip: int,
                 stats: QueryStats | None = None) -> tuple[int, int] | None:
    """Maximal subrange of [lo, hi] whose suffixes extend the pattern.

    Ranks are 1-based inclusive. The caller guarantees every suffix in the
    range already agrees with the pattern on its first ``skip`` symbols.
    Returns (first, last) ranks or None.

    The left edge is an LCP-accelerated lower bound: each probe resolves
    from the LCP of two ranks, or compares symbols from where the longer
    boundary match left off, so a search makes O(m + log(hi - lo)) symbol
    comparisons. The LCP of two ranks is a min over the LCP slice between
    them; the slices halve with the search interval, so they sum to about
    one range length per search. The right edge scans forward while the
    adjacent LCP reaches m, O(occurrences in the range). The tray's ranges
    are shorter than ``(sigma + pi + 1) * max(sigma, pi)``, so no step
    depends on n.
    """
    if stats is None:
        stats = QueryStats()
    if not (1 <= lo and hi <= index.n):
        raise ValueError(f"range [{lo},{hi}] out of bounds")
    if lo > hi:
        return None
    if STRICT_CHECKS:
        probe = QueryStats()
        for rk in range(lo, hi + 1):
            _, got = _compare_suffix(index, index.starts[rk - 1],
                                     pattern_prev, 0, probe)
            if got < min(skip, len(pattern_prev)):
                raise ValidationError(
                    f"skip precondition violated at rank {rk}: lcp {got} < {skip}")
    stats.max_range_searched = max(stats.max_range_searched, hi - lo + 1)
    m = len(pattern_prev)
    if skip >= m:
        return lo, hi
    first, rel, _ = _mm_lower_bound(index, pattern_prev, lo, hi, skip, stats)
    if first > hi or rel != 0:
        return None
    # Matches are contiguous, and the rank after a match matches iff its LCP
    # with it reaches m, so the right edge needs no symbol comparisons.
    lcps = index.lcps
    last = first
    while last < hi and lcps[last] >= m:
        last += 1
    return first, last


def report(index: PsaIndex, match_range: tuple[int, int] | None) -> list[int]:
    """Suffix start positions of a match range, in suffix-array order: a
    new list, one slice of ``starts``."""
    if match_range is None:
        return []
    j, k = match_range
    return index.starts[j - 1:k]


def _window_symbols(codes: np.ndarray, starts: np.ndarray, d) -> np.ndarray:
    """Symbol ``d`` (a scalar or one depth per start) of the suffixes at
    0-based ``starts``: a distance reaching past the window start reads 0."""
    sym = codes[starts + (d - 1)]
    sym[(sym >= d) & (sym < STATIC_BASE)] = 0
    return sym


def validate_psa(index: PsaIndex, text: PText, full: bool = True) -> None:
    """Check the permutation, sortedness and LCP invariants; raise
    ValidationError naming the lowest failing rank of the first failed check.

    The O(n) part checks that psa is a permutation of 1..n, that every
    plcp is at least 0 and below both suffix lengths, and that each
    adjacent pair is in order at depth plcp + 1. The full check adds the
    common prefixes: it compares every adjacent suffix pair up to its
    recorded LCP, in numpy rounds of one depth over all pairs that reach
    it, so max LCP rounds and O(n + sum of LCPs) element work.
    ``full=False`` keeps only the O(n) part.
    """
    n = text.n
    psa = index.psa
    if len(psa) != n or len(index.plcp) != n:
        raise ValidationError("index arrays do not match text length")
    if n == 0:
        return
    # n entries in 1..n form a permutation iff they hit n distinct values.
    if (psa.min() < 1 or psa.max() > n
            or np.count_nonzero(np.bincount(psa, minlength=n + 1)) != n):
        raise ValidationError("psa is not a permutation of 1..n")
    if index.plcp[0] != 0:
        raise ValidationError("plcp[0] must be 0")

    def fail(bad: np.ndarray, message: str) -> None:
        hits = bad.nonzero()[0]
        if len(hits):
            r = int(hits[0]) + 1
            raise ValidationError(message.format(r=r, q=r - 1))

    codes = np.asarray(index.codes, dtype=np.int64)
    # Pair r - 1 holds ranks r - 1 and r; a, b are their 0-based starts and
    # la, lb their lengths.
    a = psa[:-1] - 1
    b = psa[1:] - 1
    h = index.plcp[1:]
    la, lb = n - a, n - b
    fail((h < 0) | (h > np.minimum(la, lb)),
         "plcp[{r}] is negative or exceeds suffix length")
    d = h + 1
    fail(d > la, "suffix at rank {r} is a prefix of its successor")
    fail(d > lb, "ranks {q},{r} out of order (exhaustion)")
    fail(_window_symbols(codes, a, d) >= _window_symbols(codes, b, d),
         "ranks {q},{r} out of order or plcp short")
    if not full:
        return
    # Depth d compares the pairs with h >= d; sorted by h descending, they
    # are a prefix of the pairs.
    order = np.argsort(-h, kind="stable")
    sa, sb = a[order], b[order]
    top = int(h.max(initial=0))
    reach = len(h) - np.searchsorted(np.sort(h), np.arange(1, top + 1))
    for d, k in enumerate(reach.tolist(), start=1):
        differ = (_window_symbols(codes, sa[:k], d)
                  != _window_symbols(codes, sb[:k], d))
        if differ.any():
            r = int(order[:k][differ].min()) + 1
            raise ValidationError(f"plcp[{r}] overstates common prefix")
