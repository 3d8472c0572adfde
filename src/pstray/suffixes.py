"""Sorted array of prev-encoded suffixes, adjacent-LCP array, range search.

Suffix comparisons never materialize an encoded suffix: symbol ``d`` of the
suffix starting at ``j`` is derived in O(1) from the whole-text prev codes
(see ``encoding.prev_char_in_window``). The sort is a level-synchronous
MSD bucketing over suffix start indices: each numpy round advances every
unsorted group by one symbol at once, so the sort takes max LCP + 1 rounds
and O(n + sum of LCPs) element work. The LCP of two neighbouring suffixes
is exactly the depth at which their group split, so the LCP array falls
out of the sort for free.
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


class SparseTable:
    """Static range-minimum over an int array; O(n log n) build, O(1) query."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.int64)
        self._levels = [data]
        size = 1
        while 2 * size <= len(data):
            prev_level = self._levels[-1]
            self._levels.append(np.minimum(prev_level[:-size], prev_level[size:]))
            size *= 2

    def min(self, lo: int, hi: int) -> int:
        """Minimum of data[lo:hi] (0-based, half-open); requires lo < hi."""
        k = (hi - lo).bit_length() - 1
        level = self._levels[k]
        return int(min(level[lo], level[hi - (1 << k)]))


@dataclass(eq=False)
class PsaIndex:
    """Parameterized suffix array plus adjacent-LCP array and optional RMQ.

    ``psa`` holds 1-based suffix start positions in encoded-suffix order;
    ``plcp[r]`` (0-based r) is the longest common prefix of ranks r and r-1
    (0 at r=0). ``codes`` is a plain-list copy of the text's prev codes for
    fast scalar access in comparison loops.
    """

    psa: np.ndarray
    plcp: np.ndarray
    codes: list[int]
    rmq: SparseTable | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.psa)

    def suffix_at(self, r: int) -> int:
        """1-based suffix start of 1-based rank ``r``."""
        return int(self.psa[r - 1])

    def lcp_between(self, a: int, b: int) -> int:
        """LCP of the suffixes at 1-based ranks a < b via the RMQ table."""
        return self.rmq.min(a, b)


def build_psa(text: PText, with_rmq: bool = True) -> PsaIndex:
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

    rmq = SparseTable(plcp) if with_rmq else None
    return PsaIndex(psa=psa, plcp=plcp, codes=codes, rmq=rmq)


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
        rel, _ = _compare_suffix(index, index.suffix_at(mid), pattern_prev,
                                 skip, stats)
        if rel > 0 or (not strict and rel == 0):
            result = mid
            hi = mid - 1
        else:
            lo = mid + 1
    return result


def _search_plain(index, pattern_prev, lo, hi, skip, stats):
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
    are maintained so that a midpoint is either resolved purely from the
    precomputed suffix-suffix LCP (no symbol comparisons) or compared
    starting where the longer boundary match left off.
    """
    rel, l = _compare_suffix(index, index.suffix_at(lo), pattern_prev, skip, stats)
    stats.psa_probes += 1
    if rel >= 0:
        return lo, rel, l
    if lo == hi:
        return hi + 1, -1, 0
    rel_hi, r = _compare_suffix(index, index.suffix_at(hi), pattern_prev, skip, stats)
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
                rel, t = _compare_suffix(index, index.suffix_at(mid),
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
                rel, t = _compare_suffix(index, index.suffix_at(mid),
                                         pattern_prev, r, stats)
                if rel >= 0:
                    right, r, rel_hi = mid, t, rel
                else:
                    left, l = mid, t
    return right, rel_hi, r


def _search_accelerated(index, pattern_prev, lo, hi, skip, stats):
    m = len(pattern_prev)
    first, rel, _ = _mm_lower_bound(index, pattern_prev, lo, hi, skip, stats)
    if first > hi or rel != 0:
        return None
    # Every later rank matches iff its LCP with rank `first` reaches m;
    # matches are contiguous, so the right edge needs no symbol comparisons.
    left, right = first, hi
    while left < right:
        mid = (left + right + 1) // 2
        stats.psa_probes += 1
        if index.lcp_between(first, mid) >= m:
            left = mid
        else:
            right = mid - 1
    return first, left


def range_search(index: PsaIndex, text: PText, pattern_prev: list[int],
                 lo: int, hi: int, skip: int,
                 stats: QueryStats | None = None,
                 variant: str = "auto") -> tuple[int, int] | None:
    """Maximal subrange of [lo, hi] whose suffixes extend the pattern.

    Ranks are 1-based inclusive. The caller guarantees every suffix in the
    range already agrees with the pattern on its first ``skip`` symbols.
    Returns (first, last) ranks or None. The accelerated variant uses the
    LCP array and RMQ to avoid re-comparing matched prefixes; both variants
    return identical ranges.
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
            _, got = _compare_suffix(index, index.suffix_at(rk), pattern_prev,
                                     0, probe)
            if got < min(skip, len(pattern_prev)):
                raise ValidationError(
                    f"skip precondition violated at rank {rk}: lcp {got} < {skip}")
    stats.max_range_searched = max(stats.max_range_searched, hi - lo + 1)
    if skip >= len(pattern_prev):
        return lo, hi
    if variant == "auto":
        variant = "accelerated" if index.rmq is not None else "plain"
    if variant == "accelerated":
        if index.rmq is None:
            raise ValueError("accelerated search requires the RMQ table")
        return _search_accelerated(index, pattern_prev, lo, hi, skip, stats)
    if variant == "plain":
        return _search_plain(index, pattern_prev, lo, hi, skip, stats)
    raise ValueError(f"unknown variant {variant!r}")


def report(index: PsaIndex, match_range: tuple[int, int] | None) -> list[int]:
    """Suffix start positions of a match range, in suffix-array order."""
    if match_range is None:
        return []
    j, k = match_range
    return [int(p) for p in index.psa[j - 1:k]]


def validate_psa(index: PsaIndex, text: PText, full: bool = True) -> None:
    """Check the permutation, sortedness and LCP invariants; raise
    ValidationError on the first failure.

    The full check walks every adjacent suffix pair to the recorded LCP and
    one symbol beyond (O(n + sum of LCPs)); ``full=False`` keeps only the
    O(n) permutation/shape checks.
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
    if not full:
        return
    codes = index.codes
    for r in range(1, n):
        a = int(psa[r - 1])
        b = int(psa[r])
        h = int(index.plcp[r])
        la, lb = n - a + 1, n - b + 1
        if h > min(la, lb):
            raise ValidationError(f"plcp[{r}] exceeds suffix length")
        for d in range(1, h + 1):
            ca = codes[a + d - 2]
            if ca < STATIC_BASE and ca >= d:
                ca = 0
            cb = codes[b + d - 2]
            if cb < STATIC_BASE and cb >= d:
                cb = 0
            if ca != cb:
                raise ValidationError(f"plcp[{r}] overstates common prefix")
        d = h + 1
        if d > la:
            raise ValidationError(f"suffix at rank {r} is a prefix of its successor")
        ca = codes[a + d - 2]
        if ca < STATIC_BASE and ca >= d:
            ca = 0
        if d > lb:
            raise ValidationError(f"ranks {r-1},{r} out of order (exhaustion)")
        cb = codes[b + d - 2]
        if cb < STATIC_BASE and cb >= d:
            cb = 0
        if ca >= cb:
            raise ValidationError(f"ranks {r-1},{r} out of order or plcp short")
