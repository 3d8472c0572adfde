"""Sorted array of prev-encoded suffixes, adjacent-LCP array, range search.

Suffix comparisons never materialize an encoded suffix: symbol ``d`` of the
suffix starting at ``j`` is derived in O(1) from the whole-text prev codes,
a distance reaching past ``j`` reading 0. ``compare_suffix``, the query's
scalar loop, reads symbols that way one at a time, and ``_window_symbols``
reads them for whole arrays of suffixes. The sort is a level-synchronous
MSD bucketing over suffix start indices: each numpy round packs the next k
symbols of every unsorted suffix, as many as fit, under its group's rank
into one int64 key and orders every group with one argsort. The LCP of
two neighbouring suffixes is the depth at which their group split plus
the leading symbols their keys share. Past a suffix's last window
correction its window reads the global prev codes, so a group whose
members are all past theirs is finished at once from the ordinary suffix
order of the prev-code string (I et al., IWOCA 2009), with LCPs from an
ordinary LCE. Runs, periodic text and exact renamed clones then take a
few rounds instead of max LCP / k. What still costs about max LCP / k
rounds and O(n + sum of LCPs) element work is a text whose suffixes all
keep a late correction, such as ``y x^n y``.

The index holds its text and O(n) words: the suffix array, the LCP array
and plain list copies of both. The search loops read those lists and the
text's prev-code list, never a numpy scalar. There is one search path, an
LCP-accelerated binary search (Manber & Myers). The LCP of two ranks is a
min over the LCP slice between them, which is cheap because the tray only
hands it ranges shorter than ``(sigma + pi + 1) * max(sigma, pi)``.
Reporting a match range is one slice of the suffix-start list.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .alphabet import PText
from .encoding import STATIC_BASE
from .errors import QueryError, ValidationError

# build_psa checks readiness at the first round start at or past this
# depth, then past each doubling of it. Tests lower it so that groups
# finish early on small texts.
FIRST_CHECK = 32


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
        return asdict(self)


@dataclass(eq=False)
class PsaIndex:
    """A PText, ``text``, with its parameterized suffix array and
    adjacent-LCP array in O(n) words: the one object later stages take.

    ``psa`` holds 1-based suffix start positions in encoded-suffix order;
    ``plcp[r]`` (0-based r) is the longest common prefix of ranks r and r-1
    (0 at r=0). ``starts`` and ``lcps`` (copies of ``psa`` and ``plcp``)
    and the text's ``prev_codes`` are plain lists for fast scalar access
    and slicing in the search loops: the suffix of 1-based rank ``r``
    starts at ``starts[r - 1]``. ``starts`` is the index's one
    rank-to-start list; the tree reaches its nodes' suffixes through it.
    Raises ValidationError, before copying, unless ``psa`` and ``plcp``
    are int64 arrays of shape (n,); ``validate_psa`` checks their words.
    The constructor freezes both arrays, so the copies cannot go stale.
    """

    text: PText = field(repr=False)
    psa: np.ndarray
    plcp: np.ndarray
    starts: list[int] = field(init=False, repr=False)
    lcps: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        if not all(isinstance(words, np.ndarray) and words.dtype == np.int64
                   and words.shape == (self.n,)
                   for words in (self.psa, self.plcp)):
            raise ValidationError(f"psa and plcp are not int64 arrays of "
                                  f"shape ({self.n},)")
        self.starts = self.psa.tolist()
        self.lcps = self.plcp.tolist()
        self.psa.flags.writeable = self.plcp.flags.writeable = False

    @property
    def n(self) -> int:
        return self.text.n


def _last_corrections(code: np.ndarray) -> np.ndarray:
    """g[i]: the last 1-based offset at which the window of the suffix at
    0-based ``i`` reads 0 where the global code is a positive distance (a
    window correction), or 0 if it has none. ``code`` holds distances below
    ``len(code)`` and statics above them.

    A distance x at position p corrects the starts p - x + 1 .. p. The left
    ends p - x + 1 (one past the symbol's previous occurrence) are distinct,
    so a running maximum over them gives each start its rightmost
    correcting position in O(n).
    """
    n = len(code)
    at = ((code > 0) & (code < n)).nonzero()[0]
    right = np.full(n, -1, dtype=np.int64)
    right[at - code[at] + 1] = at
    np.maximum.accumulate(right, out=right)
    start = np.arange(n, dtype=np.int64)
    return np.where(right >= start, right - start + 1, 0)


def _rank_levels(code: np.ndarray) -> list[np.ndarray]:
    """Prefix-doubling ranks of the code string (Manber & Myers): level k
    ranks the 2**k symbols from each position, a window cut short by the
    end ranking below the full windows it prefixes. The last level is the
    ordinary suffix rank: all distinct, since the sentinel is the unique
    maximum. O(n log n) words, held only while ``build_psa`` runs.
    """
    n = len(code)
    rank = np.unique(code, return_inverse=True)[1]
    levels = [rank]
    h = 1
    while rank.max() < n - 1:
        nxt = np.zeros(n, dtype=np.int64)
        nxt[:n - h] = rank[h:] + 1
        rank = np.unique(rank * (n + 1) + nxt, return_inverse=True)[1]
        levels.append(rank)
        h *= 2
    return levels


def _lce(levels: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of the code suffixes at 0-based ``a`` and
    ``b`` (arrays, ``a != b`` pairwise), by binary lifting over the rank
    levels from the top down. Equal level-k ranks at distinct positions
    mean two full, equal windows, so a lifted position stays below n.
    """
    a, b = a.copy(), b.copy()
    out = np.zeros(len(a), dtype=np.int64)
    for k in range(len(levels) - 2, -1, -1):
        step = (levels[k][a] == levels[k][b]) * (1 << k)
        a += step
        b += step
        out += step
    return out


def build_psa(text: PText) -> PsaIndex:
    """Sort all suffix start positions by their prev-encoded suffixes.

    Level-synchronous MSD sort: before a round at depth ``d``, every suffix
    not yet alone in its group sits in one array, groups contiguous in rank
    order, each group agreeing on its first d-1 encoded symbols. The round
    reads symbols d..d+k-1 of all of them, one gather per depth, and packs
    them as k fields of b bits below the group rank into one int64 key;
    one argsort of the keys orders every group at once. Suffixes with equal
    keys share k more symbols and stay grouped, so the sort needs no
    stability. A new boundary inside a group records the LCP d - 1 plus
    the number of leading fields its two keys share, read from their XOR,
    and a suffix left alone in its group takes its final rank and leaves.

    A field holds a distance as itself and the static of rank s (0-based,
    the sentinel last) as s - sigma masked to b bits, so every static sits
    above every distance the field can show. b is the bit length of
    d + k - 1 + sigma and k the most fields that fit beside the group
    rank: both follow from the round, none is a parameter. A suffix read
    past its end reads 0; by then its sentinel has already set it apart.

    At the first round start at or past depth ``FIRST_CHECK``, twice that,
    and so on, one ``reduceat`` finds the groups whose members all have
    their last window correction (``_last_corrections``) within the d-1
    symbols they share. From there on such a group reads the global codes,
    so one argsort by (group, ordinary rank of position i + d - 1) finishes
    it, and its adjacent LCPs are d - 1 plus an ordinary LCE
    (``_rank_levels``, ``_lce``). The rank levels take O(n log n) time and
    words, built at the first ready group and dropped on return. Texts with
    no late corrections, such as runs, periodic text and exact renamed
    clones, finish within a few checks; random text ends before the first.
    A text whose suffixes keep a late correction, such as ``y x^n y``,
    still takes about max LCP / k rounds and O(n + sum of LCPs) element
    work. Deterministic.
    """
    n = text.n
    sigma = text.sigma
    raw = text.code_array
    # Distances are below n; moving the static codes to just above them
    # keeps the order for the readiness check and the ordinary-rank finish.
    code = np.where(raw >= STATIC_BASE, raw - STATIC_BASE + n, raw)
    # sym[p] is the field of text position p at the current depth. A
    # distance reaching past the window start is a first occurrence inside
    # the window, so distance x reads as 0 until depth x + 1, when the
    # positions holding it (by_code[cuts[x]:cuts[x + 1]]) get it back: O(n)
    # updates over the whole sort instead of a pass per depth. Fields are
    # at least 2 bits wide, so a round reads at most 31 symbols, and the
    # padding past the sentinel reads 0.
    sym = np.zeros(n + 31, dtype=np.int64)
    symbols = text.symbol_array
    sym[:n] = np.where(symbols > text.pi, symbols - text.pi - 1 - sigma, 0)
    by_code = np.argsort(code)
    cuts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(code[code < n], minlength=n), out=cuts[1:])

    psa = np.arange(1, n + 1, dtype=np.int64)  # set as suffixes leave
    plcp = np.zeros(n, dtype=np.int64)
    act = np.arange(n, dtype=np.int64)  # 0-based starts of grouped suffixes
    slot = np.arange(n, dtype=np.int64)  # their ranks, ascending
    head = np.zeros(n + 1, dtype=bool)  # group starts, plus an end mark
    head[0] = head[n] = True
    inner = ~head[1:n]  # adjacent pairs within one group
    check = FIRST_CHECK  # depth of the next readiness check
    g = levels = None
    d = 1
    while len(act) > 1:
        if d >= check:
            while check <= d:
                check *= 2
            if g is None:
                g = _last_corrections(code)
            m = len(act)
            ready = np.maximum.reduceat(g[act], head[:m].nonzero()[0]) < d
            if ready.any():
                if levels is None:
                    levels = _rank_levels(code)
                # Past its last correction a suffix reads the global codes,
                # so a ready group is in the ordinary order of the code
                # suffixes at i + d - 1. Those ranks are distinct, so the
                # (group, rank) key is too and any sort order is the same.
                group = np.cumsum(head[:m]) - 1
                done = ready[group]
                fin, fin_group, fin_slot = act[done], group[done], slot[done]
                fin = fin[np.argsort(fin_group * n + levels[-1][fin + d - 1])]
                psa[fin_slot] = fin + 1
                pair = (fin_group[1:] == fin_group[:-1]).nonzero()[0]
                plcp[fin_slot[pair + 1]] = d - 1 + _lce(
                    levels, fin[pair] + d - 1, fin[pair + 1] + d - 1)
                act, slot = act[~done], slot[~done]
                head = head[np.append(~done, True)]
                inner = ~head[1:-1]
                if not len(act):
                    break
        m = len(act)
        key = np.cumsum(head[:m]) - 1  # the group rank, fields go below it
        free = 63 - int(key[-1]).bit_length()
        k = 1
        while (k + 1) * (d + k + sigma).bit_length() <= free:
            k += 1
        b = (d + k - 1 + sigma).bit_length()
        mask = (1 << b) - 1
        pos = act + (d - 1)  # text positions of the fields, shifted per field
        field = np.empty(m, dtype=np.int64)
        for x in range(d - 1, d + k - 1):
            if x < n:  # distance x becomes readable at depth x + 1
                sym[by_code[cuts[x]:cuts[x + 1]]] = x
            np.take(sym, pos, out=field)
            field &= mask
            key <<= b
            key |= field
            pos += 1
        order = np.argsort(key)
        act = act[order]
        key = key[order]
        cut = key[1:] != key[:-1]
        cut &= inner
        change = cut.nonzero()[0]
        if len(change):
            # Two keys of one group share their first k - j fields iff
            # their XOR is below 2**(j*b): count the bounds it stays under.
            bounds = np.left_shift(1, b * np.arange(1, k, dtype=np.int64))
            same = (k - 1) - np.searchsorted(
                bounds, key[change] ^ key[change + 1], side="right")
            change += 1
            plcp[slot[change]] = d - 1 + same
            head[change] = True
            lone = (head[:-1] & head[1:]).nonzero()[0]
            if len(lone):
                psa[slot[lone]] = act[lone] + 1
                keep = np.ones(m + 1, dtype=bool)
                keep[lone] = False
                head = head[keep]
                act, slot = act[keep[:m]], slot[keep[:m]]
            inner = ~head[1:-1]
        d += k

    return PsaIndex(text=text, psa=psa, plcp=plcp)


def compare_suffix(index: PsaIndex, j: int, pattern_prev: list[int],
                   start: int, stats: QueryStats,
                   stop: int | None = None) -> tuple[int, int]:
    """Compare the encoded suffix starting at 1-based ``j`` with the pattern
    over the 0-based offsets ``start`` to ``stop`` (default: the pattern's
    end); symbols before ``start`` are assumed equal.

    Returns (rel, t): rel is -1 / 0 / +1 for suffix below / equal up to
    ``stop`` / suffix above, and t the offset of the first mismatch, or of
    the suffix's end when it runs out first (rel -1), or ``stop``. Symbol
    ``t + 1`` of the suffix is read from the prev codes with the window
    adjustment inlined: a distance reaching past the suffix's start reads
    0. Each symbol read counts one ``symbol_comparisons``. The package's
    one loop comparing suffix symbols with a pattern: the tree descent and
    the binary searches both call it.
    """
    codes = index.text.prev_codes
    slen = len(codes) - j + 1
    if stop is None:
        stop = len(pattern_prev)
    t = start
    while t < stop:
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
    return 0, stop


def _mm_lower_bound(index, pattern_prev, lo, hi, skip, stats):
    """LCP-accelerated lower bound: smallest rank whose suffix compares >=
    the pattern, plus that suffix's relation and LCP.

    Classic two-pointer search: boundary LCPs ``l``/``r`` with the pattern
    are maintained so that a midpoint is either resolved purely from its
    LCP with the nearer-matching boundary (no symbol comparisons) or
    compared starting where the longer boundary match left off. The LCP
    of ranks a < b is the least adjacent LCP ``min(lcps[a:b])``.
    """
    starts = index.starts
    lcps = index.lcps
    rel, l = compare_suffix(index, starts[lo - 1], pattern_prev, skip, stats)
    stats.psa_probes += 1
    if rel >= 0:
        return lo, rel, l
    if lo == hi:
        return hi + 1, -1, 0
    rel_hi, r = compare_suffix(index, starts[hi - 1], pattern_prev, skip, stats)
    stats.psa_probes += 1
    if rel_hi < 0:
        return hi + 1, -1, 0
    left, right = lo, hi
    while right - left > 1:
        mid = (left + right) // 2
        stats.psa_probes += 1
        if l >= r:
            h = min(lcps[left:mid])
            if h > l:
                left = mid
            elif h < l:
                right, r, rel_hi = mid, h, 1
            else:
                rel, t = compare_suffix(index, starts[mid - 1],
                                        pattern_prev, l, stats)
                if rel >= 0:
                    right, r, rel_hi = mid, t, rel
                else:
                    left, l = mid, t
        else:
            h = min(lcps[mid:right])
            if h > r:
                right = mid  # same relation as the right boundary
            elif h < r:
                left, l = mid, h
            else:
                rel, t = compare_suffix(index, starts[mid - 1],
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
    range already agrees with the pattern on its first ``skip`` symbols;
    nothing here re-checks it. Returns (first, last) ranks or None, and
    raises QueryError for a range reaching outside 1..n.

    The left edge is an LCP-accelerated lower bound: each probe resolves
    from the LCP of two ranks, or compares symbols (``compare_suffix``, the
    loop the tree descent uses too) from where the longer boundary match
    left off, so a search makes O(m + log(hi - lo)) symbol comparisons.
    The LCP of two ranks is a min over the LCP slice between
    them; the slices halve with the search interval, so they sum to about
    one range length per search. The right edge scans forward while the
    adjacent LCP reaches m, O(occurrences in the range). The tray's ranges
    are shorter than ``(sigma + pi + 1) * max(sigma, pi)``, so no step
    depends on n.
    """
    if stats is None:
        stats = QueryStats()
    if not (1 <= lo and hi <= index.n):
        raise QueryError(f"range [{lo},{hi}] out of bounds")
    if lo > hi:
        return None
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
    new list, one slice of ``starts``. Raises QueryError for a range
    reaching outside 1..n."""
    if match_range is None:
        return []
    j, k = match_range
    if not (1 <= j and k <= index.n):
        raise QueryError(f"range [{j},{k}] out of bounds")
    return index.starts[j - 1:k]


def _window_symbols(codes: np.ndarray, starts: np.ndarray, d) -> np.ndarray:
    """Symbol ``d`` (a scalar or one depth per start) of the suffixes at
    0-based ``starts``: a distance reaching past the window start reads 0."""
    sym = codes[starts + (d - 1)]
    sym[(sym >= d) & (sym < STATIC_BASE)] = 0
    return sym


def _range_min(values: np.ndarray, lo, hi) -> np.ndarray:
    """``min(values[lo[i]:hi[i] + 1])`` for each i (lo <= hi), from the
    minima of 2**k consecutive values, built one level at a time:
    O((n + queries) log n) time, two levels held."""
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2) of each length
    out = np.empty(len(lo), dtype=values.dtype)
    mins = values
    for k in range(int(level.max(initial=-1)) + 1):
        if k:
            mins = np.minimum(mins[:-(1 << k - 1)], mins[1 << k - 1:])
        at = (level == k).nonzero()[0]
        out[at] = np.minimum(mins[lo[at]], mins[hi[at] - (1 << k) + 1])
    return out


def validate_psa(index: PsaIndex, full: bool = True) -> None:
    """Check the permutation, sortedness and LCP invariants against the
    index's text; raise ValidationError naming the lowest failing rank of
    the first failed check.

    The O(n) part checks that psa is a permutation of 1..n, that every
    plcp is at least 0 and below both suffix lengths, and that each
    adjacent pair is in order at depth plcp + 1. The full check adds the
    common prefixes by induction on depth: suffixes a and b agree on
    h >= 1 symbols iff their first symbols agree, so do the offsets below
    h at which those recur (suffix a reads t there, a + 1 reads 0), and
    a + 1 and b + 1 agree on h - 1, which holds if no claimed LCP between
    their ranks is below h - 1. So every claim is a true common prefix,
    which the O(n) part makes exact: O(n log n) time, whatever the LCPs.
    ``full=False`` keeps only the O(n) part.
    """
    n = index.n
    psa = index.psa
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

    codes = index.text.code_array
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
    # lead[p]: the static code at p, or minus the offset at which the
    # parameterized symbol at p next recurs (-n if never); capped at -h it
    # decides the first symbols and their recurrences. With h >= 1 both
    # suffixes are two symbols or longer, so a + 1 and b + 1 are starts.
    lead = np.where(codes < STATIC_BASE, -n, codes)
    at = ((codes > 0) & (codes < STATIC_BASE)).nonzero()[0]
    lead[at - codes[at]] = -codes[at]
    bad = (h >= 1) & (np.maximum(lead[a], -h) != np.maximum(lead[b], -h))
    rank = np.empty(n, dtype=np.int64)
    rank[psa - 1] = np.arange(n)
    deep = (h >= 2).nonzero()[0]
    ra, rb = rank[a[deep] + 1], rank[b[deep] + 1]
    bad[deep] |= _range_min(index.plcp, np.minimum(ra, rb) + 1,
                            np.maximum(ra, rb)) < h[deep] - 1
    fail(bad, "plcp[{r}] overstates common prefix")
