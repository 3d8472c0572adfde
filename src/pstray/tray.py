"""Hybrid tree/array index: heavy nodes dispatch in O(1), light subtrees
fall through to a bounded binary search on the suffix array.

This is the suffix tray of Cole, Kopelowitz & Lewenstein (ICALP 2006),
adapted to parameterized matching. A node is *heavy* (a "p-node") when its
subtree holds at least ``max(sigma, pi)`` leaves, and *branching* when at
least two of its children are heavy. Branching nodes carry a dispatch
array of length ``sigma + pi`` indexed by the rank of the next
canonically-renamed pattern symbol; other heavy nodes keep only a pointer
to their unique heavy child. ``tree.build_tree`` numbers the p-nodes
first and keeps just those children, so the flags are the tree's layout
and shape; ``tree.tray_shape`` reads them and the children's first edge
symbols, and ``annotate`` builds the dispatch arrays in one numpy pass.
Every range that ever reaches the suffix-array search is smaller than
``(sigma + pi + 1) * max(sigma, pi)``, which keeps the search's
logarithmic term independent of the text length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# query calls range_search and report through this module's globals, and
# bench/tracing.py times them by swapping those names.
from .alphabet import PText, pattern_codes
from .encoding import STATIC_BASE, pfunction_from_fpos
from .errors import ConstructionError, ValidationError
from .suffixes import (PsaIndex, QueryStats, build_psa, compare_suffix,
                       range_search, report, validate_psa)
from .tree import (NO_NODE, TrayTree, build_tree, heavy_threshold,
                   tray_shape, validate_tree)


@dataclass(eq=False)
class TrayAnnotations:
    """Per-node classification and dispatch data, as the Python lists the
    query loop indexes.

    Parallel to the tree's node arrays: ``is_pnode``, ``is_branching`` and
    ``heavy_child`` for every node (``heavy_child`` is -1 when absent).
    Only branching nodes, the ones that dispatch, have a ``parray``, the
    dispatch array (index = rank, value = child id or -1, entry 0 unused),
    kept in a dict keyed by node id. ``annotate`` makes all of them once.
    """

    is_pnode: list[bool]
    is_branching: list[bool]
    heavy_child: list[int]
    parray: dict[int, list[int]]

    def parray_cells(self) -> int:
        return sum(len(arr) - 1 for arr in self.parray.values())


def _first_after(text: PText, starts: np.ndarray) -> np.ndarray:
    """The first 0-based position at or after each of ``starts`` of every
    parameterized symbol, as one table: row j, column x - 1 for symbol x,
    the int64 maximum when x does not occur from ``starts[j]`` on.

    ``by_symbol`` orders the positions by the key ``symbol * (n + 1) +
    position``, so one ``searchsorted`` of the key of every (start,
    symbol) pair finds each first occurrence; it is a hit when it lies
    before the end of that symbol's run, ``symbol_cuts[x]``.
    """
    n = text.n
    by_symbol = text.by_symbol
    keys = text.symbol_array[by_symbol] * (n + 1) + by_symbol
    k = np.searchsorted(keys, np.arange(1, text.pi + 1) * (n + 1)
                        + starts[:, None])
    none = np.iinfo(np.int64).max
    return np.where(k < text.symbol_cuts[1:],
                    np.append(by_symbol, none)[k], none)


def _canonical_ids(text: PText, reps: np.ndarray,
                   depths: np.ndarray) -> np.ndarray:
    """Canonical renamings of the windows ``T[i:i+depth]`` at ``reps``, as
    one table: row j, column x holds parameterized symbol x's canonical id
    in window j, or 0 when x does not occur there, and column 0 holds the
    row's count of ids.

    Each symbol's first occurrence at or after every window start comes
    from ``_first_after``; those past the window's end are blanked, and
    ranking the rest of each row by position numbers the window's symbols
    in order of first occurrence. The table has one row per window and
    pi + 1 columns.
    """
    starts = np.asarray(reps) - 1  # 0-based, as by_symbol
    ends = starts + np.asarray(depths)  # one past each window
    first = _first_after(text, starts)
    inside = first < ends[:, None]
    table = np.empty((len(starts), text.pi + 1), dtype=np.int64)
    table[:, 0] = inside.sum(axis=1)
    rank = np.argsort(np.argsort(first, axis=1), axis=1) + 1
    table[:, 1:] = np.where(inside, rank, 0)
    return table


def annotate(tree: TrayTree, index: PsaIndex) -> TrayAnnotations:
    """The nodes' flags and the dispatch array of every branching node, in
    one numpy pass over the branching nodes' children (``tray_shape``).

    A branching node's dispatch array comes from the canonical renaming of
    its representative window, its leftmost suffix (every suffix in the
    block shares the node's label, so any would do). ``_canonical_ids``
    computes the renamings of all branching nodes as one table.

    For a node of depth D with representative suffix i, a child whose edge
    starts with distance k > 0 continues the canonical form with the
    canonical id of ``T[i+D-k]`` (the window position the distance points
    at); the distance-0 child is the continuation for every canonical id
    not used inside the window; a static child sits at its own rank.

    The children of all branching nodes are taken at once, each is given
    its first rank and its count of ranks, and every (node, rank) cell is
    written into one table of ``sigma + pi + 1`` columns, one row per
    branching node, after ``bincount`` has checked that no cell is claimed
    twice. The rows become the dispatch lists. Errors name the lowest
    offending node.
    """
    text = index.text
    width = text.sigma + text.pi + 1
    pi = text.pi
    flags, (nodes, depth, reps), (kids, row, sym) = tray_shape(tree, index)
    table = _canonical_ids(text, reps, depth)
    far = (sym == 0).nonzero()[0]  # a symbol not seen inside the window
    near = ((sym > 0) & (sym < STATIC_BASE)).nonzero()[0]
    x = text.symbol_array[reps[row[near]] + depth[row[near]] - sym[near] - 1]
    wrong = (x > pi).nonzero()[0]
    if len(wrong):
        raise ConstructionError(
            f"distance child at node {nodes[row[near[wrong[0]]]]} points at "
            f"static symbol {x[wrong[0]]}")
    # Child c takes spans[c] consecutive ranks from first[c].
    first = sym - STATIC_BASE
    first[near] = table[row[near], x]
    first[far] = table[row[far], 0] + 1
    spans = np.ones(len(kids), dtype=np.int64)
    spans[far] = pi - table[row[far], 0]
    cell = _ranges(row * width + first, spans)
    twice = (np.bincount(cell) > 1).nonzero()[0]
    if len(twice):
        j, k = divmod(int(twice[0]), width)
        raise ConstructionError(
            f"p-array collision at node {nodes[j]}, rank {k}")
    flat = np.full(len(nodes) * width, NO_NODE, dtype=np.int64)
    flat[cell] = np.repeat(kids, spans)
    return TrayAnnotations(*map(np.ndarray.tolist, flags), parray=dict(
        zip(nodes.tolist(), flat.reshape(len(nodes), width).tolist())))


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``first[i] .. first[i] + count[i] - 1``, concatenated."""
    return np.arange(count.sum()) + np.repeat(first - count.cumsum() + count,
                                              count)


@dataclass(eq=False)
class PSTrayIndex:
    """The assembled index: the sorted suffixes, which hold the text
    (``text`` reads it), the tree and its annotations.

    ``query(pattern)`` is ``tray.query(self, pattern)``: a pattern is a
    string or a sequence of string tokens.
    """

    psa_index: PsaIndex
    tree: TrayTree
    ann: TrayAnnotations

    @property
    def text(self) -> PText:
        return self.psa_index.text

    def query(self, pattern) -> tuple[list[int], QueryStats]:
        return query(self, pattern)

    def validate(self) -> None:
        validate_psa(self.psa_index, full=True)
        validate_tree(self.tree, self.psa_index)
        validate_annotations(self.tree, self.ann, self.psa_index)


def build_tray(index: PsaIndex) -> PSTrayIndex:
    """Everything after the suffix sort: ``build_tree``, then ``annotate``.

    The one construction path for the tree and its annotations, from the
    suffix index alone: both ``assemble`` and ``index_io.load`` call it.
    It trusts its index: one not made by ``build_psa`` or ``load`` must
    pass ``validate_psa`` first, or the tray may answer wrongly.
    """
    tree = build_tree(index)
    return PSTrayIndex(psa_index=index, tree=tree, ann=annotate(tree, index))


def assemble(text: PText) -> PSTrayIndex:
    """Sort the suffixes, then build the tree and its annotations."""
    return build_tray(build_psa(text))


def query(idx: PSTrayIndex, pattern) -> tuple[list[int], QueryStats]:
    """All positions of ``idx.text`` whose window matches the pattern up to
    renaming of parameterized symbols, plus instrumentation counters.

    ``pattern`` is a string or a sequence of string tokens, as the text
    was ingested; one pass over it (``pattern_codes``) gives its prev codes
    and canonical ids, and anything else raises QueryError. A pattern that
    cannot occur gets no answer and zero counters.
    Descends the tree through heavy nodes and finishes with a bounded
    suffix-array search as soon as the locus leaves the heavy part. A
    branching node dispatches in O(1) on the next canonical id (a static's
    is its rank), which matches the first symbol of the child's edge; a
    non-branching one offers only its heavy child. Either way the rest of
    the edge, up to the pattern's end, is compared on the child's leftmost
    suffix by ``compare_suffix``, the loop the binary search runs too; the
    call is skipped when the dispatch has already read all of it. At a heavy
    child a mismatch on the edge's first symbol leaves the leaf block left
    or right of the child, by the sign of the comparison, for the search.
    The match range is reported as one slice of the suffix starts, sorted
    ascending.
    """
    stats = QueryStats()
    index = idx.psa_index
    codes = pattern_codes(index.text, pattern)
    if codes is None:
        return [], stats
    pattern_prev, pattern_canon = codes
    m = len(pattern_prev)
    tree = idx.tree
    ann = idx.ann
    depth, lo, hi = tree.depth, tree.lo, tree.hi
    starts = index.starts
    rng = None
    node = 0  # the root
    matched = 0  # the depth of node
    while True:
        stats.nodes_visited += 1
        if ann.is_branching[node]:
            stats.parray_lookups += 1
            child = ann.parray[node][pattern_canon[matched]]
            if child == NO_NODE:
                break
            if not ann.is_pnode[child]:
                rng = range_search(index, pattern_prev, lo[child], hi[child],
                                   matched + 1, stats)
                break
            start = matched + 1  # the dispatch matched the edge's first symbol
        else:
            child = ann.heavy_child[node]
            if child == NO_NODE:
                rng = range_search(index, pattern_prev, lo[node], hi[node],
                                   matched, stats)
                break
            start = matched
        stop = min(m, depth[child])
        if start < stop:  # else the dispatch read all the pattern reaches
            rel, t = compare_suffix(index, starts[lo[child] - 1],
                                    pattern_prev, start, stats, stop)
            if rel:
                if t == matched:  # off the heavy child's edge at once
                    if rel > 0:
                        first, last = lo[node], lo[child] - 1
                    else:
                        first, last = hi[child] + 1, hi[node]
                    if first <= last:
                        rng = range_search(index, pattern_prev, first, last,
                                           matched, stats)
                break
        if m <= depth[child]:
            rng = (lo[child], hi[child])
            break
        node = child
        matched = depth[child]
    occ = report(index, rng)
    occ.sort()
    return occ, stats


def validate_annotations(tree: TrayTree, ann: TrayAnnotations,
                         index: PsaIndex) -> None:
    """Check classification flags, the counting bounds on branching nodes
    and dispatch cells, and that every dispatch array agrees with its node.

    The flags, children and first edge symbols come from ``tray_shape``,
    as ``annotate`` reads them; ``validate_tree`` proves the flags.
    Dispatch agreement is recomputed from the definition at each branching
    node, trusting none of the stored annotations: the canonical renaming
    of the representative window (the leftmost leaf's) comes from the f-array
    of its suffix through ``pfunction_from_fpos``; then each child sits at
    the rank its first edge symbol selects (a static at its own rank,
    distance k at the canonical id of ``T[rep+depth-k]``, distance 0 at
    every canonical id the window leaves unused), every child appears and
    every other cell is empty.
    """
    text = index.text
    n, size = text.n, tree.size
    if not (len(ann.is_pnode) == len(ann.is_branching)
            == len(ann.heavy_child) == size):
        raise ValidationError("annotations do not match the tree's size")
    flags, (nodes, depths, reps), (kids, rows, syms) = tray_shape(tree, index)
    for name, got, want in zip(
            ("p-node flag", "branching flag", "heavy child"),
            (ann.is_pnode, ann.is_branching, ann.heavy_child), flags):
        wrong = (np.asarray(got) != want).nonzero()[0]
        if len(wrong):
            raise ValidationError(f"{name} wrong at node {wrong[0]}")
    if len(nodes) > n // heavy_threshold(text):
        raise ValidationError("branching node count exceeds n/max(sigma,pi)")
    if sorted(ann.parray) != nodes.tolist():
        raise ValidationError("dispatch arrays are not those of the "
                              "branching nodes")
    if ann.parray_cells() > 2 * n:
        raise ValidationError("p-array cells exceed 2n")
    # f-arrays of the representative suffixes: symbol x's first offset in
    # the suffix at rep, 1-based, or 0 when it does not occur there.
    first = _first_after(text, reps - 1)
    farr = np.where(first < n, first - reps[:, None] + 2, 0)
    cuts = np.searchsorted(rows, np.arange(len(nodes) + 1)).tolist()
    kids, syms = kids.tolist(), syms.tolist()
    width = text.sigma + text.pi + 1
    for v, depth, rep, row, begin, end in zip(
            nodes.tolist(), depths.tolist(), reps.tolist(), farr.tolist(),
            cuts, cuts[1:]):
        arr = ann.parray[v]
        if len(arr) != width:
            raise ValidationError(f"p-array mis-sized at {v}")
        canon = pfunction_from_fpos(depth, row)
        want = [NO_NODE] * width
        for u, sym in zip(kids[begin:end], syms[begin:end]):
            if sym >= STATIC_BASE:
                ranks = [sym - STATIC_BASE]
            elif sym > 0:
                ranks = [canon.get(text.symbol_array[rep + depth - sym - 1])]
            else:
                ranks = list(range(len(canon) + 1, text.pi + 1))
            if not ranks or None in ranks:
                raise ValidationError(
                    f"child {u} of {v} has no dispatch rank")
            for k in ranks:
                if want[k] != NO_NODE:
                    raise ValidationError(f"children of {v} share rank {k}")
                want[k] = u
        for k in range(1, width):
            if arr[k] != want[k]:
                raise ValidationError(
                    f"p-array at {v}, rank {k} holds {arr[k]}, its rank "
                    f"selects {want[k]}")
