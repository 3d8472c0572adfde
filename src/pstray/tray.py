"""Hybrid tree/array index: heavy nodes dispatch in O(1), light subtrees
fall through to a bounded binary search on the suffix array.

This is the suffix tray of Cole, Kopelowitz & Lewenstein (ICALP 2006),
adapted to parameterized matching. A node is *heavy* (a "p-node") when its
subtree holds at least ``max(sigma, pi)`` leaves; ``tree.build_tree``
keeps only the heavy nodes and their children, and a light child is no
more than a block of suffix-array ranks. A heavy node is *branching*
when at least two of its children are heavy. Branching nodes carry a
dispatch array of length ``sigma + pi`` indexed by the rank of the next
canonically-renamed pattern symbol; non-branching heavy nodes keep only a
pointer to their unique heavy child. ``annotate`` derives all of it in
one numpy pass over the tree's CSR children. Every range that ever reaches
the suffix-array search is smaller than
``(sigma + pi + 1) * max(sigma, pi)``, which keeps the search's
logarithmic term independent of the text length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# query calls range_search and report through this module's globals, and
# bench/tracing.py times them by swapping those names.
from .alphabet import PText, pattern_codes
from .encoding import STATIC_BASE, pfunction_from_fpos, prev_char_in_window
from .errors import ConstructionError, ValidationError
from .suffixes import (PsaIndex, QueryStats, _window_symbols, build_psa,
                       compare_suffix, range_search, report, validate_psa)
from .tree import TrayTree, build_tree, validate_tree

__all__ = [
    "TrayAnnotations", "QueryStats", "PSTrayIndex", "annotate", "build_tray",
    "assemble", "query", "validate_annotations",
]

NO_NODE = -1  # an empty dispatch cell, or no heavy child


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


def _classify(tree: TrayTree, threshold: int):
    """Each child's owner, and the heavy flags, branching flags and unique
    heavy children of all nodes, as numpy arrays.

    A node is heavy when its leaf block ``hi - lo + 1`` reaches the
    threshold. Counting the heavy children per owner finds both the
    branching nodes (two or more) and the owners of a unique heavy child
    (exactly one); a heavy node with no heavy child has none (-1).
    """
    size = tree.size
    kids = tree.child_ids
    owner = np.repeat(np.arange(size), np.diff(tree.child_cuts))
    is_pnode = tree.hi_array - tree.lo_array + 1 >= threshold
    heavy = is_pnode[kids] & is_pnode[owner]
    heavy_kids = np.bincount(owner[heavy], minlength=size)
    only = heavy & (heavy_kids[owner] == 1)
    heavy_child = np.full(size, NO_NODE, dtype=np.int64)
    heavy_child[owner[only]] = kids[only]
    return owner, is_pnode, heavy_kids >= 2, heavy_child


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
    return np.where(k < np.asarray(text.symbol_cuts[1:]),
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


def annotate(tree: TrayTree, text: PText,
             index: PsaIndex) -> TrayAnnotations:
    """Classify the nodes (``_classify``) and build the dispatch array of
    every branching node, in one numpy pass over the tree's children.

    A branching node's dispatch array comes from the canonical renaming of
    its representative window, its leftmost leaf's suffix
    ``psa[lo[v] - 1]`` (every suffix in the block shares the node's label,
    so any would do). ``_canonical_ids`` computes the renamings of all
    branching nodes as one table; no other node's is ever read.

    For a node of depth D with representative suffix i, a child whose edge
    starts with distance k > 0 continues the canonical form with the
    canonical id of ``T[i+D-k]`` (the window position the distance points
    at); the distance-0 child is the continuation for every canonical id
    not used inside the window; a static child sits at its own rank. A
    child's first edge symbol is symbol D+1 of its leftmost suffix, read
    through the window adjustment.

    The children of all branching nodes are taken at once, each is given
    its first rank and its count of ranks, and every (node, rank) cell is
    written into one table of ``sigma + pi + 1`` columns, one row per
    branching node, after ``bincount`` has checked that no cell is claimed
    twice. The rows become the dispatch lists. Errors name the lowest
    offending node.
    """
    width = text.sigma + text.pi + 1
    pi = text.pi
    owner, is_pnode, is_branching, heavy_child = _classify(
        tree, max(text.sigma, text.pi))
    nodes = is_branching.nonzero()[0]
    psa = index.psa
    depth = tree.depth_array[nodes]
    reps = psa[tree.lo_array[nodes] - 1]
    table = _canonical_ids(text, reps, depth)
    # Per child c of a branching node: row[c] is its node's index in
    # nodes, kids[c] its id and d[c] its node's depth.
    below = is_branching[owner]
    kids = tree.child_ids[below]
    row = (np.cumsum(is_branching) - 1)[owner[below]]
    d = depth[row]
    sym = _window_symbols(text.code_array, psa[tree.lo_array[kids] - 1] - 1,
                          d + 1)
    far = (sym == 0).nonzero()[0]  # a symbol not seen inside the window
    near = ((sym > 0) & (sym < STATIC_BASE)).nonzero()[0]
    x = text.symbol_array[reps[row[near]] + d[near] - sym[near] - 1]
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
    return TrayAnnotations(
        is_pnode=is_pnode.tolist(), is_branching=is_branching.tolist(),
        heavy_child=heavy_child.tolist(),
        parray=dict(zip(nodes.tolist(),
                        flat.reshape(len(nodes), width).tolist())))


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``first[i] .. first[i] + count[i] - 1``, concatenated."""
    return np.arange(count.sum()) + np.repeat(first - count.cumsum() + count,
                                              count)


@dataclass(eq=False)
class PSTrayIndex:
    """The assembled index: text, sorted suffixes, tree and annotations.

    ``query(pattern)`` is ``tray.query(self, pattern)``: a pattern is a
    string or a sequence of string tokens.
    """

    text: PText
    psa_index: PsaIndex
    tree: TrayTree
    ann: TrayAnnotations

    def query(self, pattern) -> tuple[list[int], QueryStats]:
        return query(self, pattern)

    def validate(self) -> None:
        validate_psa(self.psa_index, self.text, full=True)
        validate_tree(self.tree, self.psa_index, self.text)
        validate_annotations(self.tree, self.ann, self.text, self.psa_index)


def build_tray(psa_index: PsaIndex, text: PText) -> PSTrayIndex:
    """Everything after the suffix sort: ``build_tree``, then ``annotate``.

    The one construction path for the tree and its annotations: both
    ``assemble`` and ``index_io.load`` call it.
    """
    tree = build_tree(psa_index, text)
    return PSTrayIndex(text=text, psa_index=psa_index, tree=tree,
                       ann=annotate(tree, text, psa_index))


def assemble(text: PText) -> PSTrayIndex:
    """Sort the suffixes, then build the tree and its annotations."""
    return build_tray(build_psa(text), text)


def query(idx: PSTrayIndex, pattern) -> tuple[list[int], QueryStats]:
    """All positions of ``idx.text`` whose window matches the pattern up to
    renaming of parameterized symbols, plus instrumentation counters.

    ``pattern`` is a string or a sequence of string tokens, as the text
    was ingested; one pass over it (``pattern_codes``) gives its prev codes
    and canonical ids, and anything else raises QueryError.
    Descends the tree through heavy nodes and finishes with a bounded
    suffix-array search as soon as the locus leaves the heavy part. A
    branching node dispatches in O(1) on the next canonical id, which
    matches the first symbol of the child's edge; a non-branching one
    offers only its heavy child. Either way the rest of the edge, up to the
    pattern's end, is compared on the child's leftmost suffix by
    ``compare_suffix``, the loop the binary search runs too; the call is
    skipped when the dispatch has already read all of it. At a heavy
    child a mismatch on the edge's first symbol leaves the leaf block left
    or right of the child, by the sign of the comparison, for the search.
    The match range is reported as one slice of the suffix starts, sorted
    ascending.
    """
    stats = QueryStats()
    codes = pattern_codes(idx.text, pattern)
    if codes is None:
        return [], stats
    pattern_prev, pattern_canon = codes
    m = len(pattern_prev)
    tree = idx.tree
    ann = idx.ann
    index = idx.psa_index
    pi = idx.text.pi
    depth, lo, hi = tree.depth, tree.lo, tree.hi
    starts = index.starts
    rng = None
    node = 0  # the root
    matched = 0  # the depth of node
    while True:
        stats.nodes_visited += 1
        if ann.is_branching[node]:
            nxt = pattern_prev[matched]
            if nxt >= STATIC_BASE:
                rank = nxt - STATIC_BASE
            else:
                rank = pattern_canon[matched]
                if rank > pi:
                    break  # needs more distinct symbols than T has
            stats.parray_lookups += 1
            child = ann.parray[node][rank]
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


def validate_annotations(tree: TrayTree, ann: TrayAnnotations, text: PText,
                         index: PsaIndex) -> None:
    """Check classification flags, the counting bounds on branching nodes
    and dispatch cells, and that every dispatch array agrees with its node.

    The flags are recomputed by ``_classify`` from the tree's blocks and
    CSR children: a node is heavy iff its block reaches the threshold,
    branching iff it has two or more heavy children, and its heavy child is
    its only one.
    Dispatch agreement is recomputed from the definition at each branching
    node, trusting none of the stored annotations: the canonical renaming
    of the representative window (the leftmost leaf's) comes from the f-array
    of its suffix through ``pfunction_from_fpos``; then each child sits at
    the rank its first edge symbol selects (a static at its own rank,
    distance k at the canonical id of ``T[rep+depth-k]``, distance 0 at
    every canonical id the window leaves unused), every child appears and
    every other cell is empty.
    """
    threshold = max(text.sigma, text.pi)
    n, size = text.n, tree.size
    if not (len(ann.is_pnode) == len(ann.is_branching)
            == len(ann.heavy_child) == size):
        raise ValidationError("annotations do not match the tree's size")
    _, is_pnode, is_branching, heavy_child = _classify(tree, threshold)
    for name, got, want in (("p-node flag", ann.is_pnode, is_pnode),
                            ("branching flag", ann.is_branching, is_branching),
                            ("heavy child", ann.heavy_child, heavy_child)):
        wrong = (np.fromiter(got, dtype=want.dtype, count=size)
                 != want).nonzero()[0]
        if len(wrong):
            raise ValidationError(f"{name} wrong at node {wrong[0]}")
    nodes = is_branching.nonzero()[0]
    if len(nodes) > n // threshold:
        raise ValidationError("branching node count exceeds n/max(sigma,pi)")
    if sorted(ann.parray) != nodes.tolist():
        raise ValidationError("dispatch arrays are not those of the "
                              "branching nodes")
    if ann.parray_cells() > 2 * n:
        raise ValidationError("p-array cells exceed 2n")
    # f-arrays of the representative suffixes: symbol x's first offset in
    # the suffix at rep, 1-based, or 0 when it does not occur there.
    reps = index.psa[tree.lo_array[nodes] - 1]
    first = _first_after(text, reps - 1)
    farr = np.where(first < n, first - reps[:, None] + 2, 0)
    kids, cuts = tree.child_ids.tolist(), tree.child_cuts.tolist()
    for v, rep, row in zip(nodes.tolist(), reps.tolist(), farr.tolist()):
        _check_dispatch(tree, ann, text, index, v, kids[cuts[v]:cuts[v + 1]],
                        rep, row)


def _check_dispatch(tree: TrayTree, ann: TrayAnnotations, text: PText,
                    index: PsaIndex, v: int, kids: list[int], rep: int,
                    farr: list[int]) -> None:
    """Dispatch agreement at branching node ``v`` with children ``kids``,
    whose leftmost leaf is the suffix at ``rep`` with f-array ``farr``."""
    arr = ann.parray[v]
    if len(arr) != text.sigma + text.pi + 1:
        raise ValidationError(f"p-array mis-sized at {v}")
    depth = tree.depth[v]
    canon = pfunction_from_fpos(depth, farr)
    want = [NO_NODE] * len(arr)
    for u in kids:
        sym = prev_char_in_window(index.codes, index.starts[tree.lo[u] - 1],
                                  depth + 1)
        if sym >= STATIC_BASE:
            ranks = [sym - STATIC_BASE]
        elif sym > 0:
            ranks = [canon.get(text.symbol_array[rep + depth - sym - 1])]
        else:
            ranks = list(range(len(canon) + 1, text.pi + 1))
        if not ranks or None in ranks:
            raise ValidationError(f"child {u} of {v} has no dispatch rank")
        for k in ranks:
            if want[k] != NO_NODE:
                raise ValidationError(f"children of {v} share rank {k}")
            want[k] = u
    for k in range(1, len(arr)):
        if arr[k] != want[k]:
            raise ValidationError(
                f"p-array at {v}, rank {k} holds {arr[k]}, its rank selects "
                f"{want[k]}")
