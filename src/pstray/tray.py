"""Hybrid tree/array index: heavy nodes dispatch in O(1), light subtrees
fall through to a bounded binary search on the suffix array.

A node is *heavy* (a "p-node") when its subtree holds at least
``max(sigma, pi)`` leaves; a heavy node is *branching* when at least two of
its children are heavy. Branching nodes carry a dispatch array of length
``sigma + pi`` indexed by the rank of the next canonically-renamed pattern
symbol; non-branching heavy nodes keep only a pointer to their unique heavy
child. Every range that ever reaches the suffix-array search is smaller
than ``(sigma + pi + 1) * max(sigma, pi)``, which keeps the search's
logarithmic term independent of the text length.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .alphabet import PText, encode_pattern, rank
from .encoding import (STATIC_BASE, pfunction_from_fpos, prev,
                       prev_char_in_window, spe)
from .errors import (ConstructionError, QueryError, RankError,
                     ValidationError)
from .suffixes import PsaIndex, QueryStats, build_psa, range_search, report
from .tree import NO_NODE, TrayTree, build_tree, first_edge_symbol

__all__ = [
    "TrayAnnotations", "QueryStats", "PSTrayIndex", "classify_pnodes",
    "propagate_rep_pairs", "compute_pfunctions", "build_parrays",
    "build_tray", "assemble", "query", "validate_annotations",
]


@dataclass(eq=False)
class TrayAnnotations:
    """Per-node classification and dispatch data.

    Parallel to the tree's node array: ``is_pnode``, ``is_branching`` and
    ``heavy_child`` for every node (``heavy_child`` is -1 when absent).
    Sparse per-heavy-node data lives in dicts keyed by node id:
    ``rep_pos`` holds the representative suffix (the largest leaf position
    in the subtree); ``pfun`` the renaming of the representative window
    onto canonical ids; ``parray`` the dispatch arrays of branching nodes
    (index = rank, value = child id or -1, entry 0 unused).
    """

    threshold: int
    is_pnode: list[bool]
    is_branching: list[bool]
    heavy_child: list[int]
    rep_pos: dict[int, int] = field(default_factory=dict)
    pfun: dict[int, dict[int, int]] = field(default_factory=dict)
    parray: dict[int, list[int]] = field(default_factory=dict)

    def pnodes(self) -> list[int]:
        return list(compress(range(len(self.is_pnode)), self.is_pnode))

    def parray_cells(self) -> int:
        return sum(len(arr) - 1 for arr in self.parray.values())


def _array(values) -> np.ndarray:
    """int64 array of a list or dict view of Python ints."""
    return np.fromiter(values, dtype=np.int64, count=len(values))


def classify_pnodes(tree: TrayTree, text: PText) -> TrayAnnotations:
    """Heavy flags, branching flags, and the unique heavy child of
    non-branching heavy nodes (absent when a heavy node has no heavy
    children at all), in a few numpy passes over the node arrays.

    A node is heavy when its leaf block ``hi - lo + 1`` reaches the
    threshold; a heavy child makes its parent heavy too, so counting heavy
    children per parent finds both the branching nodes (two or more) and
    the parents of a unique heavy child (exactly one).
    """
    threshold = max(text.sigma, text.pi)
    size = tree.size
    is_pnode = _array(tree.hi) - _array(tree.lo) + 1 >= threshold
    heavy = is_pnode.nonzero()[0]
    heavy = heavy[heavy != tree.root]
    up = _array(tree.parent)[heavy]
    heavy_kids = np.bincount(up, minlength=size)
    only = heavy_kids[up] == 1
    heavy_child = np.full(size, NO_NODE, dtype=np.int64)
    heavy_child[up[only]] = heavy[only]
    return TrayAnnotations(threshold=threshold, is_pnode=is_pnode.tolist(),
                           is_branching=(heavy_kids >= 2).tolist(),
                           heavy_child=heavy_child.tolist())


def propagate_rep_pairs(tree: TrayTree, ann: TrayAnnotations,
                        text: PText) -> TrayAnnotations:
    """Give every heavy node its representative suffix: the largest leaf
    position in its subtree.

    Leaf ``r`` of the tree holds the suffix of rank ``r``, so a node's
    leaf positions are one slice of ``leaf_pos`` and all representatives
    come from one ``np.maximum.reduceat`` over the heavy nodes' blocks.
    The blocks nest, so this reads each leaf once per heavy ancestor:
    O(n + sum of LCPs) element steps, as many as the suffix sort's.
    """
    heavy = ann.pnodes()
    if not heavy:
        return ann
    lo, hi = tree.lo, tree.hi
    bounds = np.array([(lo[v], hi[v] + 1) for v in heavy], dtype=np.int64)
    # One trailing entry keeps every block end a valid reduceat index.
    pos = _array(tree.leaf_pos[:text.n + 1] + [0])
    reps = np.maximum.reduceat(pos, bounds.ravel())[0::2]
    ann.rep_pos = dict(zip(heavy, reps.tolist()))
    return ann


def compute_pfunctions(tree: TrayTree, ann: TrayAnnotations,
                       text: PText) -> None:
    """Canonical renamings for all heavy-node representative windows at once.

    For heavy node v with representative i and window ``T[i:i+depth(v)]``,
    the parameterized symbols first occurring inside the window, in order
    of first occurrence, map to canonical ids 1, 2, ... Each symbol's
    first occurrence at or after every representative comes from one
    ``searchsorted`` over that symbol's sorted positions, so the work is
    O(pi * heavy nodes) numpy element steps; one sort of the in-window hits
    by (node, position) then numbers each node's symbols.
    """
    nodes = list(ann.rep_pos)
    ann.pfun = {v: {} for v in nodes}
    if not nodes or text.pi == 0:
        return
    depth = tree.depth
    reps = _array(ann.rep_pos.values())
    ends = reps + _array([depth[v] for v in nodes])  # one past each window
    symbols = _array(text.symbols)
    where = (symbols <= text.pi).nonzero()[0]
    by_symbol = where[np.argsort(symbols[where], kind="stable")] + 1
    cuts = np.cumsum(np.bincount(symbols[where], minlength=text.pi + 1))
    hit_node, hit_pos, hit_sym = [], [], []
    for x in range(1, text.pi + 1):
        occ = by_symbol[cuts[x - 1]:cuts[x]]
        k = np.searchsorted(occ, reps)
        first = np.append(occ, ends.max())[k]
        inside = (first < ends).nonzero()[0]
        hit_node.append(inside)
        hit_pos.append(first[inside])
        hit_sym.append(np.full(len(inside), x, dtype=np.int64))
    node = np.concatenate(hit_node)
    order = np.lexsort((np.concatenate(hit_pos), node))
    node = node[order]
    sym = np.concatenate(hit_sym)[order]
    canon = np.arange(len(node)) - np.searchsorted(node, node) + 1
    pfun = ann.pfun
    for v, x, c in zip(np.array(nodes)[node].tolist(), sym.tolist(),
                       canon.tolist()):
        pfun[v][x] = c


def build_parrays(tree: TrayTree, ann: TrayAnnotations, text: PText,
                  index: PsaIndex) -> TrayAnnotations:
    """Fill the dispatch array of every branching heavy node.

    For a node of depth D with representative suffix i, a child whose edge
    starts with distance k > 0 continues the canonical form with the
    canonical id of ``T[i+D-k]`` (the window position the distance points
    at); the distance-0 child is the continuation for every canonical id
    not used inside the window; a static child sits at its own rank.
    Needs the p-functions of ``compute_pfunctions``. A child's first edge
    symbol is symbol D+1 of its leftmost suffix, read from the prev codes
    with the window adjustment inlined.
    """
    width = text.sigma + text.pi
    pi = text.pi
    codes = index.codes
    symbols = text.symbols
    depth = tree.depth
    lo = tree.lo
    start = tree.leaf_pos  # leaf r holds the suffix of rank r
    for v in compress(range(tree.size), ann.is_branching):
        d = depth[v]
        rep = ann.rep_pos[v]
        fmap = ann.pfun[v]
        used = len(fmap)
        par = [NO_NODE] * (width + 1)
        for u in tree.children[v]:
            sym = codes[start[lo[u]] + d - 1]
            if sym >= STATIC_BASE:
                ranks = (sym - STATIC_BASE,)
            elif 0 < sym <= d:
                canon = fmap.get(symbols[rep + d - sym - 1])
                if canon is None:
                    raise ConstructionError(
                        f"distance child at node {v} references unmapped symbol")
                ranks = (canon,)
            else:  # a symbol not seen inside the window
                ranks = range(used + 1, pi + 1)
            for k in ranks:
                if par[k] != NO_NODE:
                    raise ConstructionError(
                        f"p-array collision at node {v}, rank {k}")
                par[k] = u
        ann.parray[v] = par
    return ann


@dataclass(eq=False)
class PSTrayIndex:
    """The assembled index: text, sorted suffixes, tree and annotations."""

    text: PText
    psa_index: PsaIndex
    tree: TrayTree
    ann: TrayAnnotations

    def query(self, pattern) -> tuple[list[int], QueryStats]:
        return query(self, self.text, pattern)

    def validate(self, full: bool = True) -> None:
        from .suffixes import validate_psa
        from .tree import validate_tree

        validate_psa(self.psa_index, self.text, full=full)
        validate_tree(self.tree, self.psa_index, self.text)
        validate_annotations(self.tree, self.ann, self.text, self.psa_index)


def build_tray(psa_index: PsaIndex, text: PText) -> PSTrayIndex:
    """Everything after the suffix sort: build the tree, classify heavy
    nodes, attach representatives and p-functions, fill dispatch arrays.

    The one construction path for the tree and its annotations: both
    ``assemble`` and ``index_io.load`` call it.
    """
    tree = build_tree(psa_index, text)
    ann = classify_pnodes(tree, text)
    propagate_rep_pairs(tree, ann, text)
    compute_pfunctions(tree, ann, text)
    build_parrays(tree, ann, text, psa_index)
    return PSTrayIndex(text=text, psa_index=psa_index, tree=tree, ann=ann)


def assemble(text: PText) -> PSTrayIndex:
    """Sort the suffixes, then build the tree and its annotations."""
    return build_tray(build_psa(text), text)


def _descend_edge(idx: PSTrayIndex, child: int, matched: int,
                  pattern_prev: list[int], stats: QueryStats) -> tuple[str, int]:
    """Verify the remaining symbols of the edge entering ``child`` against
    the pattern, assuming depth ``matched+1`` is already verified.

    Returns ("mismatch", _), ("done", _) when the pattern ends on the edge
    (or exactly at the child), or ("into", new_matched) at the child node.
    """
    tree = idx.tree
    index = idx.psa_index
    m = len(pattern_prev)
    child_depth = tree.depth[child]
    start = index.suffix_at(tree.lo[child])
    upto = min(m, child_depth)
    for d in range(matched + 2, upto + 1):
        sym = prev_char_in_window(index.codes, start, d)
        stats.symbol_comparisons += 1
        if sym != pattern_prev[d - 1]:
            return "mismatch", d
    if m <= child_depth:
        return "done", m
    return "into", child_depth


def _encoded_pattern(text: PText, pattern) -> list[int] | None:
    """Internal ids of a raw or pre-encoded pattern; None when it cannot
    occur in the text.

    A sequence of integers (Python or numpy) is taken as pre-encoded ids:
    negative ids are pattern-only parameterized symbols, as
    ``encode_pattern`` makes them, and every other id must have a rank in
    the text's alphabet.
    """
    if pattern is None:
        return None
    if isinstance(pattern, str) or not all(
            isinstance(c, numbers.Integral) for c in pattern):
        return encode_pattern(text, pattern)
    ids = [int(c) for c in pattern]
    for c in ids:
        if c >= 0:
            try:
                rank(c, text)
            except RankError as exc:
                raise QueryError(f"pre-encoded pattern: {exc}") from exc
    return ids


def query(idx: PSTrayIndex, text: PText, pattern) -> tuple[list[int], QueryStats]:
    """All positions whose window matches the pattern up to renaming of
    parameterized symbols, plus instrumentation counters.

    ``pattern`` is raw input (string or token sequence) or a pre-encoded
    id list. Descends the tree through heavy nodes (O(1) dispatch at
    branching nodes, heavy-child pointer otherwise) and finishes with a
    bounded suffix-array search as soon as the locus leaves the heavy part.
    Positions are returned sorted ascending.
    """
    stats = QueryStats()
    encoded = _encoded_pattern(text, pattern)
    if encoded is not None and len(encoded) == 0:
        raise QueryError("empty pattern")
    if encoded is None:
        return [], stats

    pattern_prev = prev(encoded, text.pi)
    pattern_spe = spe(encoded, text.pi)
    m = len(pattern_prev)
    tree = idx.tree
    ann = idx.ann
    index = idx.psa_index

    def finish(rng):
        return sorted(report(index, rng)), stats

    node = tree.root
    matched = 0
    while True:
        stats.nodes_visited += 1
        if ann.is_branching[node]:
            nxt = pattern_prev[matched]
            if nxt >= STATIC_BASE:
                rank_ = nxt - STATIC_BASE
            else:
                rank_ = pattern_spe[matched]
                if rank_ > text.pi:
                    return finish(None)  # needs more distinct symbols than T has
            stats.parray_lookups += 1
            child = ann.parray[node][rank_]
            if child == NO_NODE:
                return finish(None)
            if not ann.is_pnode[child]:
                rng = range_search(index, pattern_prev, tree.lo[child],
                                   tree.hi[child], matched + 1, stats)
                return finish(rng)
            state, _ = _descend_edge(idx, child, matched, pattern_prev, stats)
        else:
            heavy = ann.heavy_child[node]
            if heavy != NO_NODE:
                hsym = first_edge_symbol(tree, index, heavy)
                stats.symbol_comparisons += 1
                nxt = pattern_prev[matched]
                if nxt == hsym:
                    child = heavy
                    state, _ = _descend_edge(idx, child, matched, pattern_prev,
                                             stats)
                else:
                    if nxt < hsym:
                        lo, hi = tree.lo[node], tree.lo[heavy] - 1
                    else:
                        lo, hi = tree.hi[heavy] + 1, tree.hi[node]
                    if lo > hi:
                        return finish(None)
                    rng = range_search(index, pattern_prev, lo, hi,
                                       matched, stats)
                    return finish(rng)
            else:
                rng = range_search(index, pattern_prev, tree.lo[node],
                                   tree.hi[node], matched, stats)
                return finish(rng)
        if state == "mismatch":
            return finish(None)
        if state == "done":
            return finish((tree.lo[child], tree.hi[child]))
        node = child
        matched = tree.depth[child]


def validate_annotations(tree: TrayTree, ann: TrayAnnotations, text: PText,
                         index: PsaIndex) -> None:
    """Check classification flags, representatives, the counting bounds on
    branching nodes and dispatch cells, and that every dispatch array
    agrees with its node.

    Agreement is recomputed from the definition, trusting none of the
    stored annotations: the canonical renaming of the representative
    window comes from the text's symbol positions and must equal the
    stored p-function; then each child sits at the rank its first edge
    symbol selects (a static at its own rank, distance k at the canonical
    id of ``T[rep+depth-k]``, distance 0 at every canonical id the window
    leaves unused), every child appears and every other cell is empty.
    """
    threshold = max(text.sigma, text.pi)
    if ann.threshold != threshold:
        raise ValidationError("stale threshold")
    n = text.n
    rank_of = {index.suffix_at(r): r for r in range(1, n + 1)}
    occ: dict[int, list[int]] = {}
    for p, c in enumerate(text.symbols, start=1):
        if c <= text.pi:
            occ.setdefault(c, []).append(p)
    branching = 0
    for v in range(tree.size):
        lc = tree.leaf_count(v)
        if ann.is_pnode[v] != (lc >= threshold):
            raise ValidationError(f"p-node flag wrong at node {v}")
        heavy_kids = [u for u in tree.children[v]
                      if ann.is_pnode[u]] if ann.is_pnode[v] else []
        if ann.is_branching[v] != (ann.is_pnode[v] and len(heavy_kids) >= 2):
            raise ValidationError(f"branching flag wrong at node {v}")
        want_heavy = heavy_kids[0] if len(heavy_kids) == 1 else NO_NODE
        if ann.heavy_child[v] != want_heavy:
            raise ValidationError(f"heavy child wrong at node {v}")
        if ann.is_pnode[v]:
            rep_rank = rank_of.get(ann.rep_pos.get(v))
            if rep_rank is None or not (tree.lo[v] <= rep_rank <= tree.hi[v]):
                raise ValidationError(f"representative outside subtree at {v}")
        if ann.is_branching[v]:
            branching += 1
            _check_dispatch(tree, ann, text, index, v, occ)
    if branching > n // threshold:
        raise ValidationError("branching node count exceeds n/max(sigma,pi)")
    if ann.parray_cells() > 2 * n:
        raise ValidationError("p-array cells exceed 2n")


def _check_dispatch(tree: TrayTree, ann: TrayAnnotations, text: PText,
                    index: PsaIndex, v: int,
                    occ: dict[int, list[int]]) -> None:
    """Dispatch agreement at branching node ``v``; ``occ`` maps each
    parameterized symbol to its ascending text positions."""
    arr = ann.parray.get(v)
    if arr is None or len(arr) != text.sigma + text.pi + 1:
        raise ValidationError(f"p-array missing or mis-sized at {v}")
    rep, depth = ann.rep_pos[v], tree.depth[v]
    farr = []
    for x in range(1, text.pi + 1):
        ps = occ.get(x, [])
        k = bisect_left(ps, rep)
        farr.append(ps[k] - rep + 1 if k < len(ps) else 0)
    canon = pfunction_from_fpos(text, rep, depth, farr)
    if ann.pfun.get(v) != canon:
        raise ValidationError(f"p-function wrong at node {v}")
    want = [NO_NODE] * len(arr)
    for u in tree.children[v]:
        sym = first_edge_symbol(tree, index, u)
        if sym >= STATIC_BASE:
            ranks = [sym - STATIC_BASE]
        elif sym > 0:
            ranks = [canon.get(text.symbols[rep + depth - sym - 1])]
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
