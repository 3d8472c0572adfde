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
from dataclasses import dataclass, field

from .alphabet import PText, encode_pattern, rank
from .encoding import (STATIC_BASE, fpos_stream, prev, prev_char_in_window,
                       spe)
from .errors import (ConstructionError, QueryError, RankError,
                     ValidationError)
from .suffixes import PsaIndex, QueryStats, build_psa, range_search, report
from .tree import NO_NODE, TrayTree, build_tree, first_edge_symbol

__all__ = [
    "TrayAnnotations", "QueryStats", "PSTrayIndex", "classify_pnodes",
    "propagate_rep_pairs", "build_parrays", "assemble", "query",
    "validate_annotations",
]


@dataclass(eq=False)
class TrayAnnotations:
    """Per-node classification and dispatch data.

    Parallel to the tree's node array: ``leaf_count``, ``is_pnode``,
    ``is_branching`` and ``heavy_child`` for every node (``heavy_child`` is
    -1 when absent). Sparse per-heavy-node data lives in dicts keyed by node
    id: ``rep_pos``/``rep_farr`` hold the representative suffix (largest
    leaf position in the subtree) and its f-array; ``pfun`` the renaming of
    the representative window onto canonical ids; ``parray`` the dispatch
    arrays of branching nodes (index = rank, value = child id or -1, entry 0
    unused).
    """

    threshold: int
    leaf_count: list[int]
    is_pnode: list[bool]
    is_branching: list[bool]
    heavy_child: list[int]
    rep_pos: dict[int, int] = field(default_factory=dict)
    rep_farr: dict[int, tuple[int, ...]] = field(default_factory=dict)
    pfun: dict[int, dict[int, int]] = field(default_factory=dict)
    parray: dict[int, list[int]] = field(default_factory=dict)

    def pnodes(self) -> list[int]:
        return [v for v, p in enumerate(self.is_pnode) if p]

    def parray_cells(self) -> int:
        return sum(len(arr) - 1 for arr in self.parray.values())


def _postorder(tree: TrayTree) -> list[int]:
    order: list[int] = []
    todo = [tree.root]
    while todo:
        v = todo.pop()
        order.append(v)
        todo.extend(tree.children[v])
    order.reverse()
    return order


def classify_pnodes(tree: TrayTree, text: PText) -> TrayAnnotations:
    """One bottom-up pass: leaf counts, heavy flags, branching flags, and
    the unique heavy child of non-branching heavy nodes (absent when a heavy
    node has no heavy children at all)."""
    threshold = max(text.sigma, text.pi)
    size = tree.size
    leaf_count = [0] * size
    is_pnode = [False] * size
    is_branching = [False] * size
    heavy_child = [NO_NODE] * size

    for v in _postorder(tree):
        if tree.is_leaf(v):
            leaf_count[v] = 1
        else:
            leaf_count[v] = sum(leaf_count[u] for u in tree.children[v])
        if leaf_count[v] >= threshold:
            is_pnode[v] = True
            heavy_kids = [u for u in tree.children[v] if is_pnode[u]]
            if len(heavy_kids) >= 2:
                is_branching[v] = True
            elif len(heavy_kids) == 1:
                heavy_child[v] = heavy_kids[0]
    return TrayAnnotations(threshold=threshold, leaf_count=leaf_count,
                           is_pnode=is_pnode, is_branching=is_branching,
                           heavy_child=heavy_child)


def propagate_rep_pairs(tree: TrayTree, ann: TrayAnnotations,
                        text: PText) -> TrayAnnotations:
    """Give every heavy node a representative suffix and its f-array.

    The representative is the largest leaf position in the subtree
    (propagated bottom-up); the f-arrays are then materialized in one
    right-to-left sweep over the text, touching only the positions that
    some heavy node actually uses.
    """
    max_pos = [0] * tree.size
    for v in _postorder(tree):
        if tree.is_leaf(v):
            max_pos[v] = tree.leaf_pos[v]
        else:
            max_pos[v] = max(max_pos[u] for u in tree.children[v])
        if ann.is_pnode[v]:
            ann.rep_pos[v] = max_pos[v]

    wanted: dict[int, list[int]] = {}
    for v, pos in ann.rep_pos.items():
        wanted.setdefault(pos, []).append(v)
    for pos, farr in fpos_stream(text, positions=set(wanted)):
        for v in wanted[pos]:
            ann.rep_farr[v] = farr
    return ann


def _radix_sort_pairs(triples: list[tuple[int, int, int]], max_node: int,
                      max_val: int) -> list[tuple[int, int, int]]:
    """Stable two-key counting sort of (node, value, symbol) by (node, value)."""
    if not triples:
        return []
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in range(max_val + 1)]
    for t in triples:
        buckets[t[1]].append(t)
    by_val = [t for b in buckets for t in b]
    buckets = [[] for _ in range(max_node + 1)]
    for t in by_val:
        buckets[t[0]].append(t)
    return [t for b in buckets for t in b]


def _sort_pairs_comparison(triples, max_node, max_val):
    """Reference for the radix sort (cross-checked in tests)."""
    return sorted(triples, key=lambda t: (t[0], t[1]))


def compute_pfunctions(tree: TrayTree, ann: TrayAnnotations,
                       text: PText) -> None:
    """Canonical renamings for all heavy-node representative windows at once.

    For heavy node v with representative (i, f-array) and window length
    depth(v), the parameterized symbols first occurring inside the window,
    taken in f-array order, map to canonical ids 1, 2, ... All windows are
    processed together: one two-key radix sort of (node, offset, symbol)
    triples groups each node's symbols in first-occurrence order.
    """
    triples: list[tuple[int, int, int]] = []
    for v, farr in ann.rep_farr.items():
        limit = tree.depth[v]
        for x, pos in enumerate(farr, start=1):
            if 1 <= pos <= limit:
                triples.append((v, pos, x))
    ordered = _radix_sort_pairs(triples, tree.size - 1, text.n)
    for v in ann.rep_farr:
        ann.pfun[v] = {}
    for v, _, x in ordered:
        fmap = ann.pfun[v]
        fmap[x] = len(fmap) + 1


def build_parrays(tree: TrayTree, ann: TrayAnnotations, text: PText,
                  index: PsaIndex) -> TrayAnnotations:
    """Fill the dispatch array of every branching heavy node.

    For a node of depth D with representative suffix i, a child whose edge
    starts with distance k > 0 continues the canonical form with the
    canonical id of ``T[i+D-k]`` (the window position the distance points
    at); the distance-0 child is the continuation for every canonical id
    not used inside the window; a static child sits at its own rank.
    Needs the p-functions of ``compute_pfunctions``.
    """
    width = text.sigma + text.pi
    pi = text.pi
    for v in range(tree.size):
        if not ann.is_branching[v]:
            continue
        depth = tree.depth[v]
        rep = ann.rep_pos[v]
        fmap = ann.pfun[v]
        used = len(fmap)
        par = [NO_NODE] * (width + 1)

        def put(rank_, child, v=v, par=par):
            if par[rank_] != NO_NODE:
                raise ConstructionError(
                    f"p-array collision at node {v}, rank {rank_}")
            par[rank_] = child

        for u in tree.children[v]:
            sym = first_edge_symbol(tree, index, u)
            if sym >= STATIC_BASE:
                put(sym - STATIC_BASE, u)
            elif sym == 0:
                for x in range(used + 1, pi + 1):
                    put(x, u)
            else:
                source = text.symbols[rep + depth - sym - 1]
                canon = fmap.get(source)
                if canon is None:
                    raise ConstructionError(
                        f"distance child at node {v} references unmapped symbol")
                put(canon, u)
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


def assemble(text: PText) -> PSTrayIndex:
    """Run the whole pipeline: sort suffixes, build the tree, classify
    heavy nodes, attach representatives, fill dispatch arrays."""
    psa_index = build_psa(text)
    tree = build_tree(psa_index, text)
    ann = classify_pnodes(tree, text)
    propagate_rep_pairs(tree, ann, text)
    compute_pfunctions(tree, ann, text)
    build_parrays(tree, ann, text, psa_index)
    return PSTrayIndex(text=text, psa_index=psa_index, tree=tree, ann=ann)


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
                rng = range_search(index, text, pattern_prev, tree.lo[child],
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
                    rng = range_search(index, text, pattern_prev, lo, hi,
                                       matched, stats)
                    return finish(rng)
            else:
                rng = range_search(index, text, pattern_prev, tree.lo[node],
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
    """Check classification flags, the counting bounds on branching nodes
    and dispatch cells, and that dispatch entries point at real children."""
    threshold = max(text.sigma, text.pi)
    if ann.threshold != threshold:
        raise ValidationError("stale threshold")
    n = text.n
    rank_of = {index.suffix_at(r): r for r in range(1, n + 1)}
    branching = 0
    for v in range(tree.size):
        lc = tree.leaf_count(v)
        if ann.leaf_count[v] != lc:
            raise ValidationError(f"leaf_count mismatch at node {v}")
        if ann.is_pnode[v] != (lc >= threshold):
            raise ValidationError(f"p-node flag wrong at node {v}")
        heavy_kids = [u for u in tree.children[v]
                      if ann.is_pnode[u]] if ann.is_pnode[v] else []
        if ann.is_branching[v] != (ann.is_pnode[v] and len(heavy_kids) >= 2):
            raise ValidationError(f"branching flag wrong at node {v}")
        if ann.is_branching[v]:
            branching += 1
        want_heavy = heavy_kids[0] if (
            ann.is_pnode[v] and not ann.is_branching[v]
            and len(heavy_kids) == 1) else NO_NODE
        if ann.heavy_child[v] != want_heavy:
            raise ValidationError(f"heavy child wrong at node {v}")
        if ann.is_pnode[v]:
            rep_rank = rank_of.get(ann.rep_pos.get(v))
            if rep_rank is None or not (tree.lo[v] <= rep_rank <= tree.hi[v]):
                raise ValidationError(f"representative outside subtree at {v}")
        if ann.is_branching[v]:
            arr = ann.parray.get(v)
            if arr is None or len(arr) != text.sigma + text.pi + 1:
                raise ValidationError(f"p-array missing or mis-sized at {v}")
            kids = set(tree.children[v])
            for child in arr[1:]:
                if child != NO_NODE and child not in kids:
                    raise ValidationError(f"p-array at {v} points outside node")
    if branching > n // threshold:
        raise ValidationError("branching node count exceeds n/max(sigma,pi)")
    if ann.parray_cells() > 2 * n:
        raise ValidationError("p-array cells exceed 2n")
