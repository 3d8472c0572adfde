"""The tray's part of the compact trie over the prev-encoded suffixes.

The trie is the LCP-interval tree of the sorted suffixes (Abouelhoda,
Kurtz & Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
2004): an internal node is a rank interval whose least inner adjacent LCP
(its depth) is larger than the LCPs just outside it. A query only walks
heavy nodes, those with at least ``max(sigma, pi)`` leaves, and leaves
the heavy part through one of their children, so only those are kept:
the suffix tray of Cole, Kopelowitz & Lewenstein ("Suffix trays and
suffix trists", ICALP 2006), adapted to parameterized matching. Below a
kept light node the suffix array answers instead.

The kept nodes come from numpy passes over the LCP array, not a per-rank
loop: each adjacent-LCP boundary belongs to the interval bounded by its
nearest strictly smaller LCPs, so the heavy intervals are those spans that
reach the threshold, and a heavy node's boundaries cut it into its
children. Each node fact is stored once: a node's children are its CSR
slice, and its parent is the node whose slice lists it. Edge labels are
never stored; an edge is a depth window of any suffix below the node,
resolved symbol-by-symbol through the O(1) window adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import PText
from .errors import QueryError, ValidationError
from .suffixes import PsaIndex, _window_symbols


@dataclass(eq=False)
class TrayTree:
    """Node-array tree of the heavy nodes and their children, as int64
    arrays indexed by node id: node 0 is the root (ranks 1..n) by layout,
    the other heavy internal nodes follow in preorder, then the light
    children and the leaves, grouped by parent. Only heavy internal nodes
    have children; a kept light node is a leaf block for the suffix-array
    search. The tree keeps no suffix starts and no parent links.

    ``lo_array``/``hi_array`` are 1-based suffix-array ranks delimiting the
    node's leaf block; ``depth_array`` is the string depth (encoded symbols
    from the root). Children are in CSR form: those of node v, in
    lexicographic edge order, are
    ``child_ids[child_cuts[v]:child_cuts[v + 1]]``. Derived once: the lists
    ``depth``, ``lo`` and ``hi`` that the query loop indexes.
    """

    depth_array: np.ndarray
    lo_array: np.ndarray
    hi_array: np.ndarray
    child_ids: np.ndarray
    child_cuts: np.ndarray
    depth: list[int] = field(init=False, repr=False)
    lo: list[int] = field(init=False, repr=False)
    hi: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.depth = self.depth_array.tolist()
        self.lo = self.lo_array.tolist()
        self.hi = self.hi_array.tolist()

    @property
    def size(self) -> int:
        return len(self.depth_array)

    def children(self, v: int) -> list[int]:
        """Child ids of node v in edge order (empty for a light node).
        Raises QueryError for an id outside the tree."""
        if not 0 <= v < self.size:
            raise QueryError(f"node {v} outside a tree of {self.size} nodes")
        cuts = self.child_cuts
        return self.child_ids[cuts[v]:cuts[v + 1]].tolist()


def _nearest_smaller(h: np.ndarray) -> np.ndarray:
    """``out[i]``: the largest j < i with ``h[j] < h[i]``, for
    0 < i < len(h) - 1; ``h[0]`` must lie below every entry between the
    two ends.

    Pointer jumping: each pointer starts at i - 1 and takes its target's
    pointer while the target is not smaller, every pending i at once. That
    can take one round per entry (on ``x^k y`` the LCPs rise 1, 2, ..., k-1
    and then drop to 1), so after about 2 log2 n rounds the rest are found
    by binary lifting over a table of minima of 2**k consecutive entries:
    O(n log n) words, dropped on return.
    """
    n = len(h)
    near = np.arange(-1, n - 1)
    near[0] = 0
    todo = np.arange(1, n - 1)
    todo = todo[h[todo - 1] >= h[todo]]
    for _ in range(2 * n.bit_length()):
        if not len(todo):
            return near
        near[todo] = near[near[todo]]
        todo = todo[h[near[todo]] >= h[todo]]
    # Every entry from near[i] up to i - 1 is at least h[i]; lift the left
    # end of that run over blocks of 2**k entries whose minimum is too. A
    # block clipped at 0 holds h[0], so it never is.
    mins = [h]
    while 1 << len(mins) <= n:
        half = 1 << (len(mins) - 1)
        mins.append(np.minimum(mins[-1][:-half], mins[-1][half:]))
    pos, want = near[todo], h[todo]
    for k in range(len(mins) - 1, -1, -1):
        cand = np.maximum(pos - (1 << k), 0)
        pos = np.where(mins[k][cand] >= want, cand, pos)
    near[todo] = pos - 1
    return near


def _boundary_lcps(index: PsaIndex) -> np.ndarray:
    """h[b], 0 <= b <= n: the LCP of ranks b and b + 1, and -1 at both
    ends, below every LCP."""
    n = index.n
    h = np.empty(n + 1, dtype=np.int64)
    h[0] = h[n] = -1
    h[1:n] = index.plcp[1:]
    return h


def build_tree(index: PsaIndex, text: PText) -> TrayTree:
    """The heavy LCP intervals (at least ``max(sigma, pi)`` leaves) and
    their children, in a few numpy passes over the LCP array.

    Boundary b (1 <= b < n) lies between ranks b and b + 1 at LCP h[b].
    With its nearest strictly smaller LCPs at L and R (the ends count as
    -1), it is a child boundary of the interval L + 1 .. R at depth h[b],
    and all boundaries of one interval share L and R. Those whose span
    R - L reaches the threshold name the heavy nodes; a heavy node's
    boundaries, in order, cut its block into its child blocks. A child
    block of at least threshold ranks is itself a heavy node; any other is
    a light node of depth min h over its inner boundaries, or a leaf as
    deep as its suffix is long. When the root is light or holds one rank,
    the tree is the root alone.
    """
    n = text.n
    threshold = max(text.sigma, text.pi)
    h = _boundary_lcps(index)
    left = _nearest_smaller(h)[1:n]
    right = n - _nearest_smaller(h[::-1])[::-1][1:n]
    cut = ((right - left) >= threshold).nonzero()[0]
    if not len(cut):
        return TrayTree(depth_array=np.array([0]), lo_array=np.array([1]), hi_array=np.array([n]),
                        child_ids=np.empty(0, dtype=np.int64),
                        child_cuts=np.zeros(2, dtype=np.int64))
    # Order the heavy nodes by (lo, -hi), a preorder that puts the root
    # first, and each node's boundaries by rank.
    key = left[cut] * (n + 1) + n - right[cut]
    order = np.argsort(key, kind="stable")
    key = key[order]
    cut = cut[order] + 1
    first = np.empty(len(cut), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    heads = first.nonzero()[0]
    heavy = len(heads)
    node_key = key[heads]
    node_lo = left[cut[heads] - 1] + 1
    node_hi = right[cut[heads] - 1]
    # Each boundary ends a child block, and each node's last block ends at
    # its hi; node g's blocks are slots bounds[g] to bounds[g + 1] - 1.
    bounds = np.append(heads, len(cut)) + np.arange(heavy + 1)
    ends = np.empty(bounds[-1], dtype=np.int64)
    ends[np.arange(len(cut)) + np.cumsum(first) - 1] = cut
    ends[bounds[1:] - 1] = node_hi
    begins = np.empty_like(ends)
    begins[1:] = ends[:-1] + 1
    begins[bounds[:-1]] = node_lo
    inner = ends - begins + 1 >= max(threshold, 2)
    kid = np.empty(len(ends), dtype=np.int64)
    kid[inner] = np.searchsorted(
        node_key, (begins[inner] - 1) * (n + 1) + n - ends[inner])
    light = ~inner
    kid[light] = np.arange(heavy, heavy + np.count_nonzero(light))
    light_lo, light_hi = begins[light], ends[light]
    light_depth = n + 1 - index.psa[light_lo - 1]
    wide = (light_lo < light_hi).nonzero()[0]
    if len(wide):
        # Light blocks are disjoint, so their inner minima cost O(n).
        spans = np.column_stack((light_lo[wide], light_hi[wide])).ravel()
        light_depth[wide] = np.minimum.reduceat(h, spans)[::2]
    return TrayTree(
        depth_array=np.concatenate((h[cut[heads]], light_depth)),
        lo_array=np.concatenate((node_lo, light_lo)),
        hi_array=np.concatenate((node_hi, light_hi)),
        child_ids=kid,
        child_cuts=np.append(bounds, np.full(len(light_lo), bounds[-1])))


def validate_tree(tree: TrayTree, index: PsaIndex, text: PText) -> None:
    """Check in O(n), against the suffix and LCP arrays, that the tree
    holds exactly the heavy LCP intervals and their children.

    Node 0 is ranks 1..n at depth 0. Every other node is the child of
    exactly one node, which lists it. Each listed node's children partition
    its block in order of their first edge symbols, every boundary between
    two of them has the node's depth as its LCP, and each child is deeper
    than the node. A child without listed children is a leaf (lo == hi, as
    deep as its suffix is long) or a light node whose inner LCPs have the
    node's depth as their minimum. A node lists children iff it holds at
    least ``max(sigma, pi)`` leaves and more than one rank. By induction
    every node is then an exact LCP interval.
    """
    n = text.n
    size = tree.size
    threshold = max(text.sigma, text.pi)
    if not 1 <= size <= max(2 * n - 1, 1):
        raise ValidationError("node count outside 1..2n-1")
    depth, lo, hi = tree.depth_array, tree.lo_array, tree.hi_array
    cuts, listed = tree.child_cuts, tree.child_ids
    if len({len(depth), len(lo), len(hi), len(cuts) - 1}) != 1:
        raise ValidationError("node arrays differ in length")
    count = np.diff(cuts)
    if cuts[0] != 0 or cuts[-1] != len(listed) or np.count_nonzero(count < 0):
        raise ValidationError("child cuts do not slice the child ids")
    if (lo[0], hi[0], depth[0]) != (1, n, 0):
        raise ValidationError("root is not node 0 over ranks 1..n at depth 0")
    owner = np.repeat(np.arange(size), count)
    if (np.count_nonzero(listed <= 0) or np.count_nonzero(listed >= size)
            or np.count_nonzero(np.bincount(listed, minlength=size)[1:] != 1)):
        raise ValidationError("a node other than the root is not listed "
                              "exactly once as a child")
    if np.count_nonzero((lo < 1) | (hi > n) | (lo > hi)):
        raise ValidationError("a node's block is not a rank range in 1..n")
    lists = count > 0
    if np.count_nonzero(lists != ((hi - lo + 1 >= threshold) & (lo < hi))):
        raise ValidationError("a node lists children iff it is heavy and "
                              "holds more than one rank")
    if not len(listed):
        return
    # Children in order: the first starts at lo, each next one rank past
    # the last, and the last ends at hi.
    heads = cuts[:-1][lists]
    tails = heads + count[lists] - 1
    expect = np.empty(len(listed), dtype=np.int64)
    expect[1:] = hi[listed[:-1]] + 1
    expect[heads] = lo[lists]
    if (np.count_nonzero(lo[listed] != expect)
            or np.count_nonzero(hi[listed[tails]] != hi[lists])):
        raise ValidationError("children do not partition their parent's block")
    h = _boundary_lcps(index)
    inside = np.ones(len(listed), dtype=bool)
    inside[tails] = False
    if np.count_nonzero(h[hi[listed[inside]]] != depth[owner[inside]]):
        raise ValidationError("a boundary between children is not at its "
                              "parent's depth")
    if np.count_nonzero(depth[listed] <= depth[owner]):
        raise ValidationError("a child is not deeper than its parent")
    psa = index.psa
    bare = listed[count[listed] == 0]
    leaf = bare[lo[bare] == hi[bare]]
    if np.count_nonzero(depth[leaf] != n + 1 - psa[lo[leaf] - 1]):
        raise ValidationError("a leaf is not as deep as its suffix")
    block = bare[lo[bare] < hi[bare]]
    if len(block):
        spans = np.column_stack((lo[block], hi[block])).ravel()
        if np.count_nonzero(np.minimum.reduceat(h, spans)[::2]
                            != depth[block]):
            raise ValidationError("a light node's depth is not the least "
                                  "LCP inside its block")
    sym = _window_symbols(text.code_array, psa[lo[listed] - 1] - 1,
                          depth[owner] + 1)
    if np.count_nonzero(sym[1:][inside[:-1]] <= sym[:-1][inside[:-1]]):
        raise ValidationError("children are not in first-symbol order")
