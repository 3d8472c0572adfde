"""The tray's part of the compact trie over the prev-encoded suffixes.

The trie is the LCP-interval tree of the sorted suffixes (Abouelhoda,
Kurtz & Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
2004): an internal node is a rank interval whose least inner adjacent LCP
(its depth) is larger than the LCPs just outside it. A query walks only
heavy nodes, those with at least ``max(sigma, pi)`` leaves, and only the
nodes it can reach are kept: all children of a node with two or more
heavy ones, else its heavy child, as in the suffix tray of Cole,
Kopelowitz & Lewenstein ("Suffix trays and suffix trists", ICALP 2006).

The kept nodes come from numpy passes over the LCP array, not a per-rank
loop: each adjacent-LCP boundary belongs to the interval bounded by its
nearest strictly smaller LCPs, so the heavy intervals are those spans that
reach the threshold, and a heavy node's boundaries cut it into its
children. Each node fact is stored once: a node's children are its CSR
slice (the tray reads those through ``tray_shape``), and its parent is
the node whose slice lists it. Edge labels are never stored; an edge is
a depth window of any suffix below the node, read by ``_window_symbols``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import PText
from .errors import ValidationError
from .suffixes import PsaIndex, _window_symbols


NO_NODE = -1  # an empty dispatch cell, or no heavy child


def heavy_threshold(text: PText) -> int:
    """The least leaf count of a heavy node (a p-node): ``max(sigma,
    pi)``."""
    return max(text.sigma, text.pi)


@dataclass(eq=False)
class TrayTree:
    """Node-array tree of the nodes a query can reach, as int64 arrays
    indexed by node id: node 0 is the root (ranks 1..n) by layout, the
    other heavy internal nodes follow in preorder, then the kept light
    children and leaves, grouped by parent. No suffix starts or parents.

    ``lo_array``/``hi_array`` are 1-based suffix-array ranks delimiting the
    node's leaf block; ``depth_array`` is the string depth (encoded symbols
    from the root) of the p-nodes alone, ids 0..P-1, as only they are read.
    Children are in CSR form: those of node v, in lexicographic edge order,
    are ``child_ids[child_cuts[v]:child_cuts[v + 1]]``. Derived once: the
    lists ``depth``, ``lo`` and ``hi`` that the query loop indexes.
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
        return len(self.lo_array)


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
    todo = (h[:n - 2] >= h[1:n - 1]).nonzero()[0] + 1
    for _ in range(2 * n.bit_length()):
        if not len(todo):
            return near
        near[todo] = near[near[todo]]
        todo = todo[(h[near[todo]] >= h[todo]).nonzero()[0]]
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


def build_tree(index: PsaIndex) -> TrayTree:
    """The heavy LCP intervals (at least ``max(sigma, pi)`` leaves) and the
    children a query can reach, in a few numpy passes over the LCP array.

    Boundary b (1 <= b < n) lies between ranks b and b + 1 at LCP h[b].
    With its nearest strictly smaller LCPs at L and R (the ends count as
    -1), it is a child boundary of the interval L + 1 .. R at depth h[b],
    and all boundaries of one interval share L and R. Those whose span
    R - L reaches the threshold name the heavy nodes; a heavy node's
    boundaries, in order, cut its block into child blocks, heavy ones at
    least threshold ranks long. It keeps them all if two or more are
    heavy, else its heavy one. A tree of a light root, or of one rank, is
    the root alone.
    """
    n = index.n
    threshold = heavy_threshold(index.text)
    h = _boundary_lcps(index)
    left = _nearest_smaller(h)[1:n]
    right = n - _nearest_smaller(h[::-1])[::-1][1:n]
    cut = ((right - left) >= threshold).nonzero()[0]
    if not len(cut):  # the root alone, with a depth if it is heavy
        return TrayTree(np.zeros(int(n >= threshold), dtype=np.int64),
                        np.array([1]), np.array([n]),
                        np.empty(0, dtype=np.int64),
                        np.zeros(2, dtype=np.int64))
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
    heavy_block = ends - begins >= threshold - 1
    heavy_kids = np.diff(np.cumsum(heavy_block)[bounds[1:] - 1], prepend=0)
    blocks, branching = np.diff(bounds), heavy_kids >= 2
    keep = heavy_block | np.repeat(branching, blocks)
    inner = heavy_block & (ends > begins)
    light = (keep & ~inner).nonzero()[0]  # indices: faster than masks here
    inner = inner.nonzero()[0]
    kid = np.empty(len(ends), dtype=np.int64)
    kid[inner] = np.searchsorted(
        node_key, (begins[inner] - 1) * (n + 1) + n - ends[inner])
    kid[light] = np.arange(heavy, heavy + len(light))
    light_lo, light_hi = begins[light], ends[light]
    # Only at threshold 1 are the kept light blocks p-nodes: leaves.
    leaves = light_lo[light_hi - light_lo >= threshold - 1]
    cuts = np.zeros(heavy + len(light_lo) + 1, dtype=np.int64)
    np.cumsum(np.where(branching, blocks, heavy_kids), out=cuts[1:heavy + 1])
    cuts[heavy + 1:] = cuts[heavy]
    return TrayTree(
        depth_array=np.concatenate((h[cut[heads]],
                                    n + 1 - index.psa[leaves - 1])),
        lo_array=np.concatenate((node_lo, light_lo)),
        hi_array=np.concatenate((node_hi, light_hi)),
        child_ids=kid[keep], child_cuts=cuts)


def tray_shape(tree: TrayTree, index: PsaIndex):
    """``(is_pnode, is_branching, heavy_child)`` per node: an id with a
    depth, two or more children, the one child or ``NO_NODE``; ``(nodes,
    depth, reps)`` per branching node, ascending, ``reps`` its leftmost
    suffix ``psa[lo - 1]``; and ``(kids, row, sym)`` per child of one, in
    CSR order: its id, its node's index in ``nodes`` and its first edge
    symbol, symbol D + 1 of its leftmost suffix, D its node's depth."""
    cuts, listed, lo = tree.child_cuts, tree.child_ids, tree.lo_array
    count = np.diff(cuts)
    is_branching = count >= 2
    heavy_child = np.where(count == 1, np.append(listed, NO_NODE)[cuts[:-1]],
                           NO_NODE)
    nodes = is_branching.nonzero()[0]
    depth, reps = tree.depth_array[nodes], index.psa[lo[nodes] - 1]
    kids = listed[np.repeat(is_branching, count)]
    row = np.repeat(np.arange(len(nodes)), count[nodes])
    sym = _window_symbols(index.text.code_array, index.psa[lo[kids] - 1] - 1,
                          depth[row] + 1)
    return ((np.arange(tree.size) < len(tree.depth_array), is_branching,
             heavy_child), (nodes, depth, reps), (kids, row, sym))


def validate_tree(tree: TrayTree, index: PsaIndex) -> None:
    """Check in O(n), against the suffix and LCP arrays, that the tree
    holds exactly the heavy LCP intervals and the children a query can
    reach: by induction each node is an exact LCP interval.

    Node 0 is ranks 1..n; the p-nodes (blocks of ``max(sigma, pi)`` ranks
    or more) are ids 0..P-1 with a depth. Each other node is listed once,
    in rank order inside a larger parent whose depth is the LCP beside it.
    A node lists two or more children, two heavy, that tile its block in
    first-symbol order; or one heavy child; or none. The rest of a block,
    its node's own ranks (which tile 1..n, so no nested block is scanned),
    has no LCP below the node's depth (a light node's parent's plus one),
    and cut at that depth a p-node's own ranks fall into light pieces.
    """
    def fail(bad, message: str) -> None:
        if np.count_nonzero(bad):
            raise ValidationError(message)

    n, size = index.n, tree.size
    threshold = heavy_threshold(index.text)
    depth, lo, hi = tree.depth_array, tree.lo_array, tree.hi_array
    cuts, listed = tree.child_cuts, tree.child_ids
    fail(not 1 <= size <= max(2 * n - 1, 1) or len(hi) != size
         or len(cuts) != size + 1, "node count outside 1..2n-1, or node "
         "arrays of different lengths")
    count = np.diff(cuts)
    fail(cuts[0] != 0 or cuts[-1] != len(listed) or (count < 0).any(),
         "child cuts do not slice the child ids")
    fail((lo[0], hi[0]) != (1, n) or depth[:1].any(),
         "root is not node 0 over ranks 1..n at depth 0")
    fail((lo < 1) | (hi > n) | (lo > hi),
         "a node's block is not a rank range in 1..n")
    pnodes = len(depth)
    pnode = hi - lo + 1 >= threshold
    fail(pnodes > size or (pnode != (np.arange(size) < pnodes)).any(),
         "the nodes with a depth are not the p-nodes, ids 0..P-1")
    fail((listed <= 0).any() or (listed >= size).any()
         or (np.bincount(listed, minlength=size)[1:] != 1).any(),
         "a node other than the root is not listed exactly once as a child")
    owner = np.repeat(np.arange(size), count)
    top, bottom = lo[owner], hi[owner]
    first, last, heavy = lo[listed], hi[listed], listed < pnodes
    same = owner[1:] == owner[:-1]  # slot j + 1 follows a sibling
    prev = np.where(np.append(False, same), np.append(0, last)[:-1], top - 1)
    fail((first <= prev) | (last > bottom) | (last - first >= bottom - top),
         "children are not smaller parts of their parent's block in rank "
         "order")
    # A child smaller than a light parent is light, so only p-nodes list.
    fail(np.minimum(np.diff(np.append(0, np.cumsum(heavy))[cuts]), 2)
         != np.minimum(count, 2), "a node lists more than its heavy child "
         "without two heavy ones, or a light one alone")
    h = _boundary_lcps(index)
    d = depth[owner]
    fail((first > top) & (h[first - 1] != d)
         | (last < bottom) & (h[last] != d),
         "an LCP beside a child is not at its parent's depth")
    fail(depth[listed[heavy]] <= d[heavy],
         "a heavy child is not deeper than its parent")
    leaf = listed[heavy & (first == last)]
    fail(depth[leaf] != n + 1 - index.psa[lo[leaf] - 1],
         "a leaf is not as deep as its suffix")
    # Own ranks: the gaps before each child and after each node's last
    # one, and the whole block of a node that lists none.
    gap = first > prev + 1
    rest = np.append(~same, True) & (last < bottom)
    bare = (count == 0).nonzero()[0]
    starts = np.concatenate((prev[gap] + 1, last[rest] + 1, lo[bare]))
    whose = np.concatenate((owner[gap], owner[rest], bare))
    fail(count[whose] >= 2, "children do not partition their parent's block")
    floor = np.append(depth, np.zeros(size - pnodes, dtype=np.int64))
    floor[listed[~heavy]] = d[~heavy] + 1
    own = np.zeros(n + 1, dtype=np.int64)
    own[starts] = whose + 1  # 0 where no own ranks begin
    begins = own > 0
    own = own[np.maximum.accumulate(np.where(begins, np.arange(n + 1), 0))] - 1
    inside = ~begins[2:]  # boundary b lies among its owner's own ranks
    above = h[1:n] - floor[own[1:n]]
    fail(inside & (above < 0),
         "an LCP among a node's own ranks is below its depth")
    begins[2:] |= inside & (above == 0)  # pieces cut at the node's depth
    piece = begins.nonzero()[0]
    fail((np.diff(piece, append=n + 1) >= threshold)
         & (pnode & (lo < hi))[own[piece]],
         "a p-node's own ranks hold a heavy block at its depth")
    # Only branching nodes list siblings, so theirs are all the pairs.
    _, _, (_, row, sym) = tray_shape(tree, index)
    fail((sym[1:] <= sym[:-1]) & (row[1:] == row[:-1]),
         "children are not in first-symbol order")
