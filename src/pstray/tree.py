"""Compact trie over the prev-encoded suffixes, as a node array.

The tree is the LCP-interval tree of the sorted suffixes (Abouelhoda,
Kurtz & Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
2004): one left-to-right pass over the adjacent-LCP array with a stack of
open internal nodes, where an LCP drop closes every node deeper than the
new common depth. Edge labels are never stored; an edge is a depth window
of any suffix below the node, resolved symbol-by-symbol through the O(1)
window adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alphabet import PText
from .encoding import prev_char_in_window
from .errors import ValidationError
from .suffixes import PsaIndex

NO_NODE = -1


@dataclass(eq=False)
class TrayTree:
    """Node-array tree. All per-node data is parallel lists indexed by
    node id: node 0 is the root, nodes 1..n are the leaves in suffix-array
    rank order (leaf ``r`` holds the suffix of rank ``r``), and the
    internal nodes follow in the order they open.

    ``lo``/``hi`` are 1-based suffix-array ranks delimiting the node's leaf
    block; ``depth`` is the string depth (encoded symbols from the root);
    ``leaf_pos`` is the 1-based suffix start for leaves, 0 for internal
    nodes; ``children`` lists child ids in lexicographic edge order (every
    leaf shares one empty tuple).
    """

    parent: list[int] = field(default_factory=list)
    depth: list[int] = field(default_factory=list)
    lo: list[int] = field(default_factory=list)
    hi: list[int] = field(default_factory=list)
    leaf_pos: list[int] = field(default_factory=list)
    children: list[list[int] | tuple[int, ...]] = field(default_factory=list)

    root: int = 0

    @property
    def size(self) -> int:
        return len(self.parent)

    def is_leaf(self, v: int) -> bool:
        return self.leaf_pos[v] != 0

    def leaf_count(self, v: int) -> int:
        return self.hi[v] - self.lo[v] + 1

    def edge_length(self, v: int) -> int:
        return self.depth[v] - self.depth[self.parent[v]]


def build_tree(index: PsaIndex, text: PText) -> TrayTree:
    """Materialize the compact trie from the sorted suffixes in one O(n)
    pass over the LCP array.

    Leaves are laid out up front from the suffix array. Rank ``r`` then
    closes the open nodes deeper than ``plcp[r - 1]``, attaching the
    previous closed subtree to each, and opens a node of that depth when
    none is open; a node's ``lo`` is set when it opens and its ``hi`` when
    it closes.
    """
    n = text.n
    psa = index.psa.tolist()
    lcps = index.lcps
    parent = [NO_NODE] * (n + 1)
    depth = [0] + [n + 1 - p for p in psa]
    lo = list(range(n + 1))
    hi = list(range(n + 1))
    lo[0], hi[0] = 1, n
    leaf_pos = [0] + psa
    children: list[list[int] | tuple[int, ...]] = [()] * (n + 1)
    children[0] = []

    stack = [0]  # open internal nodes, the root at the bottom
    top = 0
    # Rank r > 1 meets the LCP with rank r - 1; a final -1 closes the root.
    for r, l in enumerate(lcps[1:] + [-1], start=2):
        last = r - 1  # the previous leaf, deeper than any LCP it takes part in
        while depth[top] > l:
            stack.pop()
            hi[top] = r - 1
            parent[last] = top
            children[top].append(last)
            last = top
            if not stack:
                break
            top = stack[-1]
        else:
            if depth[top] == l:
                parent[last] = top
                children[top].append(last)
            else:
                mid = len(depth)
                depth.append(l)
                lo.append(lo[last])
                hi.append(0)
                parent.append(NO_NODE)
                leaf_pos.append(0)
                children.append([last])
                parent[last] = mid
                stack.append(mid)
                top = mid
    return TrayTree(parent=parent, depth=depth, lo=lo, hi=hi,
                    leaf_pos=leaf_pos, children=children)


def edge_symbol(tree: TrayTree, index: PsaIndex, node: int, offset: int) -> int:
    """Symbol ``offset`` (1-based) of the edge entering ``node``.

    Resolved through any leaf below the node; with the leftmost one the
    window start is ``psa[lo]``.
    """
    if not (1 <= offset <= tree.edge_length(node)):
        raise ValueError(f"edge offset {offset} out of range for node {node}")
    start = index.suffix_at(tree.lo[node])
    return prev_char_in_window(index.codes, start, tree.depth[tree.parent[node]] + offset)


def first_edge_symbol(tree: TrayTree, index: PsaIndex, node: int) -> int:
    return edge_symbol(tree, index, node, 1)


def node_label(tree: TrayTree, index: PsaIndex, node: int) -> tuple[int, ...]:
    """Full root-to-node label as encoded symbol codes (test/debug helper)."""
    start = index.suffix_at(tree.lo[node])
    return tuple(prev_char_in_window(index.codes, start, d)
                 for d in range(1, tree.depth[node] + 1))


def validate_tree(tree: TrayTree, index: PsaIndex, text: PText) -> None:
    """Structural invariants: ordered children partition the parent's leaf
    block, internal non-root nodes branch, node count is linear."""
    n = text.n
    if tree.size > max(2 * n - 1, 1):
        raise ValidationError("node count exceeds 2n-1")
    leaves_seen = 0
    for v in range(tree.size):
        kids = tree.children[v]
        if tree.is_leaf(v):
            leaves_seen += 1
            if kids:
                raise ValidationError(f"leaf {v} has children")
            if tree.depth[v] != n - tree.leaf_pos[v] + 1:
                raise ValidationError(f"leaf {v} depth mismatch")
            continue
        if v != tree.root and len(kids) < 2:
            raise ValidationError(f"internal node {v} has {len(kids)} child(ren)")
        expect = tree.lo[v]
        prev_sym = None
        for u in kids:
            if tree.lo[u] != expect:
                raise ValidationError(f"children of {v} do not partition its range")
            expect = tree.hi[u] + 1
            if tree.parent[u] != v:
                raise ValidationError(f"child {u} of {v} has another parent")
            if tree.depth[u] <= tree.depth[v]:
                raise ValidationError(f"child {u} not deeper than parent {v}")
            sym = first_edge_symbol(tree, index, u)
            if prev_sym is not None and not prev_sym < sym:
                raise ValidationError(f"children of {v} not in symbol order")
            prev_sym = sym
        if kids and expect != tree.hi[v] + 1:
            raise ValidationError(f"children of {v} do not cover its range")
    if leaves_seen != n:
        raise ValidationError(f"expected {n} leaves, found {leaves_seen}")
