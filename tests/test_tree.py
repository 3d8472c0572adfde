import random

import numpy as np
import pytest

from pstray.encoding import STATIC_BASE, prev
from pstray.suffixes import PsaIndex, build_psa
from pstray.tree import TrayTree, build_tree, validate_tree

from conftest import (children, edge_length, edge_symbol, is_leaf,
                      kept_intervals, leaf_count, make_text, naive_intervals,
                      node_depth, node_label, random_text, tree_intervals)


def label_map(index, tree, text):
    """pretty label -> node id, for golden lookups on small trees."""
    out = {}
    for v in range(tree.size):
        codes = node_label(tree, index, v)
        pretty = []
        for c in codes:
            pretty.append(str(c) if c < STATIC_BASE
                          else text.id2tok[c - STATIC_BASE])
        out["".join(pretty)] = v
    return out


def test_demo_root_children(demo_text, demo_index):
    t, idx, tree = demo_text, demo_index.psa_index, demo_index.tree
    kids = children(tree, 0)
    assert len(kids) == 3
    syms = [edge_symbol(tree, idx, u, 1) for u in kids]
    assert syms == [0, STATIC_BASE + t.tok2id["A"], STATIC_BASE + t.sentinel]
    ranges = [(tree.lo[u], tree.hi[u]) for u in kids]
    assert ranges == [(1, 9), (10, 12), (13, 13)]


def test_demo_named_nodes(demo_text, demo_index):
    idx, tree = demo_index.psa_index, demo_index.tree
    labels = label_map(idx, tree, demo_text)
    v = labels["0A0"]
    assert tree.depth[v] == 3
    assert (tree.lo[v], tree.hi[v]) == (6, 8)
    assert (tree.lo[labels["00"]], tree.hi[labels["00"]]) == (1, 3)
    assert (tree.lo[labels["010"]], tree.hi[labels["010"]]) == (4, 5)
    assert (tree.lo[labels["A0"]], tree.hi[labels["A0"]]) == (10, 12)
    # "0A0" does not branch and has no heavy child, so its light children,
    # "0A014" (ranks 6..7) and the rank-8 leaf, are not kept.
    assert children(tree, v) == []
    assert "0A014" not in labels and tree.size == 8


def test_two_leaf_text():
    # Threshold 2: the root is heavy, its two leaves are not, so it lists
    # neither and the tree is the root alone.
    t = make_text("A", pi="", sigma="A")
    idx = build_psa(t)
    tree = build_tree(idx)
    assert (tree.size, tree.depth, children(tree, 0)) == (1, [0], [])
    validate_tree(tree, idx)


def test_edge_symbol_examples(demo_text, demo_index):
    t, idx, tree = demo_text, demo_index.psa_index, demo_index.tree
    labels = label_map(idx, tree, demo_text)
    child = labels["010"]  # light child of "0", ranks 4..5
    assert child in children(tree, labels["0"])
    assert edge_symbol(tree, idx, child, 1) == 1
    # every leaf edge ends with the sentinel
    for v in range(tree.size):
        if is_leaf(tree, v):
            sym = edge_symbol(tree, idx, v, edge_length(tree, idx, v))
            assert sym == STATIC_BASE + t.sentinel
    # the first symbol of each root child is its ordering key
    kids = children(tree, 0)
    syms = [edge_symbol(tree, idx, u, 1) for u in kids]
    assert syms == sorted(syms)


def test_leaf_labels_reproduce_suffix_encodings():
    """Every kept node's label is the common prefix of the materialized
    prev strings in its block, and the kept nodes are those of the
    interval definition. A light node keeps no depth; its label is read to
    the least LCP inside its block, which the comparison with the
    definition's depths checks."""
    rng = random.Random(909)
    for i in range(20):
        t = random_text(rng, max_n=500 if i < 4 else 120)
        idx = build_psa(t)
        tree = build_tree(idx)
        validate_tree(tree, idx)
        assert tree_intervals(tree, idx) == kept_intervals(
            naive_intervals(t), max(t.sigma, t.pi))
        encoded = [prev(t.symbol_array[start - 1:].tolist(), t.pi)
                   for start in idx.starts]
        for v in range(tree.size):
            label = list(node_label(tree, idx, v))
            assert all(e[:node_depth(tree, idx, v)] == label
                       for e in encoded[tree.lo[v] - 1:tree.hi[v]])
            if is_leaf(tree, v):
                assert label == encoded[tree.lo[v] - 1]


def test_structure_bounds():
    """At most 2n - 1 nodes, exactly the kept nodes of the definition, and
    the p-nodes first, each with a depth: a node listing two or more
    children tiles its block with them and at least two are heavy, a node
    listing one lists a heavy one, and only heavy nodes of more than one
    rank list any. The one-rank nodes are the definition's kept leaves;
    those that are p-nodes are as deep as their suffix is long."""
    rng = random.Random(13)
    for _ in range(25):
        t = random_text(rng, max_n=150)
        idx = build_psa(t)
        tree = build_tree(idx)
        threshold = max(t.sigma, t.pi)
        kept = kept_intervals(naive_intervals(t), threshold)
        assert tree.size <= 2 * t.n - 1
        assert len(tree_intervals(tree, idx)) == len(kept)
        pnodes = len(tree.depth)
        assert [leaf_count(tree, v) >= threshold for v in range(tree.size)] \
            == [v < pnodes for v in range(tree.size)]
        leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
        kept_leaves = [v for v, (up, _) in kept.items()
                       if up is not None and v[0] == v[1]]
        assert sorted((tree.lo[v], tree.hi[v], node_depth(tree, idx, v))
                      for v in leaves) == sorted(kept_leaves)
        for v in leaves:
            if v < pnodes:
                assert tree.depth[v] == t.n + 1 - idx.starts[tree.lo[v] - 1]
        for v in range(tree.size):
            kids = children(tree, v)
            if kids:
                assert v < pnodes and tree.lo[v] < tree.hi[v]
            if len(kids) >= 2:
                assert [tree.lo[u] for u in kids] == \
                    [tree.lo[v]] + [tree.hi[u] + 1 for u in kids[:-1]]
                assert tree.hi[kids[-1]] == tree.hi[v]
                assert sum(u < pnodes for u in kids) >= 2
            else:
                assert all(u < pnodes for u in kids)
        validate_tree(tree, idx)


def test_tree_lists_are_its_arrays():
    """The lists the query loop indexes are the int64 arrays, converted
    once, and the child cuts slice the child ids."""
    rng = random.Random(515)
    texts = [random_text(rng, max_n=200) for _ in range(6)]
    texts += [make_text("x" * 30, pi="x"), make_text("uvwxyz", pi="uvwxyz")]
    for t in texts:
        tree = build_tree(build_psa(t))
        for name in ("depth", "lo", "hi"):
            array = getattr(tree, f"{name}_array")
            assert array.dtype == np.int64
            assert getattr(tree, name) == array.tolist()
        assert tree.child_ids.dtype == np.int64
        cuts = tree.child_cuts
        assert cuts.dtype == np.int64 and len(cuts) == tree.size + 1
        assert cuts[0] == 0 and cuts[-1] == len(tree.child_ids)
        assert (np.diff(cuts) >= 0).all()


def forged_tree(tree, tamper, prune=False):
    """A new TrayTree from copies of ``tree``'s arrays after ``tamper``
    edits them: ``tamper(arrays, kids)`` gets the arrays by field name and
    the child lists, which are packed back into CSR form. With ``prune``,
    the nodes no longer reachable from the root are dropped and the rest
    renumbered in order, so the forgery is a tree again."""
    arrays = {f: getattr(tree, f).copy()
              for f in ("depth_array", "lo_array", "hi_array")}
    kids = [children(tree, v) for v in range(tree.size)]
    tamper(arrays, kids)
    if prune:
        keep, todo = [], [0]
        while todo:
            keep.append(todo.pop())
            todo += kids[keep[-1]]
        keep.sort()
        new = {v: i for i, v in enumerate(keep)}
        depth = arrays["depth_array"]
        arrays = {"depth_array": depth[[v for v in keep if v < len(depth)]],
                  "lo_array": arrays["lo_array"][keep],
                  "hi_array": arrays["hi_array"][keep]}
        kids = [[new[u] for u in kids[v]] for v in keep]
    return TrayTree(**arrays,
                    child_ids=np.array([u for k in kids for u in k],
                                       dtype=np.int64),
                    child_cuts=np.cumsum([0] + [len(k) for k in kids]))


def add_node(a, kids, lo, hi):
    """Append a light node over ranks lo..hi that lists nothing; its id."""
    for f, value in (("lo_array", lo), ("hi_array", hi)):
        a[f] = np.append(a[f], value)
    kids.append([])
    return len(kids) - 1


def test_validate_tree_catches_tampering(demo_text, demo_index):
    from pstray.errors import ValidationError

    tree, idx, t = demo_index.tree, demo_index.psa_index, demo_text
    labels = label_map(idx, tree, t)
    heavy = labels["0"]  # ranks 1..9, children 00, 010, 0A0, 0$; branches
    light = labels["010"]  # ranks 4..5, below the threshold of 3
    leaf = labels["0$"]
    plain = labels["0A0"]  # ranks 6..8, no heavy child: lists nothing

    def pnode_one_deeper(a, kids):
        a["depth_array"][plain] += 1

    def pnode_one_shallower(a, kids):
        a["depth_array"][plain] -= 1

    def heavy_too_deep(a, kids):
        a["depth_array"][heavy] += 1

    def heavy_child_as_shallow_as_parent(a, kids):
        a["depth_array"][labels["00"]] = a["depth_array"][heavy]

    def blocks_swapped(a, kids):  # two children trade ranks, not places
        x, y = kids[heavy][:2]
        for f in ("lo_array", "hi_array"):
            a[f][[x, y]] = a[f][[y, x]]

    def root_short(a, kids):
        a["hi_array"][0] = t.n - 1

    def block_before_rank_one(a, kids):
        a["lo_array"][leaf] = 0

    def leaf_with_child(a, kids):
        kids[leaf] = [light]

    def children_reversed(a, kids):
        kids[heavy] = kids[heavy][::-1]

    def child_listed_twice(a, kids):
        kids[labels["A0"]] = kids[labels["A0"]] + [leaf]

    def arrays_of_two_lengths(a, kids):
        a["hi_array"] = a["hi_array"][:-1]

    def depth_missing(a, kids):
        a["depth_array"] = a["depth_array"][:-1]

    # "0A0" cut at depth 3 into ranks 6..7 ("0A014") and the leaf 8.
    def nonbranching_lists_a_light_child(a, kids):
        kids[plain] = [add_node(a, kids, 6, 7)]

    def nonbranching_lists_its_light_children(a, kids):
        kids[plain] = [add_node(a, kids, 6, 7), add_node(a, kids, 8, 8)]

    def branching_cut_to_one_child(a, kids):
        kids[heavy] = [labels["00"]]

    def branching_drops_a_light_child(a, kids):
        kids[heavy].remove(light)

    for tamper, prune, match in (
            (pnode_one_deeper, False, "own ranks is below its depth"),
            (pnode_one_shallower, False, "own ranks hold a heavy block"),
            (heavy_too_deep, False, "beside a child"),
            (heavy_child_as_shallow_as_parent, False, "not deeper"),
            (blocks_swapped, False, "with a depth are not the p-nodes"),
            (root_short, False, "root"),
            (block_before_rank_one, False, "not a rank range"),
            (leaf_with_child, False, "listed exactly once"),
            (children_reversed, False, "rank order"),
            (child_listed_twice, False, "listed exactly once"),
            (arrays_of_two_lengths, False, "different lengths"),
            (depth_missing, False, "with a depth are not the p-nodes"),
            (nonbranching_lists_a_light_child, False, "a light one alone"),
            (nonbranching_lists_its_light_children, False,
             "without two heavy ones"),
            (branching_cut_to_one_child, True, "own ranks hold a heavy block"),
            (branching_drops_a_light_child, True, "do not partition")):
        with pytest.raises(ValidationError, match=match):
            validate_tree(forged_tree(tree, tamper, prune), idx)
    validate_tree(forged_tree(tree, lambda a, kids: None, True), idx)
    validate_tree(tree, idx)

    # On "xxxxA" (threshold 2) no node branches: the root lists ranks
    # 1..4 at depth 1, which lists 1..3, which lists 1..2. On "xxxx"
    # (threshold 1) every node is a p-node, so the leaves have depths.
    def heavy_child_dropped(a, kids):
        kids[0] = []

    def sole_parent_one_deeper(a, kids):
        a["depth_array"][1] += 1

    def leaf_too_deep(a, kids):
        a["depth_array"][-1] += 1

    for raw, tamper, prune, match in (
            ("xxxxA", heavy_child_dropped, True, "hold a heavy block"),
            ("xxxxA", sole_parent_one_deeper, False, "beside a child"),
            ("xxxx", leaf_too_deep, False, "as deep as its suffix")):
        other = make_text(raw, pi="x")
        other_idx = build_psa(other)
        built = build_tree(other_idx)
        validate_tree(built, other_idx)
        with pytest.raises(ValidationError, match=match):
            validate_tree(forged_tree(built, tamper, prune), other_idx)

    # Cuts that do not slice the child ids: one past the end, or falling.
    for cuts in (tree.child_cuts + 1, tree.child_cuts[::-1]):
        bad = TrayTree(tree.depth_array, tree.lo_array, tree.hi_array,
                       tree.child_ids, cuts)
        with pytest.raises(ValidationError, match="child cuts"):
            validate_tree(bad, idx)

    # A tree that agrees with its LCP array but not with the symbol order:
    # the root's blocks "0" (ranks 1..9) and "A0" (10..12) trade places.
    psa, plcp = idx.psa, idx.plcp
    swapped = PsaIndex(
        text=t, psa=np.concatenate((psa[9:12], psa[:9], psa[12:])),
        plcp=np.concatenate(([0], plcp[10:12], [0], plcp[1:9], plcp[12:])))
    with pytest.raises(ValidationError, match="first-symbol order"):
        validate_tree(build_tree(swapped), swapped)
