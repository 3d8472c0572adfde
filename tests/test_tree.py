import random

import numpy as np
import pytest

from pstray.encoding import STATIC_BASE, prev
from pstray.errors import QueryError
from pstray.suffixes import PsaIndex, build_psa
from pstray.tree import TrayTree, build_tree, edge_symbol, validate_tree

from conftest import (edge_length, is_leaf, kept_intervals, leaf_count,
                      make_text, naive_intervals, node_label, random_text,
                      tree_intervals)


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
    kids = tree.children(tree.root)
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


def test_two_leaf_text():
    t = make_text("A", pi="", sigma="A")
    idx = build_psa(t)
    tree = build_tree(idx, t)
    assert tree.size == 3
    assert [is_leaf(tree, u) for u in tree.children(tree.root)] == [True, True]
    validate_tree(tree, idx, t)


def test_edge_symbol_examples(demo_text, demo_index):
    t, idx, tree = demo_text, demo_index.psa_index, demo_index.tree
    labels = label_map(idx, tree, demo_text)
    child = labels["0A014"]  # child of "0A0" toward ranks 6..7
    assert tree.parent[child] == labels["0A0"]
    assert edge_symbol(tree, idx, child, 1) == 1
    # every leaf edge ends with the sentinel
    for v in range(tree.size):
        if is_leaf(tree, v):
            sym = edge_symbol(tree, idx, v, edge_length(tree, v))
            assert sym == STATIC_BASE + t.sentinel
    # the first symbol of each root child is its ordering key
    kids = tree.children(tree.root)
    syms = [edge_symbol(tree, idx, u, 1) for u in kids]
    assert syms == sorted(syms)
    with pytest.raises(QueryError):
        edge_symbol(tree, idx, child, 0)
    with pytest.raises(QueryError):
        edge_symbol(tree, idx, child, edge_length(tree, child) + 1)
    # the root has no entering edge, and ids outside the tree name no node
    for node in (tree.root, -1, tree.size, tree.size + 5):
        with pytest.raises(QueryError):
            edge_symbol(tree, idx, node, 1)


def test_leaf_labels_reproduce_suffix_encodings():
    """Every kept node's label is the common prefix of the materialized
    prev strings in its block, and the kept nodes are those of the
    interval definition."""
    rng = random.Random(909)
    for i in range(20):
        t = random_text(rng, max_n=500 if i < 4 else 120)
        idx = build_psa(t)
        tree = build_tree(idx, t)
        validate_tree(tree, idx, t)
        assert tree_intervals(tree) == kept_intervals(
            naive_intervals(t), max(t.sigma, t.pi))
        encoded = [prev(t.symbol_array[start - 1:].tolist(), t.pi)
                   for start in idx.starts]
        for v in range(tree.size):
            label = list(node_label(tree, idx, v))
            assert all(e[:tree.depth[v]] == label
                       for e in encoded[tree.lo[v] - 1:tree.hi[v]])
            if is_leaf(tree, v):
                assert label == encoded[tree.lo[v] - 1]


def test_structure_bounds():
    """At most 2n - 1 nodes, and exactly the kept nodes of the definition:
    the heavy ones list children that tile their block, and the others
    list none."""
    rng = random.Random(13)
    for _ in range(25):
        t = random_text(rng, max_n=150)
        idx = build_psa(t)
        tree = build_tree(idx, t)
        threshold = max(t.sigma, t.pi)
        assert tree.size <= 2 * t.n - 1
        assert len(tree_intervals(tree)) == len(
            kept_intervals(naive_intervals(t), threshold))
        for v in range(tree.size):
            kids = tree.children(v)
            if leaf_count(tree, v) >= threshold and tree.lo[v] < tree.hi[v]:
                assert [tree.lo[u] for u in kids] == \
                    [tree.lo[v]] + [tree.hi[u] + 1 for u in kids[:-1]]
                assert tree.hi[kids[-1]] == tree.hi[v]
            else:
                assert not kids
            assert is_leaf(tree, v) == (v != tree.root
                                       and tree.lo[v] == tree.hi[v])
        validate_tree(tree, idx, t)


def test_tree_lists_are_its_arrays():
    """The lists the query loop indexes are the int64 arrays, converted
    once; the children of a node are its CSR slice."""
    rng = random.Random(515)
    texts = [random_text(rng, max_n=200) for _ in range(6)]
    texts += [make_text("x" * 30, pi="x"), make_text("uvwxyz", pi="uvwxyz")]
    for t in texts:
        tree = build_tree(build_psa(t), t)
        for name in ("depth", "lo", "hi"):
            array = getattr(tree, f"{name}_array")
            assert array.dtype == np.int64
            assert getattr(tree, name) == array.tolist()
        assert tree.parent.dtype == tree.child_ids.dtype == np.int64
        cuts = tree.child_cuts.tolist()
        assert len(cuts) == tree.size + 1
        assert [tree.children(v) for v in range(tree.size)] == [
            tree.child_ids[a:b].tolist() for a, b in zip(cuts, cuts[1:])]


def forged_tree(tree, tamper):
    """A new TrayTree from copies of ``tree``'s arrays after ``tamper``
    edits them: ``tamper(arrays, kids)`` gets the arrays by field name and
    the child lists, which are packed back into CSR form."""
    arrays = {f: getattr(tree, f).copy()
              for f in ("parent", "depth_array", "lo_array", "hi_array")}
    kids = [tree.children(v) for v in range(tree.size)]
    tamper(arrays, kids)
    return TrayTree(**arrays,
                    child_ids=np.array([u for k in kids for u in k],
                                       dtype=np.int64),
                    child_cuts=np.cumsum([0] + [len(k) for k in kids]))


def test_validate_tree_catches_tampering(demo_text, demo_index):
    from pstray.errors import ValidationError

    tree, idx, t = demo_index.tree, demo_index.psa_index, demo_text
    labels = label_map(idx, tree, t)
    heavy = labels["0"]  # ranks 1..9, children 00, 010, 0A0, 0$
    light = labels["010"]  # ranks 4..5, below the threshold of 3
    leaf = labels["0$"]

    def leaf_too_deep(a, kids):
        a["depth_array"][leaf] += 1

    def light_too_shallow(a, kids):
        a["depth_array"][light] -= 1

    def heavy_too_deep(a, kids):
        a["depth_array"][heavy] += 1

    def blocks_swapped(a, kids):  # two children trade ranks, not places
        x, y = kids[heavy][:2]
        for f in ("lo_array", "hi_array"):
            a[f][[x, y]] = a[f][[y, x]]

    def root_short(a, kids):
        a["hi_array"][tree.root] = t.n - 1

    def leaf_with_child(a, kids):
        kids[leaf] = [light]

    def children_reversed(a, kids):
        kids[heavy] = kids[heavy][::-1]

    def heavy_lists_nothing(a, kids):
        kids[labels["0A0"]] = []

    def child_listed_twice(a, kids):
        kids[labels["A0"]] = kids[labels["A0"]] + [leaf]

    def parent_link_wrong(a, kids):
        a["parent"][light] = tree.root

    def arrays_of_two_lengths(a, kids):
        a["depth_array"] = a["depth_array"][:-1]

    for tamper in (leaf_too_deep, light_too_shallow, heavy_too_deep,
                   blocks_swapped, root_short, leaf_with_child,
                   children_reversed, heavy_lists_nothing,
                   child_listed_twice, parent_link_wrong,
                   arrays_of_two_lengths):
        with pytest.raises(ValidationError):
            validate_tree(forged_tree(tree, tamper), idx, t)
    validate_tree(forged_tree(tree, lambda a, kids: None), idx, t)
    validate_tree(tree, idx, t)

    # Cuts that do not slice the child ids: one past the end, or falling.
    for cuts in (tree.child_cuts + 1, tree.child_cuts[::-1]):
        bad = TrayTree(tree.parent, tree.depth_array, tree.lo_array,
                       tree.hi_array, tree.child_ids, cuts)
        with pytest.raises(ValidationError, match="child cuts"):
            validate_tree(bad, idx, t)

    # A tree that agrees with its LCP array but not with the symbol order:
    # the root's blocks "0" (ranks 1..9) and "A0" (10..12) trade places.
    psa, plcp = idx.psa, idx.plcp
    swapped = PsaIndex(
        psa=np.concatenate((psa[9:12], psa[:9], psa[12:])),
        plcp=np.concatenate(([0], plcp[10:12], [0], plcp[1:9], plcp[12:])),
        codes=idx.codes)
    with pytest.raises(ValidationError, match="first-symbol order"):
        validate_tree(build_tree(swapped, t), swapped, t)
