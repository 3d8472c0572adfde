import random

import pytest

from pstray.encoding import STATIC_BASE, prev
from pstray.suffixes import build_psa
from pstray.tree import (build_tree, edge_symbol, first_edge_symbol,
                         node_label, validate_tree)

from conftest import make_text, random_text


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
    kids = tree.children[tree.root]
    assert len(kids) == 3
    syms = [first_edge_symbol(tree, idx, u) for u in kids]
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
    assert [tree.is_leaf(u) for u in tree.children[tree.root]] == [True, True]
    validate_tree(tree, idx, t)


def test_edge_symbol_examples(demo_text, demo_index):
    t, idx, tree = demo_text, demo_index.psa_index, demo_index.tree
    labels = label_map(idx, tree, demo_text)
    child = labels["0A014"]  # child of "0A0" toward ranks 6..7
    assert tree.parent[child] == labels["0A0"]
    assert edge_symbol(tree, idx, child, 1) == 1
    # every leaf edge ends with the sentinel
    for v in range(tree.size):
        if tree.is_leaf(v):
            sym = edge_symbol(tree, idx, v, tree.edge_length(v))
            assert sym == STATIC_BASE + t.sentinel
    # the first symbol of each root child is its ordering key
    kids = tree.children[tree.root]
    syms = [edge_symbol(tree, idx, u, 1) for u in kids]
    assert syms == sorted(syms)
    with pytest.raises(ValueError):
        edge_symbol(tree, idx, child, 0)
    with pytest.raises(ValueError):
        edge_symbol(tree, idx, child, tree.edge_length(child) + 1)


def test_leaf_labels_reproduce_suffix_encodings():
    rng = random.Random(909)
    for i in range(20):
        t = random_text(rng, max_n=500 if i < 4 else 120)
        idx = build_psa(t)
        tree = build_tree(idx, t)
        validate_tree(tree, idx, t)
        for v in range(tree.size):
            if tree.is_leaf(v):
                start = idx.starts[v - 1]
                assert list(node_label(tree, idx, v)) == \
                    prev(t.symbols[start - 1:], t.pi)


def test_structure_bounds():
    rng = random.Random(13)
    for _ in range(25):
        t = random_text(rng, max_n=150)
        idx = build_psa(t)
        tree = build_tree(idx, t)
        assert tree.size <= 2 * t.n - 1
        leaves = [v for v in range(tree.size) if tree.is_leaf(v)]
        assert len(leaves) == t.n
        validate_tree(tree, idx, t)


def test_validate_tree_catches_tampering(demo_text, demo_index):
    import copy

    from pstray.errors import ValidationError

    tree, idx, n = demo_index.tree, demo_index.psa_index, demo_text.n
    inner = n + 1  # the first internal node after the root

    def leaf_too_deep(tr):
        tr.depth[3] += 1

    def leaves_renumbered(tr):  # leaf r must hold rank r
        tr.lo[1], tr.lo[2] = tr.lo[2], tr.lo[1]
        tr.hi[1], tr.hi[2] = tr.hi[2], tr.hi[1]
        kids = tr.children[tr.parent[1]]
        i, j = kids.index(1), kids.index(2)
        kids[i], kids[j] = kids[j], kids[i]

    def root_short(tr):
        tr.hi[tr.root] = n - 1

    def leaf_with_child(tr):
        tr.children[2] = [1]

    def children_reversed(tr):
        tr.children[inner] = tr.children[inner][::-1]

    for tamper in (leaf_too_deep, leaves_renumbered, root_short,
                   leaf_with_child, children_reversed):
        bad = copy.deepcopy(tree)
        tamper(bad)
        with pytest.raises(ValidationError):
            validate_tree(bad, idx, demo_text)
    validate_tree(tree, idx, demo_text)
