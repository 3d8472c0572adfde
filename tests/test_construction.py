"""Construction stages after the suffix sort, each against a reference
computed straight from its definition."""

import random

import numpy as np

from pstray.alphabet import AlphabetSpec, PText
from pstray.encoding import pfunction_from_fpos
from pstray.oracle import fpos
from pstray.suffixes import build_psa
from pstray.tray import _canonical_ids, assemble, validate_annotations
from pstray.tree import (NO_NODE, _nearest_smaller, build_tree, tray_shape,
                         validate_tree)

from conftest import (DEMO_TEXT, children, edge_symbol, kept_intervals,
                      lcp_intervals, leaf_count, make_text, naive_intervals,
                      random_text, tree_intervals)
from test_suffixes import clone_text


def construction_texts():
    rng = random.Random(4040)
    texts = [random_text(rng, max_n=300 if i < 6 else 100) for i in range(30)]
    # Runs and periodic texts give deep chains of nested nodes.
    texts += [make_text(raw, pi="xy") for k in (1, 2, 9, 70)
              for raw in ("x" * k, "xy" * k, "xyA" * k)]
    texts += [make_text("A" * 50, pi="", sigma="A")]
    for mutate in (0.0, 0.03):
        texts += [clone_text(rng, copies, block_len, mutate)
                  for copies, block_len in ((10, 30), (3, 90), (25, 5))]
    return texts


def test_build_tree_matches_interval_definition():
    """The kept tree is exactly the heavy LCP intervals, the children of
    the branching ones and the heavy child of each other one: lo, hi,
    depth, parent and ordered children, against the enumeration from
    materialized prev strings. Runs of one parameterized symbol have
    threshold 1 (every node is kept), "A" * 50 has pi = 0, and the texts
    of one and two symbols hold two and three suffixes."""
    texts = construction_texts()
    texts += [make_text(raw, pi="xy") for raw in ("x", "xx", "xA", "xy")]
    texts += [make_text("AB", pi="", sigma="AB")]
    for t in texts:
        idx = build_psa(t)
        tree = build_tree(idx)
        validate_tree(tree, idx)
        got = tree_intervals(tree, idx)
        assert len(got) == tree.size
        full = naive_intervals(t)
        assert lcp_intervals(idx.starts, idx.lcps) == full
        assert got == kept_intervals(full, max(t.sigma, t.pi))
        # A threshold of 1 keeps the whole tree.
        if max(t.sigma, t.pi) == 1:
            assert len(got) == len(full)


def test_build_tree_of_one_suffix():
    # The end marker alone: the root holds the one rank and lists nothing.
    t = PText(symbol_array=np.array([1], dtype=np.int64), pi=0, sigma=1,
              tok2id={}, spec=AlphabetSpec(pi_members=frozenset()))
    idx = build_psa(t)
    tree = build_tree(idx)
    validate_tree(tree, idx)
    assert tree_intervals(tree, idx) == kept_intervals(naive_intervals(t), 1) \
        == {(1, 1, 0): (None, [])}


def test_build_tree_on_long_rising_and_falling_lcps():
    """``x^k y`` has LCPs 1, 2, ..., k-1, 1, 0 and its mirror ``y x^k``
    has 1, k-1, ..., 1, 0: one pointer-jumping round per rank would be
    Theta(k) rounds. With threshold 2 every internal node is heavy and
    none has two heavy children, so the kept tree is the internal nodes,
    each listing its one internal child; it is checked against the stack
    pass over the LCP array."""
    k = 30_000
    for raw in ("x" * k + "y", "y" + "x" * k):
        t = make_text(raw, pi="xy")
        idx = build_psa(t)
        tree = build_tree(idx)
        validate_tree(tree, idx)
        full = lcp_intervals(idx.starts, idx.lcps)
        assert tree_intervals(tree, idx) == kept_intervals(full, 2)
        assert tree.size == len(tree.depth) == k


def test_nearest_smaller_matches_a_scan():
    """Pointer jumping and, past its round budget, binary lifting find the
    nearest strictly smaller entry to the left, ties included. A rising
    run that drops back (the LCPs of ``x^k y``) outlasts the budget."""
    rng = random.Random(77)
    runs = [list(range(1, 300)) + [1, 0], list(range(300, 0, -1)),
            [1] * 200 + [0], [5, 1] * 100 + list(range(9, 1, -1)) * 30,
            (list(range(2, 90)) + [1]) * 5]
    cases = [[rng.randint(0, rng.choice((1, 3, 50))) for _ in range(
        rng.randint(0, 400))] for _ in range(60)] + runs
    for inner in cases:
        h = np.array([-1] + inner + [-1], dtype=np.int64)
        got = _nearest_smaller(h)[1:-1].tolist()
        want = [max(j for j in range(i) if h[j] < h[i])
                for i in range(1, len(h) - 1)]
        assert got == want


def test_tray_shape_matches_the_child_lists():
    """Flags from leaf counts, the branching nodes with their depths and
    leftmost suffixes, and their children in order with each one's first
    edge symbol, node by node from the child lists."""
    texts = [make_text(DEMO_TEXT, pi="xyz", sigma="A")] + construction_texts()
    for t in texts:
        index = assemble(t)
        tree, idx = index.tree, index.psa_index
        flags, (nodes, depth, reps), (kids, row, sym) = tray_shape(tree, idx)
        threshold = max(t.sigma, t.pi)
        lists = [children(tree, v) for v in range(tree.size)]
        heavy = [[u for u in c if leaf_count(tree, u) >= threshold]
                 for c in lists]
        branching = [v for v in range(tree.size) if len(heavy[v]) >= 2]
        assert [flag.tolist() for flag in flags] == [
            [leaf_count(tree, v) >= threshold for v in range(tree.size)],
            [len(h) >= 2 for h in heavy],
            [h[0] if len(h) == 1 else NO_NODE for h in heavy]]
        assert nodes.tolist() == branching
        assert depth.tolist() == [tree.depth[v] for v in branching]
        assert reps.tolist() == [idx.starts[tree.lo[v] - 1] for v in branching]
        pairs = [(j, u) for j, v in enumerate(branching) for u in lists[v]]
        assert list(zip(row.tolist(), kids.tolist())) == pairs
        assert sym.tolist() == [edge_symbol(tree, idx, u, 1) for _, u in pairs]


def test_annotations_match_definitions():
    for t in construction_texts():
        index = assemble(t)
        tree, ann, idx = index.tree, index.ann, index.psa_index
        validate_annotations(tree, ann, idx)
        # Only branching nodes dispatch, so only they get a row of canonical
        # ids: the renaming of the window at their leftmost leaf.
        branching = [v for v in range(tree.size) if ann.is_branching[v]]
        assert branching == sorted(ann.parray)
        reps = [idx.starts[tree.lo[v] - 1] for v in branching]
        table = _canonical_ids(t, reps, [tree.depth[v] for v in branching])
        assert len(table) == len(branching)
        for v, rep, row in zip(branching, reps, table):
            assert len(row) == t.pi + 1
            fmap = pfunction_from_fpos(tree.depth[v], fpos(t, rep))
            assert {x: c for x, c in enumerate(row) if x and c} == fmap
            assert row[0] == len(fmap)
