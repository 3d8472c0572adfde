"""Construction stages after the suffix sort, each against a reference
computed straight from its definition."""

import random

from pstray.encoding import fpos, pfunction_from_fpos
from pstray.suffixes import build_psa
from pstray.tray import _canonical_ids, assemble, validate_annotations
from pstray.tree import build_tree, validate_tree

from conftest import make_text, random_text
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


def interval_nodes(psa, plcp, n):
    """(lo, hi, depth) of every tree node from the LCP-interval definition:
    rank interval [i, j] with i < j is an internal node of depth l when l is
    the least LCP inside it and both LCPs just outside it are below l. Each
    rank r is also a leaf, as deep as its suffix is long. O(n^2)."""
    nodes = {(r, r, n + 1 - psa[r - 1]) for r in range(1, n + 1)}
    outside = plcp[1:] + [-1]  # outside[j - 1]: the LCP just after rank j
    for i in range(1, n + 1):
        least = None
        for j in range(i + 1, n + 1):
            h = plcp[j - 1]
            least = h if least is None else min(least, h)
            if (i == 1 or plcp[i - 1] < least) and outside[j - 1] < least:
                nodes.add((i, j, least))
    return nodes


def test_build_tree_matches_interval_definition():
    for t in construction_texts():
        idx = build_psa(t)
        tree = build_tree(idx, t)
        validate_tree(tree, idx, t)
        got = {(tree.lo[v], tree.hi[v], tree.depth[v])
               for v in range(tree.size)}
        assert len(got) == tree.size
        assert got == interval_nodes(idx.psa.tolist(), idx.plcp.tolist(),
                                     t.n)
        # leaf r holds the suffix of rank r, as deep as that suffix is long
        psa = idx.psa.tolist()
        assert idx.starts == psa
        assert [(tree.lo[r], tree.hi[r], tree.depth[r])
                for r in range(1, t.n + 1)] == \
            [(r, r, t.n + 1 - p) for r, p in enumerate(psa, start=1)]
        assert [v for v in range(tree.size) if tree.is_leaf(v)] == \
            list(range(1, t.n + 1))


def test_annotations_match_definitions():
    for t in construction_texts():
        index = assemble(t)
        tree, ann, idx = index.tree, index.ann, index.psa_index
        validate_annotations(tree, ann, t, idx)
        # Only branching nodes dispatch, so only they get a row of canonical
        # ids: the renaming of the window at their leftmost leaf.
        branching = [v for v in range(tree.size) if ann.is_branching[v]]
        assert branching == sorted(ann.parray)
        reps = [idx.starts[tree.lo[v] - 1] for v in branching]
        table = _canonical_ids(t, reps, [tree.depth[v] for v in branching])
        assert len(table) == len(branching)
        for v, rep, row in zip(branching, reps, table):
            assert len(row) == t.pi + 1
            fmap = pfunction_from_fpos(t, rep, tree.depth[v], fpos(t, rep))
            assert {x: c for x, c in enumerate(row) if x and c} == fmap
            assert row[0] == len(fmap)
