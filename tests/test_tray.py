import math
import random

import numpy as np
import pytest

from pstray.alphabet import encode_pattern
from pstray.encoding import spe
from pstray.errors import QueryError
from pstray.oracle import naive_parray, naive_ppm
from pstray.suffixes import build_psa
from pstray.tray import (assemble, build_parrays, classify_pnodes,
                         compute_pfunctions, propagate_rep_pairs, query,
                         validate_annotations)
from pstray.tree import NO_NODE, build_tree

from conftest import make_text, random_pattern, random_text
from test_tree import label_map


def labelled(demo_index, demo_text):
    return label_map(demo_index.psa_index, demo_index.tree, demo_text)


# ------------------------------------------------------------ classification

def test_demo_pnode_sets(demo_text, demo_index):
    tree, ann = demo_index.tree, demo_index.ann
    labels = labelled(demo_index, demo_text)
    assert ann.threshold == 3
    pnames = {lbl for lbl, v in labels.items() if ann.is_pnode[v]}
    assert pnames == {"", "0", "00", "0A0", "A0"}
    bnames = {lbl for lbl, v in labels.items() if ann.is_branching[v]}
    assert bnames == {"", "0"}


def test_demo_heavy_children(demo_text, demo_index):
    ann = demo_index.ann
    labels = labelled(demo_index, demo_text)
    # "00" is a p-node with no p-node children: nothing to point at
    assert ann.heavy_child[labels["00"]] == NO_NODE
    assert ann.heavy_child[labels["0A0"]] == NO_NODE
    assert ann.heavy_child[labels["A0"]] == NO_NODE


def test_small_text_only_root_can_be_pnode():
    t = make_text("xA", pi="x")
    idx = build_psa(t)
    tree = build_tree(idx, t)
    ann = classify_pnodes(tree, t)
    assert ann.is_pnode[tree.root]
    assert all(not ann.is_pnode[v] for v in range(1, tree.size)
               if tree.leaf_count(v) < ann.threshold)


# ------------------------------------------------------------ rep pairs

def test_demo_rep_positions(demo_text, demo_index):
    ann = demo_index.ann
    labels = labelled(demo_index, demo_text)
    assert ann.rep_pos[labels["0"]] == 12
    assert ann.rep_pos[labels[""]] == 13


def test_rep_is_subtree_max(demo_text, demo_index):
    tree, ann, idx = demo_index.tree, demo_index.ann, demo_index.psa_index
    for v, pos in ann.rep_pos.items():
        members = idx.starts[tree.lo[v] - 1:tree.hi[v]]
        assert pos == max(members)


# ------------------------------------------------------------ p-arrays

def test_demo_parray_at_branching_node(demo_text, demo_index):
    t = demo_text
    tree, ann = demo_index.tree, demo_index.ann
    labels = labelled(demo_index, demo_text)
    v = labels["0"]
    par = ann.parray[v]
    x, y, z, a = (t.tok2id[c] for c in "xyzA")
    assert par[x] == labels["010"]
    assert par[y] == labels["00"]
    assert par[z] == labels["00"]
    assert par[a] == labels["0A0"]
    assert par[t.sentinel] == labels["0$"]
    assert tree.is_leaf(par[t.sentinel])


def test_demo_parray_at_root(demo_text, demo_index):
    t = demo_text
    ann = demo_index.ann
    labels = labelled(demo_index, demo_text)
    par = ann.parray[labels[""]]
    for c in "xyz":  # at the root every parameterized symbol is fresh
        assert par[t.tok2id[c]] == labels["0"]
    assert par[t.tok2id["A"]] == labels["A0"]
    assert par[t.sentinel] == labels["$"]


def test_demo_parrays_match_oracle(demo_text, demo_index):
    tree, ann, idx = demo_index.tree, demo_index.ann, demo_index.psa_index
    for v in range(tree.size):
        if ann.is_branching[v]:
            assert ann.parray[v] == naive_parray(tree, demo_text, idx, v)


def test_nonbranching_relation_testable_via_oracle(demo_text, demo_index):
    # "0A0" holds no dispatch array, but the defining relation still names
    # its distance-1 child through the second canonical symbol (y).
    t = demo_text
    tree, idx = demo_index.tree, demo_index.psa_index
    labels = labelled(demo_index, demo_text)
    arr = naive_parray(tree, t, idx, labels["0A0"])
    assert arr[t.tok2id["y"]] == labels["0A014"]
    assert arr[t.tok2id["x"]] == NO_NODE  # prev(xAxx)=0A02 extends no child
    leaf = arr[t.tok2id["A"]]  # prev(xAyA)=0A0A prefixes only the rank-8 leaf
    assert tree.is_leaf(leaf) and tree.lo[leaf] == 8


def test_parray_pipeline_vs_oracle_randomized():
    rng = random.Random(606)
    for _ in range(80):
        t = random_text(rng, max_n=120)
        index = assemble(t)
        for v in range(index.tree.size):
            if index.ann.is_branching[v]:
                expect = naive_parray(index.tree, t, index.psa_index, v)
                assert index.ann.parray[v] == expect


def test_pfunction_reconstructs_canonical_window():
    rng = random.Random(41)
    for _ in range(50):
        t = random_text(rng, max_n=100)
        index = assemble(t)
        tree, ann = index.tree, index.ann
        # Only branching nodes keep a p-function.
        assert sorted(ann.pfun) == [v for v in range(tree.size)
                                    if ann.is_branching[v]]
        for v, fmap in ann.pfun.items():
            i, depth = ann.rep_pos[v], tree.depth[v]
            window = t.symbols[i - 1:i - 1 + depth]
            mapped = [fmap[c] if c <= t.pi else c for c in window]
            assert mapped == spe(window, t.pi)


# ------------------------------------------------------------ queries

def test_query_worked_example():
    t = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    index = assemble(t)
    occ, _ = query(index, t, "yAzz")
    assert occ == [3, 7]


def test_query_demo_descent(demo_text, demo_index):
    occ, stats = query(demo_index, demo_text, "xAyy")
    assert occ == [3, 8]
    assert stats.parray_lookups == 2      # root -> "0" -> "0A0"
    assert stats.max_range_searched == 3  # the "0A0" block


def test_query_longer_than_text(demo_text, demo_index):
    occ, _ = query(demo_index, demo_text, "xy" * 10)
    assert occ == []


def test_query_empty_pattern_rejected(demo_text, demo_index):
    with pytest.raises(QueryError):
        query(demo_index, demo_text, "")


def test_query_unknown_static(demo_text, demo_index):
    occ, stats = query(demo_index, demo_text, "xQ")
    assert occ == [] and stats.nodes_visited == 0


def _random_index(seed, n=3000):
    rng = random.Random(seed)
    t = make_text("".join(rng.choice("uvwxyzABCDE") for _ in range(n)),
                  pi="uvwxyz")
    return t, assemble(t)


def test_query_pre_encoded_out_of_range_id():
    t, index = _random_index(41)
    for bad in ([999], [0, 999], [1, t.pi + t.sigma + 1]):
        with pytest.raises(QueryError):
            index.query(bad)


def test_query_pre_encoded_numpy_ints():
    t, index = _random_index(42)
    enc = encode_pattern(t, t.decode(range(200, 203)))
    occ, _ = index.query(enc)
    assert occ == sorted(naive_ppm(t, enc)) and len(occ) > 1
    assert index.query([np.int64(c) for c in enc])[0] == occ
    assert index.query(np.array(enc))[0] == occ


def test_query_pre_encoded_matches_raw():
    rng = random.Random(616)
    for _ in range(30):
        t = random_text(rng, max_n=200)
        index = assemble(t)
        for _ in range(20):
            pat = random_pattern(rng, t)
            enc = encode_pattern(t, pat)
            if not enc:
                continue
            occ, stats = index.query(pat)
            for ids in (enc, [np.int64(c) for c in enc], np.array(enc)):
                got, got_stats = index.query(ids)
                assert got == occ and got_stats == stats, (pat, ids)


def test_query_one_symbol_on_a_run_reports_every_position():
    n = 2400
    t = make_text("x" * n, pi="xw")
    index = assemble(t)
    # "w" never occurs in the text, but it p-matches every "x".
    for pat, count in (("x", n), ("w", n), ("xx", n - 1), ("wx", 0)):
        occ, _ = index.query(pat)
        assert occ == sorted(naive_ppm(t, encode_pattern(t, pat)))
        assert occ == list(range(1, count + 1))


@pytest.mark.parametrize("bad", [
    5, 3.0, np.int64(3), object(), None, [["x"]], ["x", ["y"]], ["x", 1.5],
    ["x", 1],
], ids=["int", "float", "numpy-int", "object", "none", "nested-list",
        "list-in-tokens", "float-token", "token-and-id"])
def test_query_malformed_pattern_raises_query_error(bad):
    t, index = _random_index(44, n=300)
    with pytest.raises(QueryError):
        index.query(bad)


def test_query_vs_oracle_randomized():
    rng = random.Random(515)
    for _ in range(60):
        t = random_text(rng, max_n=200)
        index = assemble(t)
        bound = (t.sigma + t.pi + 1) * max(t.sigma, t.pi)
        for _ in range(25):
            pat = random_pattern(rng, t)
            occ, stats = query(index, t, pat)
            enc = encode_pattern(t, pat)
            expect = sorted(naive_ppm(t, enc)) if enc else []
            assert occ == expect, (t.decode(range(1, t.n)), pat)
            assert stats.max_range_searched < bound
            if enc:
                envelope = 4 * (len(enc) + math.log2(t.n)) + len(occ)
                assert stats.symbol_comparisons <= envelope


def test_query_is_pure(demo_text, demo_index):
    # stats are per-call; repeated queries agree
    a, sa = query(demo_index, demo_text, "xAyy")
    b, sb = query(demo_index, demo_text, "xAyy")
    assert a == b and sa.as_dict() == sb.as_dict()


def test_assemble_degenerate_and_validators():
    for raw, pi in [("A", ""), ("x" * 40, "x"), ("ABAB", ""), ("xAyAx", "xy")]:
        t = make_text(raw, pi=pi)
        index = assemble(t)
        index.validate()
        occ, _ = query(index, t, raw)  # the whole text occurs exactly once
        assert occ == [1]


def test_structural_bounds_randomized():
    rng = random.Random(700)
    for _ in range(40):
        t = random_text(rng, max_n=250)
        index = assemble(t)
        thr = max(t.sigma, t.pi)
        branching = sum(index.ann.is_branching)
        assert branching <= t.n // thr
        assert index.ann.parray_cells() <= 2 * t.n
        validate_annotations(index.tree, index.ann, t, index.psa_index)


def test_validate_annotations_catches_tampering(demo_text, demo_index):
    import copy

    bad = copy.deepcopy(demo_index.ann)
    bad.is_pnode[1] = not bad.is_pnode[1]
    with pytest.raises(Exception):
        validate_annotations(demo_index.tree, bad, demo_text,
                             demo_index.psa_index)


def test_validate_annotations_catches_forged_dispatch():
    import copy

    from pstray.errors import ValidationError

    t, index = _random_index(43, n=600)
    tree, idx = index.tree, index.psa_index
    v = next(v for v, arr in index.ann.parray.items()
             if len(set(arr[1:]) - {NO_NODE}) >= 2)
    arr = index.ann.parray[v]
    a = next(k for k in range(1, len(arr)) if arr[k] != NO_NODE)
    b = next(k for k in range(a + 1, len(arr)) if arr[k] not in (NO_NODE, arr[a]))
    forgeries = []
    swapped = copy.deepcopy(index.ann)  # both cells still name real children
    swapped.parray[v][a], swapped.parray[v][b] = arr[b], arr[a]
    forgeries.append(swapped)
    emptied = copy.deepcopy(index.ann)  # a child no longer reachable
    emptied.parray[v] = [NO_NODE if u == arr[a] else u for u in arr]
    forgeries.append(emptied)
    renamed = copy.deepcopy(index.ann)
    fmap = renamed.pfun[v]
    if len(fmap) >= 2:
        x, y = list(fmap)[:2]
        fmap[x], fmap[y] = fmap[y], fmap[x]
        forgeries.append(renamed)
    for bad in forgeries:
        with pytest.raises(ValidationError):
            validate_annotations(tree, bad, t, idx)
    validate_annotations(tree, index.ann, t, idx)


def test_manual_stage_by_stage_equals_assemble(demo_text):
    t = demo_text
    psa_index = build_psa(t)
    tree = build_tree(psa_index, t)
    ann = classify_pnodes(tree, t)
    propagate_rep_pairs(tree, ann, t)
    compute_pfunctions(tree, ann, t)
    build_parrays(tree, ann, t, psa_index)
    auto = assemble(t)
    assert ann.parray == auto.ann.parray
    assert ann.rep_pos == auto.ann.rep_pos
    assert ann.heavy_child == auto.ann.heavy_child
