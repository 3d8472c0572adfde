import math
import random

import numpy as np
import pytest

from pstray import index_io
from pstray.errors import QueryError
from pstray.oracle import (encode_pattern, naive_parray, naive_ppm,
                           random_pattern, spe)
from pstray.suffixes import build_psa
from pstray.tray import (NO_NODE, _canonical_ids, annotate, assemble,
                         build_tray, query, validate_annotations)
from pstray.tree import build_tree

from conftest import (children, decode, edge_symbol, is_leaf, leaf_count,
                      make_text, random_text)
from test_tree import label_map


def labelled(demo_index, demo_text):
    return label_map(demo_index.psa_index, demo_index.tree, demo_text)


# ------------------------------------------------------------ classification

def test_demo_pnode_sets(demo_text, demo_index):
    tree, ann = demo_index.tree, demo_index.ann
    labels = labelled(demo_index, demo_text)
    assert max(demo_text.sigma, demo_text.pi) == 3
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
    tree = build_tree(idx)
    ann = annotate(tree, idx)
    assert ann.is_pnode[0]
    assert all(not ann.is_pnode[v] for v in range(1, tree.size)
               if leaf_count(tree, v) < max(t.sigma, t.pi))


def test_threshold_one_makes_every_node_a_pnode():
    """With pi = sigma = 1 the threshold is 1: "light" means below it, so
    every leaf is a p-node, and the descent dispatches one node per
    pattern symbol without touching the suffix array."""
    t = make_text("x" * 200, pi="x")
    assert (t.pi, t.sigma) == (1, 1)
    index = assemble(t)
    tree, ann = index.tree, index.ann
    assert tree.size == 401
    leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
    assert len(leaves) == 201
    assert all(ann.is_pnode[v] for v in leaves)
    assert sum(ann.is_branching) == 200
    # (symbol_comparisons, nodes_visited, parray_lookups, psa_probes,
    # max_range_searched), as in GOLDEN_STATS below.
    for pat, counters in (("x", (0, 1, 1, 0, 0)), ("xx", (0, 2, 2, 0, 0)),
                          ("xxxxx", (0, 5, 5, 0, 0))):
        occ, stats = index.query(pat)
        assert occ == list(range(1, 202 - len(pat)))
        assert tuple(stats.as_dict().values()) == counters, pat


def test_every_kept_node_is_reachable(demo_index):
    """Every node but the root is some node's heavy child or a cell of a
    dispatch row, so a query can reach it: the tray keeps no other node."""
    rng = random.Random(2468)
    indexes = [demo_index,
               assemble(make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A"))]
    indexes += [assemble(random_text(rng, max_n=300)) for _ in range(40)]
    for index in indexes:
        ann = index.ann
        reached = set(ann.heavy_child).union(
            *(row[1:] for row in ann.parray.values()))
        assert reached - {NO_NODE} == set(range(1, index.tree.size))


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
    assert is_leaf(tree, par[t.sentinel])


def test_demo_parray_at_root(demo_text, demo_index):
    t = demo_text
    ann = demo_index.ann
    labels = labelled(demo_index, demo_text)
    par = ann.parray[labels[""]]
    for c in "xyz":  # at the root every parameterized symbol is fresh
        assert par[t.tok2id[c]] == labels["0"]
    assert par[t.tok2id["A"]] == labels["A0"]
    assert par[t.sentinel] == labels["$"]


def test_demo_parrays_match_oracle(demo_index):
    tree, ann, idx = demo_index.tree, demo_index.ann, demo_index.psa_index
    for v in range(tree.size):
        if ann.is_branching[v]:
            assert ann.parray[v] == naive_parray(tree, idx, v)


def test_nonbranching_relation_testable_via_oracle(demo_text, demo_index):
    # "0A0" does not branch, so it keeps neither its distance-1 child
    # "0A014" (ranks 6..7) nor its rank-8 leaf: the defining relation names
    # no kept node there, and a query below "0A0" searches its ranks 6..8.
    t = demo_text
    tree, idx = demo_index.tree, demo_index.psa_index
    v = labelled(demo_index, demo_text)["0A0"]
    assert children(tree, v) == []
    assert naive_parray(tree, idx, v) == [NO_NODE] * (t.sigma + t.pi + 1)
    for pat in ("xAyy", "xAyA"):  # prev 0A01 and 0A0A
        occ, stats = query(demo_index, pat)
        assert occ == naive_ppm(t, encode_pattern(t, pat))
        assert stats.max_range_searched == 3


def test_parray_pipeline_vs_oracle_randomized():
    rng = random.Random(606)
    for _ in range(80):
        t = random_text(rng, max_n=120)
        index = assemble(t)
        for v in range(index.tree.size):
            if index.ann.is_branching[v]:
                expect = naive_parray(index.tree, index.psa_index, v)
                assert index.ann.parray[v] == expect


def test_pfunction_reconstructs_canonical_window():
    rng = random.Random(41)
    for _ in range(50):
        t = random_text(rng, max_n=100)
        index = assemble(t)
        tree, ann, idx = index.tree, index.ann, index.psa_index
        # Only branching nodes get a row, from their leftmost leaf.
        nodes = [v for v in range(tree.size) if ann.is_branching[v]]
        reps = [idx.starts[tree.lo[v] - 1] for v in nodes]
        depths = [tree.depth[v] for v in nodes]
        table = _canonical_ids(t, reps, depths)
        for i, depth, row in zip(reps, depths, table):
            window = t.symbol_array[i - 1:i - 1 + depth].tolist()
            mapped = [row[c] if c <= t.pi else c for c in window]
            assert mapped == spe(window, t.pi)


def _statements(rng, pi_tokens, count):
    """``count`` assignments over the first four identifiers; the rest of
    ``pi_tokens`` occur once each, so pi is their number."""
    common = pi_tokens[:4]
    words = []
    for _ in range(count):
        a, b = rng.choice(common), rng.choice(common)
        words += [a, "=", rng.choice((a, b)), rng.choice("+*"), b, ";"]
    return " ".join(words + pi_tokens[4:])


def test_parrays_match_oracle_on_wide_and_static_alphabets():
    # Random texts draw pi <= 6; code-like token texts have hundreds of
    # identifiers, and a text may have none.
    rng = random.Random(909)
    idents = [f"v{k}" for k in range(210)]
    wide = make_text(_statements(rng, idents, 600), pi=idents, sigma=None,
                     mode="tokens")
    assert wide.pi >= 200
    static = make_text("".join(rng.choice("ABC") for _ in range(400)),
                       pi="", sigma="ABC")
    assert static.pi == 0
    for t in (wide, static):
        index = assemble(t)
        tree, ann, idx = index.tree, index.ann, index.psa_index
        nodes = [v for v in range(tree.size) if ann.is_branching[v]]
        assert nodes
        for v in nodes:
            assert ann.parray[v] == naive_parray(tree, idx, v)
        distance_children = [
            u for v in nodes for u in children(tree, v)
            if 0 < edge_symbol(tree, idx, u, 1) <= tree.depth[v]]
        assert bool(distance_children) == (t is wide)


def test_parray_scatter_matches_oracle_on_edge_shapes():
    """The one-table scatter of ``annotate`` against ``naive_parray``
    at every branching node, and only those get a dispatch array, on the
    shapes that stress it: runs of one symbol (threshold 1, every internal
    node branching), pi > sigma, token texts with pi >= 256, and texts
    with no branching node at all."""
    rng = random.Random(1729)
    runs = [make_text("x" * n, pi="x")
            for n in (2, 3, 17, rng.randint(40, 90))]
    wide_pi = [make_text("".join(rng.choice("uvwxyzA") for _ in range(n)),
                         pi="uvwxyz")
               for n in (90, 160, rng.randint(200, 400))]
    idents = [f"v{k}" for k in range(270)]
    tokens = make_text(_statements(rng, idents, 300), pi=idents, sigma=None,
                       mode="tokens")
    flat = [make_text("uvwxyz", pi="uvwxyz"), make_text("A", pi="", sigma="A"),
            make_text("xy", pi="xy")]
    assert tokens.pi >= 256
    assert all(t.pi > t.sigma for t in wide_pi + [tokens])
    for t in runs + wide_pi + [tokens] + flat:
        psa_index = build_psa(t)
        tree = build_tree(psa_index)
        ann = annotate(tree, psa_index)
        nodes = [v for v in range(tree.size) if ann.is_branching[v]]
        assert sorted(ann.parray) == nodes
        for v in nodes:
            assert ann.parray[v] == naive_parray(tree, psa_index, v)
        if t in runs:
            assert nodes == [v for v in range(tree.size)
                             if children(tree, v)]
        assert bool(nodes) == (t not in flat)


# ------------------------------------------------------------ queries

def test_query_worked_example():
    t = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    index = assemble(t)
    occ, _ = query(index, "yAzz")
    assert occ == [3, 7]


def test_query_demo_descent(demo_index):
    occ, stats = query(demo_index, "xAyy")
    assert occ == [3, 8]
    assert stats.parray_lookups == 2      # root -> "0" -> "0A0"
    assert stats.max_range_searched == 3  # the "0A0" block


def test_query_longer_than_text(demo_index):
    occ, _ = query(demo_index, "xy" * 10)
    assert occ == []


def test_query_empty_pattern_rejected(demo_index):
    with pytest.raises(QueryError):
        query(demo_index, "")


def test_query_unknown_static(demo_index):
    occ, stats = query(demo_index, "xQ")
    assert occ == [] and stats.nodes_visited == 0
    # Three distinct parameterized symbols cannot occur where the text has
    # two: no descent either.
    occ, stats = query(assemble(make_text("xAyxAyyx", pi="wxyz")), "wxy")
    assert occ == [] and stats.nodes_visited == 0


def _random_index(seed, n=3000):
    rng = random.Random(seed)
    t = make_text("".join(rng.choice("uvwxyzABCDE") for _ in range(n)),
                  pi="uvwxyz")
    return t, assemble(t)


def test_query_one_symbol_on_a_run_reports_every_position():
    n = 2400
    t = make_text("x" * n, pi="xw")
    index = assemble(t)
    # "w" never occurs in the text, but it p-matches every "x".
    for pat, count in (("x", n), ("w", n), ("xx", n - 1)):
        occ, _ = index.query(pat)
        assert occ == naive_ppm(t, encode_pattern(t, pat))
        assert occ == list(range(1, count + 1))
    # "wx" holds two distinct parameterized symbols, the text one.
    assert naive_ppm(t, encode_pattern(t, "wx")) == []
    occ, stats = index.query("wx")
    assert occ == [] and stats.nodes_visited == 0


# Integer ids are not patterns, whether in range or not: a pattern is a
# string or a sequence of string tokens.
@pytest.mark.parametrize("bad", [
    5, 3.0, np.int64(3), object(), None, [["x"]], ["x", ["y"]], ["x", 1.5],
    ["x", 1], [1, 2, 1], [0, 999], np.array([1, 2, 1]),
    [np.int64(1), np.int64(2)],
], ids=["int", "float", "numpy-int", "object", "none", "nested-list",
        "list-in-tokens", "float-token", "token-and-id", "int-ids",
        "out-of-range-ids", "numpy-id-array", "numpy-id-list"])
def test_query_malformed_pattern_raises_query_error(bad):
    t, index = _random_index(44, n=300)
    with pytest.raises(QueryError):
        index.query(bad)


def test_query_vs_oracle_randomized():
    rng = random.Random(515)
    token_hits = 0
    for i in range(70):
        if i < 60:
            t = random_text(rng, max_n=200)
        else:  # code-like, pi from 8 to 40; its patterns are token lists
            idents = [f"v{k}" for k in range(rng.randint(8, 40))]
            t = make_text(_statements(rng, idents, rng.randint(5, 30)),
                          pi=idents, mode="tokens")
        index = assemble(t)
        bound = (t.sigma + t.pi + 1) * max(t.sigma, t.pi)
        for _ in range(25):
            pat = random_pattern(rng, t)
            occ, stats = query(index, pat)
            enc = encode_pattern(t, pat)
            assert occ == naive_ppm(t, enc), (decode(t, range(1, t.n)), pat)
            assert stats.max_range_searched < bound
            envelope = 4 * (len(enc) + math.log2(t.n)) + len(occ)
            assert stats.symbol_comparisons <= envelope
            token_hits += i >= 60 and bool(occ)
    assert token_hits > 50


# Full QueryStats (symbol_comparisons, nodes_visited, parray_lookups,
# psa_probes, max_range_searched) of queries covering every way the descent
# leaves a node: a dispatch whose edge mismatches (demo "xAx"), a heavy
# child taken whole ("ABy", the periodic run), left off at its first symbol
# to the left ("Buwvuvv", and the periodic query whose left block is empty)
# or to the right ("zxAwDz", "AAxxyA"), and a heavy edge that mismatches
# further down ("yxAyyAyyAxyAyyA"). They pin the accounting, not only the
# answers.
GOLDEN_STATS = [
    ("demo", "xAyy", 2, (2, 3, 2, 1, 3)),
    ("demo", "zz", 2, (0, 2, 2, 0, 2)),
    ("demo", "xAx", 0, (1, 2, 2, 0, 0)),
    ("random", "zxAwDz", 1, (8, 5, 4, 6, 19)),
    ("random", "Buwvuvv", 1, (7, 5, 4, 6, 12)),
    ("random", "ABy", 18, (1, 3, 2, 0, 0)),
    ("random", "CCyCvCBy", 0, (9, 4, 2, 5, 8)),
    ("periodic", "yxAyyAyyAxyAyyA", 0, (3, 3, 2, 0, 0)),
    ("periodic", "yxA" * 12, 29, (34, 13, 2, 0, 0)),
    ("periodic", "xAyxAxAAxxyxyyyyxAxyxxxxyyyxxxyAyyxAAAyx", 0,
     (4, 4, 2, 0, 0)),
    ("periodic", "AAxxyA", 0, (2, 2, 1, 1, 1)),
]


def test_query_counters_are_pinned(demo_index):
    indexes = {"demo": demo_index, "random": _random_index(41)[1],
               "periodic": assemble(make_text("xyA" * 40, pi="xy"))}
    for name, pat, count, counters in GOLDEN_STATS:
        index = indexes[name]
        occ, stats = index.query(pat)
        assert occ == naive_ppm(index.text, encode_pattern(index.text, pat))
        assert (len(occ), tuple(stats.as_dict().values())) == (
            count, counters), (name, pat)


def test_query_is_pure(demo_index):
    # stats are per-call; repeated queries agree
    a, sa = query(demo_index, "xAyy")
    b, sb = query(demo_index, "xAyy")
    assert a == b and sa.as_dict() == sb.as_dict()


def test_assemble_degenerate_and_validators():
    for raw, pi in [("A", ""), ("x" * 40, "x"), ("ABAB", ""), ("xAyAx", "xy")]:
        t = make_text(raw, pi=pi)
        index = assemble(t)
        index.validate()
        occ, _ = query(index, raw)  # the whole text occurs exactly once
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
        validate_annotations(index.tree, index.ann, index.psa_index)


def test_validate_annotations_catches_tampering(demo_text, demo_index):
    import copy

    from pstray.errors import ValidationError

    labels = labelled(demo_index, demo_text)
    plain, other = labels["00"], labels["0A0"]  # p-nodes that do not branch

    def pnode_flipped(ann):
        ann.is_pnode[1] = not ann.is_pnode[1]

    def branching_added(ann):
        ann.is_branching[plain] = True

    def heavy_child_invented(ann):
        ann.heavy_child[plain] = other

    def dispatch_on_non_branching(ann):
        ann.parray[plain] = list(ann.parray[0])

    def flag_list_short(ann):
        ann.is_pnode.pop()

    for tamper, message in ((pnode_flipped, "p-node flag"),
                            (branching_added, "branching flag"),
                            (heavy_child_invented, "heavy child"),
                            (dispatch_on_non_branching, "dispatch arrays"),
                            (flag_list_short, "size")):
        bad = copy.deepcopy(demo_index.ann)
        tamper(bad)
        with pytest.raises(ValidationError, match=message):
            validate_annotations(demo_index.tree, bad, demo_index.psa_index)


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
    for bad in forgeries:
        with pytest.raises(ValidationError):
            validate_annotations(tree, bad, idx)
    validate_annotations(tree, index.ann, idx)


def test_manual_stage_by_stage_equals_assemble(demo_text, tmp_path):
    """Each stage takes the one index that holds the text: ``build_tree``
    and ``annotate`` on ``build_psa(t)`` give ``assemble(t)``'s tree and
    annotations, and ``build_tray(build_psa(t))``, saved and loaded,
    answers as the brute-force matcher does."""
    rng = random.Random(2525)
    for t in [demo_text] + [random_text(rng, max_n=150) for _ in range(40)]:
        psa_index = build_psa(t)
        tree = build_tree(psa_index)
        ann = annotate(tree, psa_index)
        auto = assemble(t)
        for name in ("depth_array", "lo_array", "hi_array", "child_ids",
                     "child_cuts"):
            assert np.array_equal(getattr(tree, name),
                                  getattr(auto.tree, name))
        assert vars(ann) == vars(auto.ann)
        built = build_tray(psa_index)
        assert built.text is t
        path = tmp_path / "x.idx"
        index_io.save(built, path)
        loaded = index_io.load(path)
        for _ in range(20):
            pattern = random_pattern(rng, t)
            expect = naive_ppm(t, encode_pattern(t, pattern))
            assert built.query(pattern)[0] == expect
            assert loaded.query(pattern)[0] == expect
