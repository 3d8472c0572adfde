"""Acceptance suite.

One test per criterion; each prints a single PASS line when it completes
(failures surface as ordinary assertion errors). The randomized suite is
built once in a module fixture and shared by the equivalence, structural
and instrumentation criteria.
"""

import itertools
import math
import random
import time

import pytest

from pstray import index_io
from pstray.alphabet import AlphabetSpec, ingest, pattern_codes
from pstray.encoding import STATIC_BASE, prev, spe
from pstray.oracle import (bijection_p_match, encode_pattern, fpos_stream,
                           naive_parray, naive_ppm, naive_spe, p_match,
                           plain_range_search, random_pattern)
from pstray.suffixes import QueryStats, report
from pstray.tray import NO_NODE, assemble, query

from conftest import DEMO_PLCP, DEMO_PSA, decode, make_text, window_codes
from test_tree import label_map

PI_POOL = list("uvwxyz")
SIGMA_POOL = list("BCD")


def _passed(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _random_instance(rng):
    """Text drawn per the suite's alphabet ranges, plus its index."""
    pi_k = rng.randint(0, 6)
    ext_sigma = rng.randint(0, 3)            # occurring sigma = ext + sentinel
    if pi_k + ext_sigma == 0:
        pi_k = 1
    pis = PI_POOL[:pi_k]
    sgs = SIGMA_POOL[:ext_sigma]
    degenerate = (pi_k + ext_sigma) <= 1
    hi = 500 if degenerate else 2000
    r = rng.random()
    if r < 0.30:
        n = rng.randint(2, 100)
    elif r < 0.85:
        n = rng.randint(100, min(800, hi))
    else:
        n = rng.randint(min(800, hi), hi)
    raw = "".join(rng.choice(pis + sgs) for _ in range(n))
    spec = AlphabetSpec(pi_members=frozenset(pis), sigma_members=None)
    return ingest(raw, spec)


@pytest.fixture(scope="module")
def random_suite():
    """250 texts x 40 patterns = 10^4 (text, pattern) trials.

    Returns per-trial outcome tuples and the suite's wall-clock seconds.
    """
    rng = random.Random(0xACCE97)
    t0 = time.monotonic()
    trials = []
    structural_violations = 0
    for _ in range(250):
        text = _random_instance(rng)
        index = assemble(text)
        try:
            index.validate()
        except Exception:
            structural_violations += 1
        thr = max(text.sigma, text.pi)
        range_bound = (text.sigma + text.pi + 1) * thr
        branch_ok = sum(index.ann.is_branching) <= text.n // thr
        cells_ok = index.ann.parray_cells() <= 2 * text.n
        if not (branch_ok and cells_ok):
            structural_violations += 1
        for _ in range(40):
            pattern = random_pattern(rng, text, max_m=50)
            occ, stats = query(index, pattern)
            enc = encode_pattern(text, pattern)
            trials.append((
                occ == naive_ppm(text, enc),
                stats.max_range_searched < range_bound,
                stats.symbol_comparisons <=
                4 * (len(enc) + math.log2(text.n)) + len(occ),
            ))
    elapsed = time.monotonic() - t0
    return {"trials": trials, "violations": structural_violations,
            "elapsed": elapsed}


# -------------------------------------------------------------- criterion 1

def test_criterion_1_golden_vectors(demo_text, demo_index):
    t0 = time.monotonic()
    enc = make_text("yxzAyyyBxzz", pi="xyz", sigma="AB")

    def ids(text, s):
        return [text.tok2id[c] for c in s]

    def codes(text, s):
        return [int(ch) if ch.isdigit() else STATIC_BASE + text.tok2id[ch]
                for ch in s]

    assert prev(ids(enc, "yxzAyyyBxzz"), enc.pi) == codes(enc, "000A411B771")
    assert spe(ids(enc, "yxzAyyyBxzz"), enc.pi) == ids(enc, "xyzAxxxByzz")

    assert demo_index.psa_index.psa.tolist() == DEMO_PSA
    assert demo_index.psa_index.plcp.tolist() == DEMO_PLCP

    labels = label_map(demo_index.psa_index, demo_index.tree, demo_text)
    ann = demo_index.ann
    assert max(demo_text.sigma, demo_text.pi) == 3
    pnodes = {lbl for lbl, v in labels.items() if ann.is_pnode[v]}
    branching = {lbl for lbl, v in labels.items() if ann.is_branching[v]}
    assert pnodes == {"", "0", "00", "0A0", "A0"} and len(pnodes) == 5
    assert branching == {"", "0"} and len(branching) == 2

    # "0A0" does not branch, so the tray keeps none of its light children
    # and the defining relation names no kept node there. Its distance-1
    # child "0A014" is ranks 6..7, suffixes 3 and 8, found by the search
    # over the "0A0" block.
    arr = naive_parray(demo_index.tree, demo_index.psa_index, labels["0A0"])
    assert arr == [NO_NODE] * len(arr) and "0A014" not in labels
    occ, stats = query(demo_index, "xAyyx")
    assert occ == [3, 8] and stats.max_range_searched == 3

    ppm_text = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    ppm_index = assemble(ppm_text)
    ppm_index.validate()
    demo_index.validate()
    occ, _ = query(ppm_index, "yAzz")
    assert occ == [3, 7]

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"golden vectors took {elapsed:.2f}s"
    _passed(1, f"(golden vectors, {elapsed*1000:.0f} ms)")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence(random_suite):
    trials = random_suite["trials"]
    assert len(trials) >= 10_000
    mismatches = sum(1 for ok, _, _ in trials if not ok)
    assert mismatches == 0
    assert random_suite["elapsed"] < 60.0, \
        f"random suite took {random_suite['elapsed']:.1f}s"
    _passed(2, f"({len(trials)} trials, {random_suite['elapsed']:.1f} s)")


def test_criterion_2_comparison_sees_a_faulty_intake(monkeypatch):
    """The comparison can fail: an intake that wrongly refuses each pattern
    with exactly pi distinct parameterized tokens, on the README text."""
    text = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    index = assemble(text)
    rng = random.Random(0)
    patterns = [random_pattern(rng, text) for _ in range(200)]
    want = [naive_ppm(text, encode_pattern(text, p)) for p in patterns]
    assert [query(index, p)[0] for p in patterns] == want

    def refuse_at_pi(t, raw):
        params = set(t.spec.tokenize(raw)) & t.spec.pi_members
        return None if len(params) >= t.pi else pattern_codes(t, raw)

    monkeypatch.setattr("pstray.tray.pattern_codes", refuse_at_pi)
    assert [query(index, p)[0] for p in patterns] != want


# -------------------------------------------------------------- criterion 3

def test_criterion_3_structural_bounds(random_suite, demo_text, demo_index):
    assert random_suite["violations"] == 0
    demo_index.validate()
    thr = max(demo_text.sigma, demo_text.pi)
    assert sum(demo_index.ann.is_branching) <= demo_text.n // thr
    assert demo_index.ann.parray_cells() <= 2 * demo_text.n
    _passed(3, "(zero violations)")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_parray_pipeline_vs_oracle():
    checked = 0

    def check(text):
        nonlocal checked
        index = assemble(text)
        for v in range(index.tree.size):
            if index.ann.is_branching[v]:
                expect = naive_parray(index.tree, index.psa_index, v)
                assert index.ann.parray[v] == expect, \
                    (decode(text, range(1, text.n)), v)
                checked += 1

    # exhaustive enumeration over a small alphabet
    for length in range(1, 7):
        for word in itertools.product("xyA", repeat=length):
            check(make_text("".join(word), pi="xy"))

    # randomized leg: 10^3 texts up to n=300
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        pi_k = rng.randint(1, 6)
        ext_sigma = rng.randint(0, 3)
        pis = PI_POOL[:pi_k]
        sgs = SIGMA_POOL[:ext_sigma]
        n = rng.randint(1, 300)
        raw = "".join(rng.choice(pis + sgs) for _ in range(n))
        check(make_text(raw, pi=pis))

    _passed(4, f"({checked} branching nodes compared)")


# -------------------------------------------------------------- criterion 5

def _universe(max_len=6):
    """All internal-symbol strings over 3 parameterized + 2 static ids."""
    for length in range(1, max_len + 1):
        yield from itertools.product((1, 2, 3, 4, 5), repeat=length)


def test_criterion_5_encoding_laws():
    pi = 3

    # (a) the partitions induced by prev, the canonical renaming, and the
    # bijection-enumeration oracle coincide: all three equivalences at once
    by_prev, by_spe, by_naive = {}, {}, {}
    for w in _universe():
        lw = list(w)
        by_prev.setdefault((len(w), tuple(prev(lw, pi))), set()).add(w)
        by_spe.setdefault((len(w), tuple(spe(lw, pi))), set()).add(w)
        by_naive.setdefault((len(w), tuple(naive_spe(lw, pi))), set()).add(w)
    groups = sorted(frozenset(g) for g in by_prev.values())
    assert groups == sorted(frozenset(g) for g in by_spe.values())
    assert groups == sorted(frozenset(g) for g in by_naive.values())

    # (b) the pairwise operation against the direct bijection oracle:
    # exhaustive through length 4, all within-class pairs plus sampled
    # cross-class pairs at lengths 5 and 6
    short = [list(w) for w in _universe(4)]
    for x in short:
        for y in short:
            if len(x) == len(y):
                assert p_match(x, y, pi) == bijection_p_match(x, y, pi)
    assert not p_match([1], [1, 1], pi)
    long_groups = [sorted(g) for (ln, _), g in by_prev.items() if ln >= 5]
    for group in long_groups:
        for x, y in itertools.combinations(group, 2):
            assert p_match(list(x), list(y), pi)
            assert bijection_p_match(list(x), list(y), pi)
    rng = random.Random(55)
    long_strings = [w for w in _universe() if len(w) >= 5]
    negatives = 0
    while negatives < 100_000:
        x = rng.choice(long_strings)
        y = rng.choice(long_strings)
        if len(x) != len(y) or prev(list(x), pi) == prev(list(y), pi):
            continue
        assert not p_match(list(x), list(y), pi)
        assert not bijection_p_match(list(x), list(y), pi)
        negatives += 1

    # (c) back-distances always repeat the canonical symbol they point at
    for w in _universe():
        pw, sw = prev(list(w), pi), spe(list(w), pi)
        for j, code in enumerate(pw):
            if 0 < code < STATIC_BASE:
                assert sw[j] == sw[j - code]

    # (d,e) streamed f-arrays and window-adjusted symbols match per-suffix
    # recomputation on every universe string taken as a text
    spec = AlphabetSpec(pi_members=frozenset("xyz"), sigma_members=None)
    tok = {1: "x", 2: "y", 3: "z", 4: "A", 5: "B"}
    for w in _universe():
        text = ingest("".join(tok[c] for c in w), spec)
        streamed = dict(fpos_stream(text))
        for i in range(1, text.n + 1):
            suffix = text.symbol_array[i - 1:].tolist()
            expect = tuple(suffix.index(x) + 1 if x in suffix else 0
                           for x in range(1, text.pi + 1))
            assert streamed[i] == expect
            assert window_codes(text, i, text.n - i + 1) == prev(suffix,
                                                                  text.pi)

    _passed(5, f"({len(groups)} equivalence classes over the universe)")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_query_cost_instrumentation(random_suite, demo_text,
                                                demo_index):
    trials = random_suite["trials"]
    range_violations = sum(1 for _, ok, _ in trials if not ok)
    comparison_violations = sum(1 for _, _, ok in trials if not ok)
    assert range_violations == 0
    assert comparison_violations == 0
    # the golden queries obey the same range bound
    for text, index, pattern in [
            (demo_text, demo_index, "xAyy"),
            (demo_text, demo_index, "zz"),
            (demo_text, demo_index, "xAx")]:
        _, stats = query(index, pattern)
        bound = (text.sigma + text.pi + 1) * max(text.sigma, text.pi)
        assert stats.max_range_searched < bound
    _passed(6, f"(bounds held on {len(trials)} instrumented queries)")


def test_query_counters_do_not_grow_with_n():
    """The paper's O(m + log(sigma + pi) + occ) query, in exact counters.
    Over one alphabet (pi = 6, sigma = 6 with the end marker) at n = 2k,
    20k and 200k, every query searches a range shorter than
    (sigma + pi + 1) * max(sigma, pi) and so probes the suffix array at
    most 2 + ceil(log2) of that many times, at every n; two plain binary
    searches over [1, n] probe more as log2 n grows."""
    rng = random.Random(0x5CA1E)
    pis, statics = "uvwxyz", "ABCDE"
    plain_means = []
    for n in (2_000, 20_000, 200_000):
        raw = "".join(rng.choice(pis + statics) for _ in range(n - 1))
        text = make_text(raw, pi=pis)
        assert (text.n, text.pi, text.sigma) == (n, 6, 6)
        index = assemble(text)
        range_bound = (text.sigma + text.pi + 1) * max(text.sigma, text.pi)
        probe_bound = 2 + math.ceil(math.log2(range_bound))
        probes, ranges, plain = [], [], []
        for _ in range(300):
            m = rng.randint(5, 24)
            if rng.random() < 0.5:  # a window, renamed
                start = rng.randint(1, n - m)
                renamed = "".join(rng.sample(pis, len(pis)))
                pattern = decode(text, range(start, start + m)).translate(
                    str.maketrans(pis, renamed))
            else:
                pattern = "".join(rng.choice(pis + statics)
                                  for _ in range(m))
            occ, stats = query(index, pattern)
            probes.append(stats.psa_probes)
            ranges.append(stats.max_range_searched)
            plain_stats = QueryStats()
            found = plain_range_search(index.psa_index,
                                       pattern_codes(text, pattern)[0],
                                       1, n, 0, plain_stats)
            assert sorted(report(index.psa_index, found)) == occ
            plain.append(plain_stats.psa_probes)
        for counts, bound in ((ranges, range_bound - 1),
                              (probes, probe_bound)):
            assert max(counts) <= bound
            assert sum(counts) / len(counts) <= bound
        plain_means.append(sum(plain) / len(plain))
        assert plain_means[-1] >= math.floor(math.log2(n))
    assert plain_means == sorted(set(plain_means))
    assert plain_means[-1] > probe_bound


# -------------------------------------------------------------- criterion 7

def test_criterion_7_serialization(tmp_path, demo_text, demo_index):
    rng = random.Random(0x5AFE)
    instances = [(demo_text, demo_index)]
    for _ in range(2):
        text = _random_instance(rng)
        instances.append((text, assemble(text)))

    battery = 0
    for i, (text, index) in enumerate(instances):
        p1 = tmp_path / f"i{i}a.idx"
        p2 = tmp_path / f"i{i}b.idx"
        index_io.save(index, p1)
        loaded = index_io.load(p1)
        index_io.save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes(), "round trip not byte-exact"
        while battery < (i + 1) * 34:
            pattern = random_pattern(rng, text, max_m=20)
            assert query(index, pattern)[0] == query(loaded, pattern)[0]
            battery += 1
    assert battery >= 100
    _passed(7, f"({battery} queries preserved across save/load)")
