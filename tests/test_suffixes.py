import random

import numpy as np
import pytest

import pstray.suffixes as sfx
from pstray.alphabet import encode_pattern
from pstray.encoding import STATIC_BASE, prev
from pstray.errors import ValidationError
from pstray.oracle import naive_psa
from pstray.suffixes import (PsaIndex, QueryStats, build_psa,
                             plain_range_search, range_search, report,
                             validate_psa)
from pstray.tree import build_tree

from conftest import (DEMO_PLCP, DEMO_PSA, make_text, random_pattern,
                      random_text, sym_codes)


def test_demo_psa_plcp(demo_text, demo_index):
    idx = demo_index.psa_index
    assert idx.psa.tolist() == DEMO_PSA
    assert idx.plcp.tolist() == DEMO_PLCP
    validate_psa(idx, demo_text)


def test_static_only_text():
    t = make_text("A", pi="", sigma="A")
    idx = build_psa(t)
    assert idx.psa.tolist() == [1, 2]
    assert idx.plcp.tolist() == [0, 0]


def clone_text(rng, copies, block_len, mutate):
    """Renamed copies of one random block, each symbol then replaced by a
    random one with probability ``mutate``."""
    pis, sgs = list("uvwxyz"), list("ABC")
    block = [rng.choice(pis + sgs) for _ in range(block_len)]
    out = []
    for _ in range(copies):
        renaming = dict(zip(pis, rng.sample(pis, len(pis))))
        out += [rng.choice(pis + sgs) if rng.random() < mutate
                else renaming.get(c, c) for c in block]
    return make_text("".join(out), pi=pis)


def token_text(rng, n, statics, params):
    """Token-mode text in which statics outnumber parameterized symbols,
    so a round sorts inside many groups at once."""
    pis = [f"p{i}" for i in range(params)]
    sgs = [f"S{i}" for i in range(statics)]
    raw = " ".join(rng.choice(pis + sgs * 3) for _ in range(n))
    return make_text(raw, pi=pis, mode="tokens")


def test_build_matches_oracle_randomized():
    rng = random.Random(2024)
    texts = [random_text(rng, max_n=500 if i < 8 else 160) for i in range(50)]
    for mutate in (0.0, 0.02):
        texts += [clone_text(rng, copies, block_len, mutate)
                  for copies, block_len in ((12, 40), (4, 120), (30, 6))]
    texts += [token_text(rng, 400, statics, params)
              for statics, params in ((30, 3), (60, 1), (12, 6))]
    for t in texts:
        idx = build_psa(t)
        o_psa, o_plcp = naive_psa(t)
        assert idx.psa.tolist() == o_psa
        assert idx.plcp.tolist() == o_plcp
        validate_psa(idx, t, full=True)


def test_build_degenerate_alphabets():
    # Periodic texts and runs split one suffix off one group per round.
    for raw, pi in [("x" * 80, "x"), ("A" * 80, ""), ("xy" * 40, "xy"),
                    ("xA" * 40, "x"), ("x" * 400, "x"), ("xy" * 200, "xy"),
                    ("xyA" * 120, "xy"), ("A" * 300 + "x" * 100, "x")]:
        t = make_text(raw, pi=pi)
        idx = build_psa(t)
        o_psa, o_plcp = naive_psa(t)
        assert idx.psa.tolist() == o_psa and idx.plcp.tolist() == o_plcp
        validate_psa(idx, t, full=True)


def test_range_search_demo_ranges(demo_text, demo_index):
    t = demo_text
    idx = demo_index.psa_index
    # rows 1..3 share '00'; only row 2 continues with 'A'
    got = range_search(idx, sym_codes(t, "00A"), 1, 3, 2)
    assert got == (2, 2)
    assert report(idx, got) == [7]
    # rows 6..8 share '0A0'; rows 6..7 continue with distance 1
    got = range_search(idx, sym_codes(t, "0A01"), 6, 8, 3)
    assert got == (6, 7)
    assert sorted(report(idx, got)) == [3, 8]


def test_range_search_pattern_longer_than_suffixes(demo_text, demo_index):
    t = demo_text
    idx = demo_index.psa_index
    pat = sym_codes(t, "0" + "1" * 20)
    assert range_search(idx, pat, 1, t.n, 0) is None


def test_range_search_skip_equal_to_pattern(demo_text, demo_index):
    idx = demo_index.psa_index
    # skip >= m: the whole range is known to match
    assert range_search(idx, sym_codes(demo_text, "00"), 1, 3, 2) == (1, 3)


def test_report_trivia(demo_index):
    idx = demo_index.psa_index
    assert report(idx, None) == []
    assert sorted(report(idx, (1, idx.n))) == list(range(1, idx.n + 1))


def check_subranges(t, idx, tree):
    """range_search against the plain oracle on every tree node's range,
    for patterns ending at, one and two symbols past the node's depth."""
    sfx.STRICT_CHECKS = True
    try:
        for v in range(tree.size):
            lo, hi, d = tree.lo[v], tree.hi[v], tree.depth[v]
            start = idx.starts[lo - 1]
            label = prev(t.symbols[start - 1:], t.pi)
            for extra in range(0, 3):
                pat = label[:d + extra]
                if not pat:
                    continue
                skip = min(d, len(pat))
                want = plain_range_search(idx, pat, lo, hi, skip, QueryStats())
                assert range_search(idx, pat, lo, hi, skip) == want
    finally:
        sfx.STRICT_CHECKS = False


def test_variants_agree_randomized():
    rng = random.Random(31)
    texts = [random_text(rng, max_n=140) for _ in range(40)]
    # Runs and periodic texts give long match runs for the right-edge scan.
    texts += [make_text(raw, pi="xy") for k in (1, 7, 60)
              for raw in ("x" * k, "xy" * k, "xyA" * k)]
    for t in texts:
        idx = build_psa(t)
        pats = [random_pattern(rng, t) for _ in range(20)]
        pats += ["x" * j for j in (1, 2, 5, 30)]
        pats += ["xy" * j for j in (1, 3, 20)]
        for pat in pats:
            enc = encode_pattern(t, pat)
            if not enc:
                continue
            pp = prev(enc, t.pi)
            want = plain_range_search(idx, pp, 1, t.n, 0, QueryStats())
            assert range_search(idx, pp, 1, t.n, 0) == want
            # Any range meets the skip-0 precondition; one ending inside a
            # run of matches must stop the right-edge scan at its end.
            lo = rng.randint(1, t.n)
            hi = rng.randint(lo, t.n)
            want = plain_range_search(idx, pp, lo, hi, 0, QueryStats())
            assert range_search(idx, pp, lo, hi, 0) == want
        check_subranges(t, idx, build_tree(idx, t))


def test_variants_agree_on_subranges(demo_text, demo_index):
    # exhaustive over the demo index: every subrange sharing a prefix depth
    check_subranges(demo_text, demo_index.psa_index, demo_index.tree)


def test_psa_index_is_linear_space():
    rng = random.Random(12)
    t = make_text("".join(rng.choice("uvwxyzABC") for _ in range(2000)),
                  pi="uvwxyz")
    idx = build_psa(t)
    array_bytes, lists, todo = 0, [], [idx]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            array_bytes += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            lists.append(len(obj))
            todo += [x for x in obj if not isinstance(x, int)]
        elif hasattr(obj, "__dict__"):
            todo += vars(obj).values()
    assert array_bytes <= 16 * t.n
    assert lists and max(lists) <= t.n


def test_validator_catches_corruption(demo_text, demo_index):
    import copy

    def swap(idx, r):
        idx.psa[r], idx.psa[r + 1] = idx.psa[r + 1], idx.psa[r]

    def set_plcp(r, h):
        return lambda idx: idx.plcp.__setitem__(r, h)

    # DEMO_PLCP[6] == 5: ranks 5 and 6 share a long prefix. Ranks 0 and 1
    # and ranks 2 and 3 (of "xxyAyx") stay in order one symbol past the
    # overstated plcp, so only the prefix comparison catches those.
    corruptions = [
        lambda idx: swap(idx, 0),
        lambda idx: swap(idx, 5),  # a swapped pair with a long shared prefix
        set_plcp(6, 6),            # overstated
        set_plcp(1, 5),            # overstated
        set_plcp(6, 4),            # short
        set_plcp(6, 40),           # past the suffix's end
        set_plcp(7, -1),
    ]
    for corrupt in corruptions:
        idx = copy.deepcopy(demo_index.psa_index)
        corrupt(idx)
        with pytest.raises(ValidationError):
            validate_psa(idx, demo_text)
    t = make_text("xxyAyx", pi="xy")
    idx = build_psa(t)
    idx.plcp[3] += 1
    with pytest.raises(ValidationError, match="overstates"):
        validate_psa(idx, t)

    # Codes without a unique end marker let a suffix be a prefix of its
    # successor, or a shorter suffix sort after a longer one it prefixes.
    t = make_text("A", pi="", sigma="A")
    same = [STATIC_BASE, STATIC_BASE]
    for psa, message in (([2, 1], "prefix"), ([1, 2], "exhaustion")):
        idx = PsaIndex(psa=np.array(psa), plcp=np.array([0, 1]), codes=same)
        with pytest.raises(ValidationError, match=message):
            validate_psa(idx, t)


def test_linear_check_catches_order_faults(demo_text, demo_index):
    import copy

    def corrupt(change):
        idx = copy.deepcopy(demo_index.psa_index)
        change(idx)
        return idx

    def swap(r):
        return lambda idx: idx.psa.__setitem__([r, r + 1], idx.psa[[r + 1, r]])

    def set_plcp(r, h):
        return lambda idx: idx.plcp.__setitem__(r, h)

    # DEMO_PLCP[6] == 5; lowering it leaves the pair equal one symbol past.
    for change in (swap(0), swap(5), set_plcp(6, 4), set_plcp(6, 0),
                   set_plcp(6, 40), set_plcp(7, -1)):
        with pytest.raises(ValidationError):
            validate_psa(corrupt(change), demo_text, full=False)
    # An overstated LCP keeps the pair in order one symbol past it; only
    # the full check's prefix rounds see it.
    overstated = corrupt(set_plcp(1, 5))
    validate_psa(overstated, demo_text, full=False)
    with pytest.raises(ValidationError, match="overstates"):
        validate_psa(overstated, demo_text, full=True)


def test_strict_mode_rejects_bad_skip(demo_text, demo_index):
    from pstray.errors import ValidationError

    idx = demo_index.psa_index
    sfx.STRICT_CHECKS = True
    try:
        with pytest.raises(ValidationError):
            # ranks 1..9 share only one symbol, not three
            range_search(idx, sym_codes(demo_text, "0A01"), 1, 9, 3)
    finally:
        sfx.STRICT_CHECKS = False
