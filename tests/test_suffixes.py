import hashlib
import random

import numpy as np
import pytest

import pstray.suffixes as sfx
from pstray.alphabet import pattern_codes
from pstray.encoding import STATIC_BASE, prev
from pstray.errors import QueryError, ValidationError
from pstray.oracle import (encode_pattern, naive_psa, plain_range_search,
                           random_pattern)
from pstray.suffixes import (PsaIndex, QueryStats, build_psa, compare_suffix,
                             range_search, report, validate_psa)

from conftest import (DEMO_PLCP, DEMO_PSA, make_text, naive_intervals,
                      random_text, sym_codes, window_codes)


def test_demo_psa_plcp(demo_index):
    idx = demo_index.psa_index
    assert idx.psa.tolist() == DEMO_PSA
    assert idx.plcp.tolist() == DEMO_PLCP
    validate_psa(idx)


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


def check_against_oracle(t):
    """build_psa equals naive_psa and passes the full check; returns it."""
    idx = build_psa(t)
    o_psa, o_plcp = naive_psa(t)
    assert idx.psa.tolist() == o_psa
    assert idx.plcp.tolist() == o_plcp
    validate_psa(idx, full=True)
    return idx


def test_build_matches_oracle_randomized():
    rng = random.Random(2024)
    texts = [random_text(rng, max_n=500 if i < 8 else 160) for i in range(50)]
    for mutate in (0.0, 0.02):
        texts += [clone_text(rng, copies, block_len, mutate)
                  for copies, block_len in ((12, 40), (4, 120), (30, 6))]
    texts += [token_text(rng, 400, statics, params)
              for statics, params in ((30, 3), (60, 1), (12, 6))]
    for t in texts:
        check_against_oracle(t)
    # Exact renamed clones share prefixes past the first readiness check.
    for copies, block_len in ((6, 40), (3, 90), (8, 45)):
        idx = check_against_oracle(clone_text(rng, copies, block_len, 0.0))
        assert idx.plcp.max() > sfx.FIRST_CHECK


def test_build_degenerate_alphabets():
    # Runs and periodic texts have no late window correction, so their
    # groups are finished by ordinary rank at the first readiness check;
    # every suffix of y x^k y keeps one, so it is sorted round by round.
    # The mixed texts leave groups of both kinds at the first check, or
    # finish the run's groups while the tail's are still splitting.
    rng = random.Random(77)
    tail = "".join(rng.choice("xyzAB") for _ in range(80))
    cases = [("x" * 80, "x"), ("A" * 80, ""), ("xy" * 40, "xy"),
             ("xA" * 40, "x"), ("x" * 400, "x"), ("xy" * 200, "xy"),
             ("xyA" * 120, "xy"), ("A" * 300 + "x" * 100, "x"),
             ("x" * 100, "x"), ("A" * 100, ""), ("xy" * 50, "xy"),
             ("xyA" * 34, "xy"), ("y" + "x" * 120 + "y", "xy"),
             ("x" * 150 + tail, "xyz"),
             ("xA" * 50 + "y" + "zB" * 40 + "y" + tail, "xyz")]
    for raw, pi in cases:
        t = make_text(raw, pi=pi)
        idx = check_against_oracle(t)
        assert len(raw) < 100 or idx.plcp.max() > sfx.FIRST_CHECK


def fuzz_text(rng):
    """Small random, periodic, run (with and without a random tail) and
    renamed-clone texts."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_text(rng, max_n=60)
    if kind == 1:
        word = "".join(rng.choice("xyzA") for _ in range(rng.randint(1, 4)))
        return make_text(word * rng.randint(2, 20), pi="xyz")
    if kind == 2:
        tail = "".join(rng.choice("xyAB") for _ in range(rng.randint(0, 12)))
        return make_text(rng.choice("xA") * rng.randint(1, 50) + tail, pi="xy")
    return clone_text(rng, rng.randint(2, 6), rng.randint(3, 14),
                      rng.choice((0.0, 0.0, 0.05)))


def finish_path_fuzz(monkeypatch, first_check):
    monkeypatch.setattr(sfx, "FIRST_CHECK", first_check)
    rng = random.Random(909)
    for _ in range(450):
        check_against_oracle(fuzz_text(rng))


def test_build_finish_path_fuzz(monkeypatch):
    # Checks at depths 1, 2, 4, ... finish groups (all of them, or some
    # while others keep splitting) on texts far too short for the real
    # schedule.
    finish_path_fuzz(monkeypatch, 1)


@pytest.mark.parametrize("first_check", [3, 5])
def test_build_finish_path_fuzz_between_round_starts(monkeypatch,
                                                     first_check):
    # A round reads several symbols, so no round starts at depth 3 or 5:
    # each check fires at the first round start past its depth.
    finish_path_fuzz(monkeypatch, first_check)


@pytest.mark.parametrize("sigma", [7, 8, 9, 31, 32, 33])
def test_build_where_the_field_width_flips(sigma):
    # sigma counts the sentinel: 2**b - 1, 2**b and 2**b + 1 statics for
    # b = 3 and 5, around the sizes at which the statics alone need one
    # more bit of field. Renamed copies of one block keep groups alive for
    # several rounds, and the deepest distances widen the field as the
    # sort goes deeper.
    rng = random.Random(sigma)
    pis = [f"p{i}" for i in range(3)]
    sgs = [f"S{i:02d}" for i in range(sigma - 1)]
    block = [rng.choice(pis + sgs) for _ in range(30)]
    raw = list(sgs)
    rng.shuffle(raw)
    for _ in range(4):
        renaming = dict(zip(pis, rng.sample(pis, len(pis))))
        raw += [renaming.get(tok, tok) for tok in block]
        raw += rng.sample(pis + sgs, 3)
    t = make_text(" ".join(raw), pi=pis, mode="tokens")
    assert t.sigma == sigma
    idx = check_against_oracle(t)
    assert idx.plcp.max() >= 25


def test_build_deepest_distance_meets_lowest_static():
    # At depth D the first suffix reads distance D - 1, the deepest a
    # field at that depth can show, and the second the lowest static; the
    # symbols after them order the pair the other way. Over every D up to
    # 40 the depth is the last field of some round, where a field one bit
    # too narrow would read the two as equal.
    for statics in range(2, 11):
        high = "".join(chr(ord("A") + i) for i in range(2, statics))
        for depth in range(2, 41):
            fill = "B" * (depth - 2)
            raw = "x" + fill + "x" + (high or "B") + "y" + fill + "AB" + high
            check_against_oracle(make_text(raw, pi="xy"))


def sort_code(t):
    """The text's prev codes with statics moved just above the distances,
    as ``build_psa`` keys them."""
    raw = np.asarray(t.prev_codes, dtype=np.int64)
    return np.where(raw >= STATIC_BASE, raw - STATIC_BASE + t.n, raw)


def helper_texts():
    """A seeded rng and texts of every kind the sort's helpers meet."""
    rng = random.Random(5150)
    texts = [random_text(rng, max_n=90) for _ in range(40)]
    texts += [clone_text(rng, 4, 12, 0.0), clone_text(rng, 3, 20, 0.05)]
    texts += [make_text(raw, pi="xy") for raw in
              ("x" * 70, "xyA" * 20, "y" + "x" * 40 + "y", "A" * 30)]
    return rng, texts


def test_last_corrections_match_window_scan():
    _, texts = helper_texts()
    for t in texts:
        codes = t.prev_codes
        want = []
        for i in range(1, t.n + 1):
            last = 0
            for d, sym in enumerate(window_codes(t, i, t.n - i + 1), start=1):
                if sym != codes[i + d - 2]:
                    last = d
            want.append(last)
        assert sfx._last_corrections(sort_code(t)).tolist() == want


def test_lce_matches_direct_comparison():
    rng, texts = helper_texts()
    for t in texts:
        code = sort_code(t)
        levels = sfx._rank_levels(code)
        n = t.n
        assert sorted(levels[-1].tolist()) == list(range(n))
        if n < 2:
            continue
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(60)]
        pairs += [(n - 1, rng.randrange(n - 1)), (0, n - 1)]
        pairs = [(a, b) for a, b in pairs if a != b]
        want = []
        for a, b in pairs:
            h = 0
            while b + h < n and a + h < n and code[a + h] == code[b + h]:
                h += 1
            want.append(h)
        a, b = np.array(pairs, dtype=np.int64).T
        assert sfx._lce(levels, a, b).tolist() == want


def test_build_long_repeats_without_oracle():
    # Both are quadratic for a round-per-symbol sort; no time is asserted.
    t = make_text("x" * 29_999, pi="x")
    n = t.n
    idx = build_psa(t)
    assert idx.psa.tolist() == list(range(1, n + 1))
    assert idx.plcp[0] == 0
    assert (idx.plcp[1:] == n - 1 - np.arange(1, n)).all()
    t = make_text(("xyA" * 10_000)[:29_999], pi="xy")
    validate_psa(build_psa(t))


def golden_texts():
    """Seeded texts too long for the oracle: random bytes, exact renamed
    clones, a run with a short tail and a text that keeps a late window
    correction in every suffix."""
    rng = random.Random(6060)
    rand = "".join(rng.choice("uvwxyzABCDE") for _ in range(30_000))
    tail = "".join(rng.choice("xyA") for _ in range(30))
    return {
        "random": make_text(rand, pi="uvwxyz"),
        "clones": clone_text(rng, 50, 400, 0.0),
        "run": make_text("x" * 12_000 + tail, pi="xy"),
        "late": make_text("y" + "x" * 2000 + "y", pi="xy"),
    }


def psa_digest(idx):
    data = idx.psa.astype("<i8").tobytes() + idx.plcp.astype("<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


# Recorded from the round-per-symbol sort this one replaced; psa and plcp
# are a function of the text, so any correct sort reproduces them.
GOLDEN_DIGESTS = {
    "random":
        "19a9457622860f100d32e899b0883859b9f2a7e48a4aff6730de3c032818c9a0",
    "clones":
        "2e7925c33873491cf10e434f1e763fd1f84a8cff9e49d2b200f0743e8f2b023d",
    "run":
        "b6a9410f1f437a6e4548ddfff539b0d219de530979fd5c9de217712afba202bd",
    "late":
        "0345e25ed850e2676f77e3df9e416da035704639e35f4fdf8d84daab7707545d",
}


def test_build_matches_golden_digests():
    for name, t in golden_texts().items():
        idx = build_psa(t)
        validate_psa(idx)
        assert psa_digest(idx) == GOLDEN_DIGESTS[name], name


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
    for lo, hi in ((0, 3), (1, idx.n + 1), (-2, 1)):
        with pytest.raises(QueryError):
            range_search(idx, sym_codes(t, "00"), lo, hi, 0)


def test_plain_range_search_refuses_ranges_outside_the_text():
    # The README text has n = 15: [1, 20] used to leak an IndexError, and
    # [0, 3] answered (0, 3) after probing starts[-1] at rank 0.
    t = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    idx = build_psa(t)
    a = pattern_codes(t, "A")[0]
    for pat, lo, hi in ((a, 1, 20), ([0], 0, 3)):
        with pytest.raises(QueryError, match="out of bounds"):
            plain_range_search(idx, pat, lo, hi, 0, QueryStats())


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
    assert report(idx, (5, 4)) == []
    # (0, 3) used to slice from the end and report nothing, (5, 100) to clip.
    for bad in ((0, 3), (5, 100), (-2, 1), (1, idx.n + 1)):
        with pytest.raises(QueryError):
            report(idx, bad)


def test_compare_suffix_matches_its_definition():
    rng = random.Random(808)
    texts = [random_text(rng, max_n=90) for _ in range(25)]
    texts += [make_text(raw, pi="xy") for raw in ("x" * 40, "xy" * 25,
                                                  "xyA" * 20)]
    for t in texts:
        idx = build_psa(t)
        for _ in range(60):
            j = rng.randint(1, t.n)
            label = prev(t.symbol_array[j - 1:].tolist(), t.pi)
            # Follow the suffix for a while, then go astray (or past its end).
            m = rng.randint(1, len(label) + 3)
            follow = label[:rng.randint(0, m)]
            stray = sorted(set(label)) + [0, 1, 2, STATIC_BASE + 1]
            pat = follow + [rng.choice(stray) for _ in range(m - len(follow))]
            start = rng.randint(0, m)
            stop = rng.choice((None, rng.randint(start, m)))
            end = m if stop is None else stop
            got_s, got_p = label[start:end], pat[start:end]
            sign = (got_s > got_p) - (got_s < got_p)
            diff = next((start + k for k, (a, b) in
                         enumerate(zip(got_s, got_p)) if a != b), None)
            if diff is not None:
                want, read = (sign, diff), diff - start + 1
            elif sign:  # the suffix ends first, so it is the smaller
                want = (sign, max(start, len(label)))
                read = want[1] - start
            else:
                want, read = (0, end), end - start
            stats = QueryStats(symbol_comparisons=5)
            args = (idx, j, pat, start, stats) + (() if stop is None
                                                  else (stop,))
            assert compare_suffix(*args) == want, (j, pat, start, stop)
            assert stats.symbol_comparisons == 5 + read
            # An empty span compares equal and reads nothing.
            stats = QueryStats()
            assert compare_suffix(idx, j, pat, end, stats, end) == (0, end)
            assert stats.symbol_comparisons == 0


def check_subranges(t, idx):
    """range_search against the plain oracle on the range of every node of
    the LCP-interval tree (light ones included, though the tray keeps only
    the heavy nodes and their children), for patterns ending at, one and
    two symbols past the node's depth. range_search trusts its caller on
    the first ``skip`` symbols, so the check first asserts that every
    suffix in the range shares them."""
    labels = [prev(t.symbol_array[start - 1:].tolist(), t.pi)
              for start in idx.starts]
    for lo, hi, d in naive_intervals(t):
        label = labels[lo - 1]
        for extra in range(0, 3):
            pat = label[:d + extra]
            if not pat:
                continue
            skip = min(d, len(pat))
            assert all(labels[r - 1][:skip] == pat[:skip]
                       for r in range(lo, hi + 1))
            want = plain_range_search(idx, pat, lo, hi, skip, QueryStats())
            assert range_search(idx, pat, lo, hi, skip) == want


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
            pp = prev(encode_pattern(t, pat), t.pi)
            want = plain_range_search(idx, pp, 1, t.n, 0, QueryStats())
            assert range_search(idx, pp, 1, t.n, 0) == want
            # Any range meets the skip-0 precondition; one ending inside a
            # run of matches must stop the right-edge scan at its end.
            lo = rng.randint(1, t.n)
            hi = rng.randint(lo, t.n)
            want = plain_range_search(idx, pp, lo, hi, 0, QueryStats())
            assert range_search(idx, pp, lo, hi, 0) == want
        check_subranges(t, idx)


def test_variants_agree_on_subranges(demo_text, demo_index):
    # exhaustive over the demo index: every subrange sharing a prefix depth
    check_subranges(demo_text, demo_index.psa_index)


def test_psa_index_is_linear_space():
    rng = random.Random(12)
    t = make_text("".join(rng.choice("uvwxyzABC") for _ in range(2000)),
                  pi="uvwxyz")
    idx = build_psa(t)
    array_bytes, lists, todo = 0, [], [idx]
    while todo:
        obj = todo.pop()
        if obj is t:  # the input the index holds, not space it adds
            continue
        if isinstance(obj, np.ndarray):
            array_bytes += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            lists.append(len(obj))
            todo += [x for x in obj if not isinstance(x, int)]
        elif hasattr(obj, "__dict__"):
            todo += vars(obj).values()
    assert array_bytes <= 16 * t.n
    assert lists and max(lists) <= t.n


def test_validator_catches_corruption(demo_index):
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
            validate_psa(idx)
    t = make_text("xxyAyx", pi="xy")
    idx = build_psa(t)
    idx.plcp[3] += 1
    with pytest.raises(ValidationError, match="overstates"):
        validate_psa(idx)

    # An LCP as long as a suffix makes it a prefix of its successor, as
    # codes without a unique end marker could, or sorts a shorter suffix
    # after a longer one it prefixes.
    t = make_text("A", pi="", sigma="A")
    for psa, message in (([2, 1], "prefix"), ([1, 2], "exhaustion")):
        idx = PsaIndex(text=t, psa=np.array(psa), plcp=np.array([0, 1]))
        with pytest.raises(ValidationError, match=message):
            validate_psa(idx)


def test_index_refuses_arrays_of_the_wrong_shape(demo_index):
    """A psa one word short, a float psa, a list plcp and a 2-d psa."""
    psa, plcp = demo_index.psa_index.psa, demo_index.psa_index.plcp
    for arrays in ((psa[:-1], plcp), (psa.astype(float), plcp),
                   (psa, plcp.tolist()), (psa[None, :], plcp)):
        with pytest.raises(ValidationError, match="not int64 arrays"):
            PsaIndex(demo_index.text, *arrays)


def test_linear_check_catches_order_faults(demo_index):
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
            validate_psa(corrupt(change), full=False)
    # An overstated LCP keeps the pair in order one symbol past it; only
    # the full check sees it.
    overstated = corrupt(set_plcp(1, 5))
    validate_psa(overstated, full=False)
    with pytest.raises(ValidationError, match="overstates"):
        validate_psa(overstated, full=True)


def test_full_check_accepts_exactly_the_true_arrays():
    """Seeded corruptions of small indexes: one or two LCP words raised
    or lowered, or two adjacent suffix-array words swapped. The full check
    accepts an index exactly when its arrays are ``build_psa``'s. Many of
    the overstated LCPs pass the O(n) part (``past_linear``), so only the
    common-prefix part refuses them."""
    rng = random.Random(2626)
    corruptions = past_linear = 0
    while corruptions < 5000:
        idx = build_psa(random_text(rng, max_n=150))
        n = idx.n
        validate_psa(idx)
        for _ in range(25):
            psa, plcp = idx.psa.copy(), idx.plcp.copy()
            if rng.random() < 0.2:
                r = rng.randrange(n - 1)
                psa[[r, r + 1]] = psa[[r + 1, r]]
            else:
                for r in rng.sample(range(n), min(rng.randint(1, 2), n)):
                    plcp[r] += rng.choice((-1, 1, 1, 1, 2))
            forged = PsaIndex(text=idx.text, psa=psa, plcp=plcp)
            true = (psa == idx.psa).all() and (plcp == idx.plcp).all()
            try:
                validate_psa(forged, full=False)
                past_linear += 1
                validate_psa(forged)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == true, (idx.text.symbol_array, psa, plcp)
            corruptions += 1
    assert past_linear > 250
