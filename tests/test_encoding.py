import itertools
import random

import numpy as np
import pytest

from pstray.encoding import (STATIC_BASE, pfunction_from_fpos, prev_array,
                             sort_by_symbol)
from pstray.errors import QueryError
from pstray.oracle import (bijection_p_match, fpos, fpos_stream, naive_spe,
                           p_match, prev, spe)
from pstray.suffixes import _window_symbols

from conftest import make_text, random_text, sym_codes, window_codes


def enc(text, s):
    """Internal ids of an external string (no sentinel)."""
    return [text.tok2id[c] for c in s]


# ---------------------------------------------------------------- prev

def test_prev_worked_example():
    t = make_text("yxzAyyyBxzz", pi="xyz", sigma="AB")
    got = prev(enc(t, "yxzAyyyBxzz"), t.pi)
    assert got == sym_codes(t, "000A411B771")


def test_prev_of_demo_suffix(demo_text):
    t = demo_text
    got = prev(t.symbol_array.tolist(), t.pi)
    # spelled out: 0 A 0 A 0 1 4 2 A 3 1 4 $
    assert got == sym_codes(t, "0A0A0142A314$")


def test_prev_all_static():
    t = make_text("ABBA", pi="", sigma="AB")
    w = enc(t, "ABBA")
    assert prev(w, t.pi) == [STATIC_BASE + c for c in w]
    assert prev([], t.pi) == []


# ------------------------------------------------ whole-text prev, numpy

def test_prev_array_equals_prev_on_random_texts():
    rng = random.Random(2718)
    for i in range(300):
        t = random_text(rng, max_n=200 if i < 20 else 60)
        want = prev(t.symbol_array.tolist(), t.pi)
        order = sort_by_symbol(t.symbol_array, t.pi)
        assert prev_array(t.symbol_array, order).tolist() == want
        assert t.code_array.tolist() == t.prev_codes == want
        # the sort's order, kept: each symbol's positions, ascending
        cuts = t.symbol_cuts
        assert len(cuts) == t.pi + 1 and cuts[-1] == len(t.by_symbol)
        for x in range(1, t.pi + 1):
            at = [p for p, c in enumerate(t.symbol_array.tolist()) if c == x]
            assert t.by_symbol[cuts[x - 1]:cuts[x]].tolist() == at


def test_prev_array_on_degenerate_texts():
    texts = [make_text("ABBA", pi=""), make_text("ABA", pi="xyz"),
             make_text("A" * 40, pi=""), make_text("x", pi="x"),
             make_text("x" * 50, pi="x"), make_text("x" * 50 + "A", pi="x")]
    assert [t.pi for t in texts] == [0, 0, 0, 1, 1, 1]
    for t in texts:
        assert t.prev_codes == prev(t.symbol_array.tolist(), t.pi)


def wide_text(pi):
    """A token-mode text over ``pi`` parameterized tokens and two statics:
    every token once, a static, all of them again in a shuffled order, then
    the tokens of the largest and the smallest id, so each id has a first
    occurrence and a distance."""
    toks = [f"p{k:06d}" for k in range(pi)]
    again = toks[:]
    random.Random(pi).shuffle(again)
    return make_text(toks + ["S"] + again + ["T", toks[-1], toks[0]],
                     pi=toks, mode="tokens")


@pytest.mark.parametrize("pi", [255, 256, 257, 65535, 65536, 65537])
def test_prev_array_on_both_sides_of_each_key_width(pi):
    """The sort key narrows to 8, 16 or 32 bits by pi; a key one width too
    narrow would merge ids 1 and 257 (or 65537)."""
    t = wide_text(pi)
    assert t.pi == pi and t.symbol_array[-3] == pi
    assert t.prev_codes == prev(t.symbol_array.tolist(), pi)
    cuts = t.symbol_cuts
    counts = [b - a for a, b in zip(cuts, cuts[1:])]
    assert counts == [3] + [2] * (pi - 2) + [3]


# ---------------------------------------------------------------- spe

def test_spe_worked_example():
    t = make_text("yxzAyyyBxzz", pi="xyz", sigma="AB")
    assert spe(enc(t, "yxzAyyyBxzz"), t.pi) == enc(t, "xyzAxxxByzz")


def test_spe_of_demo_text(demo_text):
    t = demo_text
    got = spe(t.symbol_array.tolist(), t.pi)
    assert got == enc(t, "xAyAzzyzAyyz") + [t.sentinel]
    # agree with the enumeration oracle
    assert got == naive_spe(t.symbol_array.tolist(), t.pi)


def test_spe_all_static():
    t = make_text("AB", pi="", sigma="AB")
    assert spe(enc(t, "ABBA"), t.pi) == enc(t, "ABBA")


def exhaustive_strings(max_len):
    """All internal-symbol strings over 3 parameterized + 2 static ids."""
    t = make_text("xyzAB", pi="xyz", sigma="AB")
    universe = [1, 2, 3, 4, 5]
    for ln in range(1, max_len + 1):
        for w in itertools.product(universe, repeat=ln):
            yield t, list(w)


def test_spe_idempotent_and_minimal():
    for t, w in exhaustive_strings(4):
        s = spe(w, t.pi)
        assert spe(s, t.pi) == s
        assert s == naive_spe(w, t.pi)


def test_repeated_symbol_canonical_agreement():
    # wherever the encoding stores a back-distance, the canonical form
    # repeats the symbol found that far back
    for t, w in exhaustive_strings(4):
        pw, sw = prev(w, t.pi), spe(w, t.pi)
        for j, code in enumerate(pw):
            if 0 < code < STATIC_BASE:
                assert sw[j] == sw[j - code]


# ---------------------------------------------------------------- p_match

def test_p_match_examples():
    t = make_text("yxzAyyyBxzz", pi="xyz", sigma="AB")
    assert p_match(enc(t, "xyzAxxxByzz"), enc(t, "zxyAzzzBxyy"), t.pi)
    assert not p_match([1], [t.tok2id["A"]], t.pi)
    w = enc(t, "xyzzAy")
    assert p_match(w, w, t.pi)


def test_p_match_agrees_with_bijection_oracle_small():
    strings = [(t, w) for t, w in exhaustive_strings(3)]
    pi = strings[0][0].pi
    ws = [w for _, w in strings]
    for a in ws:
        for b in ws:
            assert p_match(a, b, pi) == bijection_p_match(a, b, pi)


# ------------------------------------------------- window-adjusted symbols

def test_window_symbols_demo(demo_text):
    codes = demo_text.code_array
    # symbols 1 and 3 of the suffix at 6, one depth per start
    assert _window_symbols(codes, np.array([5, 5]),
                           np.array([1, 3])).tolist() == [0, 2]
    # first window symbol of any parameterized position is fresh
    starts = np.array([1, 3, 5, 6, 7, 8, 10, 11, 12]) - 1
    assert _window_symbols(codes, starts, 1).tolist() == [0] * len(starts)


def test_window_symbols_match_materialized_suffixes():
    rng = random.Random(4242)

    for i in range(25):
        t = random_text(rng, max_n=200 if i < 5 else 60)
        for j in range(1, t.n + 1):
            suffix_prev = prev(t.symbol_array[j - 1:].tolist(), t.pi)
            assert window_codes(t, j, t.n - j + 1) == suffix_prev


# ---------------------------------------------------------------- f-arrays

def test_fpos_worked_example():
    t = make_text("xyxzyyxz", pi="xyz")
    assert fpos(t, 1) == (1, 2, 4)


def test_fpos_sentinel_suffix(demo_text):
    assert fpos(demo_text, demo_text.n) == (0, 0, 0)
    for i in (0, -1, demo_text.n + 1):
        with pytest.raises(QueryError):
            fpos(demo_text, i)


def test_fpos_demo_full_text(demo_text):
    assert fpos(demo_text, 1) == (3, 5, 1)


def test_fpos_stream_matches_recomputation():
    rng = random.Random(77)
    from conftest import random_text

    for i in range(25):
        t = random_text(rng, max_n=200 if i < 5 else 60)
        streamed = dict(fpos_stream(t))
        for i in range(1, t.n + 1):
            suffix = t.symbol_array[i - 1:].tolist()
            expect = []
            for x in range(1, t.pi + 1):
                expect.append(suffix.index(x) + 1 if x in suffix else 0)
            assert streamed[i] == tuple(expect)


def test_fpos_entries_point_at_their_symbol(demo_text):
    t = demo_text
    for i, farr in fpos_stream(t):
        for x, pos in enumerate(farr, start=1):
            if pos:
                assert t.symbol_array[i + pos - 2] == x


# ---------------------------------------------------------------- p-function

def test_pfunction_on_prefix_in_canonical_order():
    t = make_text("xyxzyyxz", pi="xyz")
    farr = fpos(t, 1)
    # the text already starts x, y, ... so the renaming is the identity
    assert pfunction_from_fpos(8, farr) == {1: 1, 2: 2, 3: 3}


def test_pfunction_demo_window(demo_text):
    t = demo_text
    farr = fpos(t, 1)
    got = pfunction_from_fpos(3, farr)  # window "zAx"
    z, x, y = t.tok2id["z"], t.tok2id["x"], t.tok2id["y"]
    assert got == {z: 1, x: 2}
    assert y not in got


def test_pfunction_empty_window(demo_text):
    assert pfunction_from_fpos(0, fpos(demo_text, 1)) == {}


def test_pfunction_general_transport():
    # f applied position-wise carries the source onto its canonical form
    rng = random.Random(11)
    from conftest import random_text

    for _ in range(40):
        t = random_text(rng, max_n=40)
        i = rng.randint(1, t.n)
        limit = rng.randint(0, t.n - i + 1)
        fmap = pfunction_from_fpos(limit, fpos(t, i))
        window = t.symbol_array[i - 1:i - 1 + limit].tolist()
        mapped = [fmap[c] if c <= t.pi else c for c in window]
        assert mapped == spe(window, t.pi)
