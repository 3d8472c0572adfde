import random
import re

import numpy as np
import pytest

from pstray.alphabet import (AlphabetSpec, PText, ingest,
                             parse_alphabet_spec, pattern_codes)
from pstray.encoding import prev, spe
from pstray.errors import (ClassificationError, InputError, QueryError,
                           ValidationError)
from pstray.oracle import encode_pattern, naive_ppm
from pstray.tray import assemble

from conftest import decode, make_text


def test_ingest_demo_text():
    t = make_text("zAxAyyxyAxxy", pi="xyz", sigma="A")
    assert (t.n, t.pi, t.sigma) == (13, 3, 2)
    # dense ids in lexicographic token order, sentinel last
    assert [t.tok2id[c] for c in "xyzA"] == [1, 2, 3, 4]
    assert t.symbol_array[-1] == t.sentinel == 5


def test_ingest_static_only():
    t = make_text("A", pi="", sigma="A")
    assert (t.n, t.pi, t.sigma) == (2, 0, 2)


def test_ingest_token_mode():
    t = make_text("x x y", pi="xy", mode="tokens")
    assert t.symbol_array.tolist() == [1, 1, 2, 3]
    assert t.n == 4


def test_ingest_counts_occurring_symbols_only():
    t = make_text("xx", pi="xyz", sigma="AB")
    assert (t.pi, t.sigma) == (1, 1)


def test_ingest_round_trip():
    t = make_text("zAxAyyxyAxxy", pi="xyz", sigma="A")
    assert decode(t, range(1, t.n)) == "zAxAyyxyAxxy"


def test_ingest_errors():
    with pytest.raises(InputError):
        make_text("", pi="x")
    with pytest.raises(ClassificationError):
        make_text("xq", pi="x", sigma="A")
    with pytest.raises(InputError):
        make_text("x$y", pi="xy")
    with pytest.raises(InputError):
        AlphabetSpec(pi_members=frozenset("$x"))
    with pytest.raises(InputError):
        AlphabetSpec(pi_members=frozenset("x"), sigma_members=frozenset("x"))


# Each of these failed outside PstrayError: int tokens built a text that
# save could not write, mixed tokens broke the alphabet's sort, a list token
# is unhashable and 5 is not iterable.
@pytest.mark.parametrize("raw", [[1, 2, 1], [1, "a"], [["x"]], 5, b"xA"],
                         ids=["int-tokens", "mixed-tokens", "unhashable-token",
                              "not-iterable", "bytes"])
def test_ingest_refuses_what_it_cannot_store(raw):
    with pytest.raises(InputError):
        make_text(raw, pi="xyz")


def test_ingest_names_the_first_stray_token():
    # Classification runs over the distinct tokens; the message still
    # names the first stray token in text order.
    for raw, first in (("xAqBrzqs", "q"), ("xArqzAq", "r"), ("zyxwvA", "z")):
        with pytest.raises(ClassificationError, match=f"'{first}'"):
            make_text(raw, pi="x", sigma="AB")
    with pytest.raises(ClassificationError, match="'S9'"):
        make_text("p S1 S9 S0 S7 S8", pi=["p"], sigma=["S1"], mode="tokens")


@pytest.mark.parametrize("raw, first", [
    (["x", 1, ["y"]], "1"), (["x", "y", ["z"], 2], r"\['z'\]"),
    (["x", 2.5, "y"], "2.5"), ([b"x", "y"], "b'x'")])
def test_ingest_names_the_first_non_string_token(raw, first):
    with pytest.raises(InputError, match=f"token {first} is not a string"):
        make_text(raw, pi="xyz")


def test_symbol_array_matches_a_per_token_reference():
    rng = random.Random(4711)
    cases = []
    for _ in range(20):
        params = rng.sample("uvwxyz", rng.randint(0, 4))
        tokens = [rng.choice(params + list("ABCD"))
                  for _ in range(rng.randint(1, 300))]
        cases.append(("".join(tokens), tokens, "uvwxyz", "bytes"))
        names = [f"id{k}" for k in range(rng.randint(0, 12))]
        words = [rng.choice(names + ["if", "(", ")", "=", "+"])
                 for _ in range(rng.randint(1, 300))]
        cases.append((" ".join(words), words, names, "tokens"))
    for raw, tokens, pi, mode in cases:
        t = make_text(raw, pi=pi, mode=mode)
        params = sorted({tok for tok in tokens if tok in pi})
        statics = sorted({tok for tok in tokens if tok not in pi})
        want = {tok: i for i, tok in enumerate(params + statics, start=1)}
        assert t.tok2id == want
        assert (t.pi, t.sigma) == (len(params), len(statics) + 1)
        assert t.symbol_array.dtype == np.int64
        assert t.symbol_array.tolist() == [want[tok] for tok in tokens] + [
            len(want) + 1]


# A str is not a token set: "xy" in "xyz" is a substring test.
@pytest.mark.parametrize("members", [
    dict(pi_members="xyz"), dict(pi_members=frozenset("x"), sigma_members="AB"),
    dict(pi_members=frozenset(["x", 1])), dict(pi_members=frozenset("x"),
                                               sigma_members=frozenset([b"A"])),
    dict(pi_members=5), dict(pi_members=None),
], ids=["pi-str", "sigma-str", "pi-int-member", "sigma-bytes-member",
        "pi-not-a-set", "pi-none"])
def test_alphabet_spec_refuses_non_string_sets(members):
    with pytest.raises(InputError):
        AlphabetSpec(mode="tokens", **members)


# A lone surrogate is a str that UTF-8 cannot encode: each of these built,
# and index_io.save then raised UnicodeEncodeError.
def test_tokens_utf8_cannot_encode_are_refused():
    bad = re.escape(repr("\ud800"))
    with pytest.raises(InputError, match=f"text token {bad}"):
        ingest("x\ud800y\udc80", AlphabetSpec(pi_members=frozenset("xy")))
    with pytest.raises(InputError, match=f"text token {bad}"):
        make_text("a \udc80b \ud800 a", pi=["a"], mode="tokens")
    with pytest.raises(InputError, match="declared token"):
        AlphabetSpec(pi_members=frozenset(["x", "\udc80"]))
    with pytest.raises(InputError, match="declared token"):
        AlphabetSpec(pi_members=frozenset("x"),
                     sigma_members=frozenset(["A\ud800"]))


# Symbol arrays ingest cannot make, passed by hand: each built an index of
# a text with no end marker last, or raised TypeError, IndexError or
# OverflowError.
@pytest.mark.parametrize("symbols", [
    np.array([1, 2, 1]), np.array([1.0, 2.0, 3.0]), np.array([1, 3, 2, 3]),
    np.array([0, 2, 3]), np.array([1, 4, 3]), np.array([], dtype=np.int64),
    [1, 2, 3], np.array([[1, 3]]), np.array([1, 2, 3], dtype=np.int32),
], ids=["no-end-marker", "float", "end-marker-inside", "id-0",
        "id-past-the-end-marker", "empty", "list", "2-d", "int32"])
def test_text_refuses_symbols_ingest_cannot_make(symbols):
    with pytest.raises(ValidationError, match="text symbols"):
        assemble(PText(symbol_array=symbols, pi=1, sigma=2,
                       tok2id={"x": 1, "A": 2},
                       spec=AlphabetSpec(pi_members=frozenset("x"))))


# A symbol's id is its lexicographic rank in the occurring alphabet, every
# parameterized symbol ranked below every static one: the dispatch arrays
# are indexed by it.
def test_rank_values(demo_text):
    t = demo_text
    assert t.tok2id["x"] == 1               # smallest parameterized
    assert t.tok2id["A"] == 4               # after all of x, y, z
    assert t.sentinel == t.pi + t.sigma == 5  # largest overall
    assert t.id2tok[5] == "$"


def test_rank_is_monotone_bijection(demo_text):
    t = demo_text
    # parameterized tokens sort below statics, sentinel last
    ordered = sorted(t.tok2id, key=lambda tok: (not t.spec.is_parameterized(tok), tok))
    ids = [t.tok2id[tok] for tok in ordered] + [t.sentinel]
    assert ids == list(range(1, t.pi + t.sigma + 1))


def test_parse_alphabet_spec():
    spec = parse_alphabet_spec("pi: x y z\nsigma: A B\nmode: tokens\n")
    assert spec.pi_members == frozenset("xyz")
    assert spec.sigma_members == frozenset("AB")
    assert spec.mode == "tokens"
    spec = parse_alphabet_spec("# comment\nsigma: auto\npi: x\n")
    assert spec.sigma_members is None and spec.mode == "bytes"
    with pytest.raises(InputError):
        parse_alphabet_spec("pi: x\n")
    with pytest.raises(InputError):
        parse_alphabet_spec("pi: x\nsigma: auto\nwhat: ever\n")
    # A repeated key is refused, not read last-one-wins.
    for content, line, key in (("pi: x\npi: y\nsigma: auto", 2, "pi"),
                               ("sigma: A\npi: x\nsigma: auto", 3, "sigma"),
                               ("mode: bytes\npi: x\nsigma: A\n\nMode: tokens",
                                5, "mode")):
        with pytest.raises(InputError,
                           match=f"line {line}: repeated key '{key}'"):
            parse_alphabet_spec(content)


def test_encode_pattern(demo_text):
    t = demo_text
    assert encode_pattern(t, "xAyy") == [1, 4, 2, 2]
    # An unknown static, '$' included, takes an id above the end marker's,
    # which no window holds: no possible occurrence.
    for raw in ("xBy", "x$", "$"):
        assert max(encode_pattern(t, raw)) > t.sentinel
        assert naive_ppm(t, encode_pattern(t, raw)) == []


@pytest.mark.parametrize(
    "raw", [[["x"]], 5, [1, 2]],
    ids=["unhashable-token", "not-iterable", "int-tokens"])
def test_encode_pattern_refuses_malformed_patterns(raw):
    # The intake and the oracle each check the pattern themselves, and
    # both refuse all three.
    t = make_text("xyAxyyAxBBz", pi="xyz")
    with pytest.raises(QueryError):
        pattern_codes(t, raw)
    with pytest.raises(QueryError):
        encode_pattern(t, raw)


def test_encode_pattern_fresh_parameterized():
    t = make_text("zAxAyyxyAxxy", pi="wxyz", sigma="A")
    enc = encode_pattern(t, "wAzw")
    assert enc[0] == enc[3] < 0 and enc[1] == t.tok2id["A"]


def test_pattern_codes_equal_prev_and_spe_of_encoding():
    """The one-pass intake against the definition, in both input modes and
    for both string and token-list input. It gives None, and the oracle no
    occurrence, exactly when the pattern holds a static token the text
    never saw ('$' included) or more distinct parameterized tokens than pi,
    which no window holds; else prev and spe of encode_pattern."""
    rng = random.Random(2031)
    params = {"bytes": list("uvwxyz"),
              "tokens": ["p0", "p1", "p2", "p3", "p4", "p5"]}
    statics = {"bytes": list("ABCD"), "tokens": ["S0", "S1", "S2", "S3"]}
    unknown = {"bytes": list("QR$"), "tokens": ["Q0", "R1", "$"]}
    seen = {"new_static": 0, "unseen_param": 0, "over_pi": 0, "matchable": 0}
    for mode, sep in (("bytes", ""), ("tokens", " ")):
        for _ in range(40):
            used = rng.sample(params[mode], rng.randint(0, 3))
            stat = rng.sample(statics[mode], rng.randint(1, 2))
            text_tokens = [rng.choice(used + stat)
                           for _ in range(rng.randint(1, 60))]
            t = make_text(sep.join(text_tokens), pi=params[mode], mode=mode)
            pool = params[mode] + stat + unknown[mode] * (rng.random() < 0.3)
            for _ in range(30):
                tokens = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
                over_pi = len(set(tokens) & set(params[mode])) > t.pi
                new_static = any(tok not in params[mode]
                                 and tok not in t.tok2id for tok in tokens)
                for raw in (sep.join(tokens), tokens):
                    got = pattern_codes(t, raw)
                    enc = encode_pattern(t, raw)
                    if over_pi or new_static:
                        assert got is None, raw
                        assert naive_ppm(t, enc) == [], raw
                        seen["over_pi" if over_pi else "new_static"] += 1
                        continue
                    assert got == (prev(enc, t.pi), spe(enc, t.pi)), raw
                    seen["matchable"] += 1
                    seen["unseen_param"] += min(enc) < 0
    assert all(count > 20 for count in seen.values()), seen


def test_pattern_codes_rejects_empty_and_malformed():
    t = make_text("zAxAyyxyAxxy", pi="xyz", sigma="A")
    tk = make_text("a B a", pi=["a"], mode="tokens")
    for text, raw in ((t, ""), (t, []), (tk, ""), (tk, "   "), (tk, [])):
        with pytest.raises(QueryError, match="empty"):
            pattern_codes(text, raw)
    for raw in (5, None, [["x"]], ["x", ["y"]], ["x", 1.5]):
        with pytest.raises(QueryError):
            pattern_codes(t, raw)
    # A pattern that cannot occur (an unknown static, more distinct
    # parameterized tokens than pi = 1) is still read to its end.
    t1 = make_text("xAx", pi="xyz")
    for raw in (["Q", 1], ["Q", ["y"]], ["x", "y", 1]):
        with pytest.raises(QueryError):
            pattern_codes(t1, raw)


def test_unordered_token_collections_are_refused():
    """A set or a mapping has no token order (a set's iterates by hash),
    so neither a text nor a pattern may be one; any ordered iterable of
    tokens is read in its own order."""
    spec = AlphabetSpec(pi_members=frozenset("xyz"),
                        sigma_members=frozenset("A"))
    index = assemble(ingest("xyzAxxxAyyzAzx", spec))
    for raw in ({"x", "A", "y"}, frozenset("xAy"), {"x": 1, "A": 2},
                {"x": 1, "A": 2}.keys()):
        with pytest.raises(InputError, match="sequence"):
            ingest(raw, spec)
        with pytest.raises(QueryError, match="sequence"):
            index.query(raw)
    for raw in (list("yAzz"), tuple("yAzz"), (c for c in "yAzz"),
                np.array(list("yAzz"))):
        assert index.query(raw)[0] == [3, 7]
    for raw in (list("xAy"), tuple("xAy"), (c for c in "xAy"),
                np.array(list("xAy"))):
        assert decode(ingest(raw, spec), range(1, 4)) == "xAy"
