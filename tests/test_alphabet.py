import random

import numpy as np
import pytest

from pstray.alphabet import (AlphabetSpec, encode_pattern,
                             parse_alphabet_spec, pattern_codes)
from pstray.encoding import prev, spe
from pstray.errors import ClassificationError, InputError, QueryError

from conftest import make_text


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
    assert t.decode(range(1, t.n)) == "zAxAyyxyAxxy"


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


def test_encode_pattern(demo_text):
    t = demo_text
    assert encode_pattern(t, "xAyy") == [1, 4, 2, 2]
    # unknown static: no possible occurrence
    assert encode_pattern(t, "xBy") is None
    assert encode_pattern(t, "x$") is None
    # '$' its own pattern cannot match either
    assert encode_pattern(t, "$") is None


@pytest.mark.parametrize(
    "raw", [[["x"]], 5, [1, 2]],
    ids=["unhashable-token", "not-iterable", "int-tokens"])
def test_encode_pattern_refuses_malformed_patterns(raw):
    # Each raised TypeError or, for int tokens, returned None ("occurs
    # nowhere"); pattern_codes raises QueryError for all three.
    t = make_text("xyAxyyAxBBz", pi="xyz")
    with pytest.raises(QueryError):
        pattern_codes(t, raw)
    with pytest.raises(QueryError):
        encode_pattern(t, raw)


def test_encode_pattern_fresh_parameterized():
    t = make_text("zAxAyyxyAxxy", pi="wxyz", sigma="A")
    enc = encode_pattern(t, "wAzw")
    assert enc is not None
    assert enc[0] == enc[3] < 0 and enc[1] == t.tok2id["A"]


def test_pattern_codes_equal_prev_and_spe_of_encoding():
    """The one-pass intake against prev and spe of encode_pattern, in both
    input modes and for both string and token-list input. Patterns draw on
    parameterized tokens the text never saw, unknown statics and '$', and
    often hold more distinct parameterized tokens than the text."""
    rng = random.Random(2031)
    params = {"bytes": list("uvwxyz"),
              "tokens": ["p0", "p1", "p2", "p3", "p4", "p5"]}
    statics = {"bytes": list("ABCD"), "tokens": ["S0", "S1", "S2", "S3"]}
    unknown = {"bytes": list("QR$"), "tokens": ["Q0", "R1", "$"]}
    seen = {"none": 0, "unseen_param": 0, "over_pi": 0, "matchable": 0}
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
                for raw in (sep.join(tokens), tokens):
                    got = pattern_codes(t, raw)
                    enc = encode_pattern(t, raw)
                    if enc is None:
                        assert got is None, raw
                        seen["none"] += 1
                        continue
                    assert got == (prev(enc, t.pi), spe(enc, t.pi)), raw
                    seen["matchable"] += 1
                    seen["unseen_param"] += min(enc) < 0
                    distinct = {c for c in enc if c <= t.pi}
                    seen["over_pi"] += len(distinct) > t.pi
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
