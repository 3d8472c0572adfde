import random

import pytest

from pstray.alphabet import (AlphabetSpec, encode_pattern,
                             parse_alphabet_spec, pattern_codes, rank)
from pstray.encoding import prev, spe
from pstray.errors import (ClassificationError, InputError, QueryError,
                           RankError)

from conftest import make_text


def test_ingest_demo_text():
    t = make_text("zAxAyyxyAxxy", pi="xyz", sigma="A")
    assert (t.n, t.pi, t.sigma) == (13, 3, 2)
    # dense ids in lexicographic token order, sentinel last
    assert [t.tok2id[c] for c in "xyzA"] == [1, 2, 3, 4]
    assert t.symbols[-1] == t.sentinel == 5


def test_ingest_static_only():
    t = make_text("A", pi="", sigma="A")
    assert (t.n, t.pi, t.sigma) == (2, 0, 2)


def test_ingest_token_mode():
    t = make_text("x x y", pi="xy", mode="tokens")
    assert t.symbols == [1, 1, 2, 3]
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


def test_rank_values(demo_text):
    assert rank(1, demo_text) == 1                      # smallest parameterized
    assert rank(demo_text.tok2id["A"], demo_text) == 4  # after all of x,y,z
    assert rank(demo_text.sentinel, demo_text) == 5     # largest overall
    with pytest.raises(RankError):
        rank(0, demo_text)
    with pytest.raises(RankError):
        rank(6, demo_text)


def test_rank_is_monotone_bijection(demo_text):
    t = demo_text
    # parameterized tokens sort below statics, sentinel last
    ordered = sorted(t.tok2id, key=lambda tok: (not t.spec.is_parameterized(tok), tok))
    ranks = [rank(t.tok2id[tok], t) for tok in ordered] + [rank(t.sentinel, t)]
    assert ranks == list(range(1, t.pi + t.sigma + 1))


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
