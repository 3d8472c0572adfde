"""The hard input shapes of ``conftest.shapes``: each builds and loads to
an index that answers like the brute-force oracle and passes the exact
checks."""

import random

import pytest

from pstray import index_io
from pstray.oracle import encode_pattern, naive_ppm
from pstray.suffixes import build_psa, validate_psa
from pstray.tray import assemble

from conftest import SHAPES, shapes


def token_pattern(rng, text, max_m=12):
    """A window of the text with its parameterized tokens permuted, or
    random tokens of the text, as a token list."""
    tokens = sorted(text.tok2id)
    params = [t for t in tokens if text.spec.is_parameterized(t)]
    if rng.random() < 0.5 and text.n > 2:
        m = rng.randint(1, min(max_m, text.n - 1))
        start = rng.randrange(text.n - m)
        renaming = dict(zip(params, rng.sample(params, len(params))))
        return [renaming.get(text.id2tok[c], text.id2tok[c])
                for c in text.symbol_array[start:start + m].tolist()]
    return [rng.choice(tokens) for _ in range(rng.randint(1, max_m))]


@pytest.mark.parametrize("name", SHAPES)
def test_shape_answers_match_the_oracle(name, tmp_path):
    rng = random.Random(name)
    for n in (40, 300):
        text = shapes(name, n)
        index = assemble(text)
        index.validate()
        path = tmp_path / "shape.idx"
        index_io.save(index, path)
        loaded = index_io.load(path)
        for _ in range(25):
            pattern = token_pattern(rng, text)
            want = sorted(naive_ppm(text, encode_pattern(text, pattern)))
            assert index.query(pattern)[0] == want, (n, pattern)
            assert loaded.query(pattern)[0] == want, (n, pattern)


@pytest.mark.parametrize("name", SHAPES)
def test_shape_passes_the_exact_psa_check(name):
    validate_psa(build_psa(shapes(name, 4000)))
