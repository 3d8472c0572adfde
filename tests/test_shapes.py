"""The hard input shapes of ``conftest.shapes``: each builds and loads to
an index that answers like the brute-force oracle and passes the exact
checks."""

import random

import pytest

from pstray import index_io
from pstray.oracle import encode_pattern, naive_ppm, random_pattern
from pstray.suffixes import build_psa, validate_psa
from pstray.tray import assemble

from conftest import SHAPES, shapes


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
            pattern = random_pattern(rng, text, max_m=12)
            want = naive_ppm(text, encode_pattern(text, pattern))
            assert index.query(pattern)[0] == want, (n, pattern)
            assert loaded.query(pattern)[0] == want, (n, pattern)


@pytest.mark.parametrize("name", SHAPES)
def test_shape_passes_the_exact_psa_check(name):
    validate_psa(build_psa(shapes(name, 4000)))
