import pytest

from pstray.oracle import (bijection_p_match, naive_ppm, naive_psa, naive_spe)

from conftest import DEMO_PLCP, DEMO_PSA, make_text


def test_naive_ppm_worked_example():
    t = make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A")
    pattern = [t.tok2id[c] for c in "yAzz"]
    assert naive_ppm(t, pattern) == [3, 7]


def test_naive_ppm_pattern_equals_text(demo_text):
    assert naive_ppm(demo_text, demo_text.symbol_array.tolist()) == [1]


def test_naive_ppm_demo(demo_text):
    pattern = [demo_text.tok2id[c] for c in "xAyy"]
    assert naive_ppm(demo_text, pattern) == [3, 8]


def test_naive_spe_capacity():
    with pytest.raises(ValueError, match="capacity"):
        naive_spe(list(range(1, 10)), 9)


def test_naive_spe_small():
    # statics fixed, parameters renamed to the least image
    assert naive_spe([3, 1, 3], 3) == [1, 2, 1]
    assert naive_spe([5, 4], 3) == [5, 4]


def test_naive_psa_demo(demo_text):
    psa, plcp = naive_psa(demo_text)
    assert psa == DEMO_PSA and plcp == DEMO_PLCP


def test_naive_psa_single():
    t = make_text("A", pi="")
    # two suffixes: 'A$' and '$'
    assert naive_psa(t) == ([1, 2], [0, 0])


def test_naive_psa_capacity():
    t = make_text("A" * 5001, pi="")
    with pytest.raises(ValueError, match="capacity"):
        naive_psa(t)


def test_bijection_p_match():
    # x<->z swap with statics fixed
    assert bijection_p_match([1, 4, 3], [3, 4, 1], 3)
    assert not bijection_p_match([1, 4], [4, 4], 3)   # class mismatch
    assert not bijection_p_match([1, 1], [1, 2], 3)   # not a function
    assert not bijection_p_match([1, 2], [1, 1], 3)   # not injective
    assert not bijection_p_match([4], [5], 3)         # statics must be equal
    assert not bijection_p_match([1], [1, 1], 3)
