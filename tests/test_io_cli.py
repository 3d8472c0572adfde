import hashlib
import random
import struct

import pytest

from pstray import index_io
from pstray.cli import main
from pstray.errors import (ChecksumError, ConstructionError, FormatError,
                           PstrayError)
from pstray.tray import assemble, query

from conftest import make_text, random_pattern, random_text


def write_inputs(tmp_path, raw="xyzAxxxAyyzAzx", pi="x y z", sigma="A",
                 mode="bytes"):
    text_file = tmp_path / "text.txt"
    text_file.write_text(raw + ("\n" if mode == "bytes" else ""))
    alpha = tmp_path / "alpha.txt"
    alpha.write_text(f"pi: {pi}\nsigma: {sigma}\nmode: {mode}\n")
    return text_file, alpha


# ------------------------------------------------------------- file format

def test_round_trip_byte_identical(tmp_path, demo_index):
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    index_io.save(demo_index, p1)
    loaded = index_io.load(p1)
    index_io.save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_queries(tmp_path):
    rng = random.Random(88)
    for _ in range(6):
        t = random_text(rng, max_n=120)
        index = assemble(t)
        path = tmp_path / "x.idx"
        index_io.save(index, path)
        loaded = index_io.load(path)
        for _ in range(25):
            pat = random_pattern(rng, t)
            assert query(index, t, pat)[0] == \
                query(loaded, loaded.text, pat)[0]


def test_truncated_file(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ChecksumError):
        index_io.load(path)


def sections(data):
    """Section id -> (payload offset, payload length) of an index file."""
    out, pos = {}, 8 + 6 * 8  # magic and header
    while pos < len(data) - 32:
        sec_id, length = struct.unpack_from("<2Q", data, pos)
        out[sec_id] = (pos + 16, length)
        pos += 16 + length
    return out


def rewrite(path, data):
    """Write ``data`` with a recomputed checksum."""
    body = bytes(data[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_wrong_magic(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTANIDX"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        index_io.load(path)


def test_wrong_version(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    # Version 1 stored node records and dispatch arrays; no reader is kept.
    for version in (1, 99):
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 8, version)  # the word after the magic
        forged = tmp_path / "forged.idx"
        rewrite(forged, data)
        with pytest.raises(FormatError, match=f"version {version}"):
            index_io.load(forged)


def test_corrupt_section_fails_validation(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    data = bytearray(path.read_bytes())
    # duplicate a suffix-array entry (valid checksum, invalid permutation)
    off = data.find(struct.pack("<3Q", 6, 7, 11))  # start of the psa payload
    assert off > 0
    struct.pack_into("<Q", data, off, 7)
    body = bytes(data[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match="validation"):
        index_io.load(path)


def test_file_holds_only_text_psa_and_plcp(tmp_path):
    rng = random.Random(7)
    t = make_text("".join(rng.choice("uvwxyzABC") for _ in range(3000)),
                  pi="uvwxyz")
    path = tmp_path / "x.idx"
    index_io.save(assemble(t), path)
    data = path.read_bytes()
    secs = sections(data)
    assert sorted(secs) == [index_io.SEC_ALPHABET, index_io.SEC_TEXT,
                            index_io.SEC_PSA, index_io.SEC_PLCP]
    _, alphabet_len = secs[index_io.SEC_ALPHABET]
    framing = 8 + 6 * 8 + 4 * 16 + 32  # magic, header, frames, digest
    assert len(data) <= 24 * t.n + alphabet_len + framing


def test_load_rebuilds_what_assemble_builds(tmp_path):
    rng = random.Random(66)
    texts = [random_text(rng, max_n=300) for _ in range(8)]
    texts += [make_text("x" * 60, pi="x"), make_text("xyA" * 30, pi="xy")]
    for t in texts:
        index = assemble(t)
        path = tmp_path / "x.idx"
        index_io.save(index, path)
        loaded = index_io.load(path)
        for field in ("parent", "depth", "lo", "hi"):
            assert getattr(loaded.tree, field) == getattr(index.tree, field)
        assert [list(k) for k in loaded.tree.children] == \
            [list(k) for k in index.tree.children]
        for field in ("threshold", "is_pnode", "is_branching", "heavy_child",
                      "rep_pos", "pfun", "parray"):
            assert getattr(loaded.ann, field) == getattr(index.ann, field)
        assert loaded.psa_index.psa.tolist() == index.psa_index.psa.tolist()
        assert loaded.psa_index.plcp.tolist() == index.psa_index.plcp.tolist()


def _forge(tmp_path, index, sec_id, change):
    """Save ``index``, let ``change`` edit the words of one section in
    place, re-checksum, and return the path."""
    path = tmp_path / "x.idx"
    index_io.save(index, path)
    data = bytearray(path.read_bytes())
    off, length = sections(data)[sec_id]
    words = list(struct.unpack_from(f"<{length // 8}Q", data, off))
    change(words)
    struct.pack_into(f"<{length // 8}Q", data, off, *words)
    rewrite(path, data)
    return path


def test_forged_psa_and_plcp_are_refused(tmp_path, demo_index):
    def swap_psa(words):  # adjacent ranks with a long shared prefix
        words[5], words[6] = words[6], words[5]

    def plcp_past_suffix(words):
        words[6] = 40

    def plcp_lowered(words):  # the suffixes still agree one symbol past it
        words[6] -= 1

    for sec_id, change in ((index_io.SEC_PSA, swap_psa),
                           (index_io.SEC_PLCP, plcp_past_suffix),
                           (index_io.SEC_PLCP, plcp_lowered)):
        path = _forge(tmp_path, demo_index, sec_id, change)
        with pytest.raises(FormatError, match="validation"):
            index_io.load(path)


def test_forgery_caught_by_the_rebuild_is_a_format_error(tmp_path):
    # This overstated LCP passes the O(n) order check; the rebuilt node
    # then has two children claiming one dispatch rank.
    t = make_text("xzBBBAyyByxyBByABzBzAzBBx", pi="xyz")
    path = _forge(tmp_path, assemble(t), index_io.SEC_PLCP,
                  lambda words: words.__setitem__(6, 5))
    with pytest.raises(FormatError, match="collision") as caught:
        index_io.load(path)
    assert isinstance(caught.value.__cause__, ConstructionError)


def test_forged_text_symbols_are_refused(tmp_path, demo_text, demo_index):
    for bad in (0, demo_text.pi + demo_text.sigma + 1, 2**64 - 1):
        path = _forge(tmp_path, demo_index, index_io.SEC_TEXT,
                      lambda words: words.__setitem__(3, bad))
        with pytest.raises(FormatError, match="text symbols"):
            index_io.load(path)


def test_header_alphabet_mismatch_is_refused(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    for word, value in ((3, 0), (4, 2**40)):  # pi, sigma
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 8 + 8 * word, value)
        forged = tmp_path / "forged.idx"
        rewrite(forged, data)
        with pytest.raises(FormatError, match="alphabet"):
            index_io.load(forged)


def test_undecodable_token_is_refused(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    data = bytearray(path.read_bytes())
    off, _ = sections(data)[index_io.SEC_ALPHABET]
    data[off + 24] = 0xFF  # the first byte of the first token
    rewrite(path, data)
    with pytest.raises(FormatError, match="token"):
        index_io.load(path)


def test_fuzzed_psa_and_plcp_load_or_raise_format_error(tmp_path):
    rng = random.Random(2718)
    t = make_text("".join(rng.choice("xyzAB") for _ in range(60)), pi="xyz")
    index = assemble(t)
    n = t.n
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(300):
        sec_id = rng.choice((index_io.SEC_PSA, index_io.SEC_PLCP))

        def change(words):
            for _ in range(rng.randint(1, 3)):
                j = rng.randrange(len(words))
                words[j] = rng.choice((
                    rng.getrandbits(64), rng.randint(0, n + 1),
                    words[rng.randrange(len(words))],
                    max(words[j] - 1, 0), words[j] + 1))

        path = _forge(tmp_path, index, sec_id, change)
        try:
            loaded = index_io.load(path)
        except FormatError:
            outcomes["refused"] += 1
            continue
        outcomes["loaded"] += 1
        # What loads must answer queries or raise the package's own errors.
        for _ in range(5):
            try:
                loaded.query(random_pattern(rng, loaded.text))
            except PstrayError:
                pass
    assert outcomes["refused"] > 0 and outcomes["loaded"] > 0


def test_reserved_header_word_is_ignored(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    default = path.read_bytes()
    data = bytearray(default)
    struct.pack_into("<Q", data, 16, 0)  # the word after the version
    body = bytes(data[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    loaded = index_io.load(path)
    assert query(loaded, loaded.text, "xAyy")[0] == [3, 8]
    index_io.save(loaded, path)
    assert path.read_bytes() == default


# ------------------------------------------------------------------- CLI

def test_cli_build_query(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    idx = tmp_path / "t.idx"
    assert main(["build", "--text", str(text_file), "--alphabet", str(alpha),
                 "--out", str(idx)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--pattern", "yAzz"]) == 0
    out = capsys.readouterr().out
    assert out == "3\n7\n"


def test_cli_query_stats_and_oracle(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    idx = tmp_path / "t.idx"
    main(["build", "--text", str(text_file), "--alphabet", str(alpha),
          "--out", str(idx)])
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--pattern", "yAzz",
                 "--stats", "--oracle-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "3\n7\n"  # stdout stays machine-parseable
    assert "symbol_comparisons=" in captured.err
    assert "oracle-check ok" in captured.err


def test_cli_pattern_from_file(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    idx = tmp_path / "t.idx"
    main(["build", "--text", str(text_file), "--alphabet", str(alpha),
          "--out", str(idx)])
    pat = tmp_path / "pat.txt"
    pat.write_text("yAzz\n")
    capsys.readouterr()
    assert main(["query", "--index", str(idx),
                 "--pattern", f"@{pat}"]) == 0
    assert capsys.readouterr().out == "3\n7\n"


def test_cli_stats_report(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path, raw="zAxAyyxyAxxy")
    idx = tmp_path / "t.idx"
    main(["build", "--text", str(text_file), "--alphabet", str(alpha),
          "--out", str(idx)])
    capsys.readouterr()
    assert main(["stats", "--index", str(idx)]) == 0
    out = capsys.readouterr().out
    assert "branching_pnodes=2" in out
    assert "branching_bound=4" in out  # 13 // max(2, 3)
    assert "parray_cells=10" in out


def test_cli_bench_csv(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    idx = tmp_path / "t.idx"
    main(["build", "--text", str(text_file), "--alphabet", str(alpha),
          "--out", str(idx)])
    pats = tmp_path / "pats.txt"
    pats.write_text("yAzz\nxx\nzzzz\n")
    out_csv = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["bench", "--index", str(idx), "--patterns", str(pats),
                 "--csv", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("pattern_id,m,occ,comparisons_tray,comparisons_psa,"
                        "max_range,micros_tray,micros_psa")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:3] == ["0", "4", "2"]


def test_cli_self_check(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    assert main(["self-check", "--text", str(text_file),
                 "--alphabet", str(alpha), "--trials", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["self-check", "--text", str(text_file),
                 "--alphabet", str(alpha), "--trials", "150",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out == "ok trials=150 seed=5\n"


def test_cli_self_check_deterministic(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    for _ in range(2):
        assert main(["self-check", "--text", str(text_file),
                     "--alphabet", str(alpha), "--trials", "30",
                     "--seed", "9"]) == 0
    # same seed, same outcome, no stderr noise
    captured = capsys.readouterr()
    assert captured.err == ""


def test_cli_error_exits(tmp_path, capsys):
    text_file, alpha = write_inputs(tmp_path)
    assert main(["query", "--index", str(tmp_path / "missing.idx"),
                 "--pattern", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # empty pattern
    idx = tmp_path / "t.idx"
    main(["build", "--text", str(text_file), "--alphabet", str(alpha),
          "--out", str(idx)])
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--pattern", ""]) == 2


def test_cli_token_mode(tmp_path, capsys):
    text_file, alpha = write_inputs(
        tmp_path, raw="v1 print v2 v2 print v1 v1", pi="v1 v2",
        sigma="auto", mode="tokens")
    idx = tmp_path / "t.idx"
    assert main(["build", "--text", str(text_file), "--alphabet", str(alpha),
                 "--out", str(idx)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(idx),
                 "--pattern", "v2 print v1"]) == 0
    assert capsys.readouterr().out == "1\n4\n"
