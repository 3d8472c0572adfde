import hashlib
import random
import struct

import pytest

from pstray import index_io
from pstray.cli import main
from pstray.errors import ChecksumError, FormatError
from pstray.tray import assemble, query

from conftest import random_pattern, random_text


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
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 8, 99)  # version field follows the magic
    body = bytes(data[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match="version"):
        index_io.load(path)


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
