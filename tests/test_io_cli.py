import hashlib
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pstray import index_io
from pstray.alphabet import encode_pattern
from pstray.cli import main
from pstray.errors import (ChecksumError, ConstructionError, FormatError,
                           PstrayError)
from pstray.oracle import naive_ppm
from pstray.suffixes import PsaIndex, validate_psa
from pstray.tray import assemble, query

from conftest import decode, make_text, random_pattern, random_text


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
            assert query(index, pat)[0] == query(loaded, pat)[0]


def test_build_and_load_make_no_python_prev_pass(tmp_path, monkeypatch):
    """The text's prev codes come from its symbol array, in numpy, both on
    ingest and on load: with ``encoding.prev`` made to raise, an index
    still builds, saves, loads and answers like the oracle, and the loaded
    text's arrays equal the ingested text's."""
    def refuse(*args):
        raise AssertionError("encoding.prev ran over a whole text")

    monkeypatch.setattr("pstray.encoding.prev", refuse)
    rng = random.Random(4711)
    for _ in range(5):
        t = random_text(rng, max_n=150)
        path = tmp_path / "x.idx"
        index_io.save(assemble(t), path)
        loaded = index_io.load(path)
        lt = loaded.text
        assert lt.prev_codes == t.prev_codes
        assert (lt.code_array == t.code_array).all()
        assert (lt.symbol_array == t.symbol_array).all()
        for _ in range(20):
            pat = random_pattern(rng, t)
            want = sorted(naive_ppm(t, encode_pattern(t, pat)))
            assert loaded.query(pat)[0] == want


@pytest.mark.parametrize("mode", ["bytes", "tokens"])
def test_load_gives_the_ingested_alphabet_maps(tmp_path, mode):
    """A loaded text derives the same token maps as the ingested one:
    ``tok2id`` read from the file, and ``id2tok`` its inverse with ``$`` at
    the sentinel id pi + sigma, so both decode positions alike."""
    raw = "zAxAyyxyAxxy" if mode == "bytes" else "if x then y else x fi"
    pi = "xyz" if mode == "bytes" else ["x", "y"]
    t = make_text(raw, pi=pi, mode=mode)
    path = tmp_path / "x.idx"
    index_io.save(assemble(t), path)
    lt = index_io.load(path).text
    assert lt.tok2id == t.tok2id
    assert lt.id2tok == t.id2tok
    assert lt.id2tok[lt.pi + lt.sigma] == "$"
    everywhere = range(1, t.n + 1)
    assert decode(lt, everywhere) == decode(t, everywhere)
    assert decode(t, everywhere) == (raw + "$" if mode == "bytes"
                                    else raw + " $")


def test_truncated_file(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ChecksumError):
        index_io.load(path)


HEADER = 8 + 5 * 8  # the magic and five header words
WORD = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by width in bytes


def sections(data):
    """Section id -> (payload offset, payload length) of an index file."""
    out, pos = {}, HEADER
    while pos < len(data) - 32:
        sec_id, length = struct.unpack_from("<2Q", data, pos)
        out[sec_id] = (pos + 16, length)
        pos += 16 + length
    return out


def word_width(data, sec_id):
    """Bytes per word of an n-word section: its length over the header's
    n, the second header word."""
    (n,) = struct.unpack_from("<Q", data, 16)
    return sections(data)[sec_id][1] // n


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
    off = data.find(struct.pack("<3I", 6, 7, 11))  # start of the psa payload
    assert off > 0
    struct.pack_into("<I", data, off, 7)
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
    framing = HEADER + 4 * 16 + 32  # magic, header, frames, digest
    # pi + sigma = 10 ids fit a byte; psa and plcp take 4 bytes each.
    assert word_width(data, index_io.SEC_TEXT) == 1
    assert len(data) == (1 + 8) * t.n + alphabet_len + framing


def test_load_rebuilds_what_assemble_builds(tmp_path):
    rng = random.Random(66)
    texts = [random_text(rng, max_n=300) for _ in range(8)]
    texts += [make_text("x" * 60, pi="x"), make_text("xyA" * 30, pi="xy")]
    for t in texts:
        index = assemble(t)
        path = tmp_path / "x.idx"
        index_io.save(index, path)
        loaded = index_io.load(path)
        for field in ("parent", "depth_array", "lo_array", "hi_array",
                      "child_ids", "child_cuts"):
            assert np.array_equal(getattr(loaded.tree, field),
                                  getattr(index.tree, field))
        assert vars(loaded.ann) == vars(index.ann)
        assert loaded.psa_index.psa.tolist() == index.psa_index.psa.tolist()
        assert loaded.psa_index.plcp.tolist() == index.psa_index.plcp.tolist()


def _forge(tmp_path, index, sec_id, change):
    """Save ``index``, let ``change`` edit the words of one n-word section
    in place, repack them in the section's width, re-checksum, and return
    the path."""
    path = tmp_path / "x.idx"
    index_io.save(index, path)
    data = bytearray(path.read_bytes())
    off, length = sections(data)[sec_id]
    width = word_width(data, sec_id)
    layout = f"<{length // width}{WORD[width]}"
    words = list(struct.unpack_from(layout, data, off))
    change(words)
    struct.pack_into(layout, data, off, *words)
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
    # Each overstated LCP passes the O(n) order check; the rebuild then
    # finds two children of one node claiming one dispatch rank, or a
    # child whose distance points at a static symbol of the node's window.
    for raw, word, value, message in (
            ("xzBBBAyyByxyBByABzBzAzBBx", 6, 5, "collision"),
            ("xxAyAxxxAyAxAyxAAA", 4, 3, "distance child")):
        index = assemble(make_text(raw, pi="xyz"))
        plcp = index.psa_index.plcp.copy()
        assert plcp[word] < value
        plcp[word] = value
        validate_psa(PsaIndex(psa=index.psa_index.psa, plcp=plcp,
                              codes=index.psa_index.codes), index.text,
                     full=False)
        path = _forge(tmp_path, index, index_io.SEC_PLCP,
                      lambda words: words.__setitem__(word, value))
        with pytest.raises(FormatError, match=message) as caught:
            index_io.load(path)
        assert isinstance(caught.value.__cause__, ConstructionError)


def test_forged_text_symbols_are_refused(tmp_path, demo_text, demo_index):
    # pi + sigma = 5, so the text is stored in bytes.
    for bad in (0, demo_text.pi + demo_text.sigma + 1, 2**8 - 1):
        path = _forge(tmp_path, demo_index, index_io.SEC_TEXT,
                      lambda words: words.__setitem__(3, bad))
        with pytest.raises(FormatError, match="text symbols"):
            index_io.load(path)


def wide_token_text(ids, rng):
    """A token-mode text whose ids run to ``ids`` = pi + sigma: 10
    parameterized tokens and ``ids - 11`` statics (the sentinel takes the
    last id), each once, shuffled among 2 * ids random draws of them."""
    params = [f"p{i}" for i in range(10)]
    statics = [f"s{i}" for i in range(ids - 11)]
    tokens = params + statics
    tokens += [rng.choice(params + statics) for _ in range(2 * ids)]
    rng.shuffle(tokens)
    return make_text(" ".join(tokens), pi=params, mode="tokens")


@pytest.mark.parametrize("ids, width", [(255, 1), (256, 2)])
def test_text_width_boundary(tmp_path, ids, width):
    """pi + sigma = 255 is the largest that keeps the text in bytes; one
    more id takes 2-byte words. Both round-trip byte-exactly, answer like
    the oracle, and refuse a text word outside 1..pi + sigma."""
    rng = random.Random(ids)
    t = wide_token_text(ids, rng)
    assert t.pi + t.sigma == ids
    index = assemble(t)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    index_io.save(index, p1)
    data = p1.read_bytes()
    assert word_width(data, index_io.SEC_TEXT) == width
    loaded = index_io.load(p1)
    index_io.save(loaded, p2)
    assert p2.read_bytes() == data
    for _ in range(30):
        start = rng.randint(1, t.n - 6)
        pat = decode(t, range(start, start + rng.randint(1, 5))).split()
        if rng.random() < 0.5:
            pat[rng.randrange(len(pat))] = rng.choice(sorted(t.tok2id))
        want = sorted(naive_ppm(t, encode_pattern(t, pat)))
        assert loaded.query(pat)[0] == want
    # At width 1 every nonzero byte is an id, so 0 is the only word outside.
    for bad in (0, ids + 1) if width > 1 else (0,):
        path = _forge(tmp_path, index, index_io.SEC_TEXT,
                      lambda words: words.__setitem__(5, bad))
        with pytest.raises(FormatError, match="text symbols"):
            index_io.load(path)


def test_widths_follow_the_header_bounds():
    """The text takes the narrowest of 1, 2, 4 or 8 bytes that holds pi +
    sigma; psa and plcp take 4 bytes below n = 2**32 and 8 from there.
    Checked on the helper, as no test can build an index that long."""
    widths = index_io._widths
    text, psa, plcp = index_io.SEC_TEXT, index_io.SEC_PSA, index_io.SEC_PLCP
    assert widths(2**32 - 1, 6, 6) == {text: 1, psa: 4, plcp: 4}
    assert widths(2**32, 6, 6) == {text: 1, psa: 8, plcp: 8}
    for ids, width in ((2, 1), (255, 1), (256, 2), (2**16 - 1, 2),
                       (2**16, 4), (2**32 - 1, 4), (2**32, 8),
                       (2**64 - 1, 8)):
        assert widths(100, 1, ids - 1)[text] == width, ids


def test_header_alphabet_mismatch_is_refused(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    for word, value in ((2, 0), (3, 2**40)):  # pi, sigma
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


def _forge_alphabet(tmp_path, index, pi, sigma):
    """Save ``index`` with the declared token sets of its alphabet section
    replaced by ``pi`` and ``sigma`` (None: every other token is static),
    re-checksum, and return the path."""
    def blob(tokens):
        return struct.pack("<Q", len(tokens)) + b"".join(
            struct.pack("<Q", len(tok)) + tok.encode() for tok in tokens)

    path = tmp_path / "x.idx"
    index_io.save(index, path)
    data = path.read_bytes()
    off, length = sections(data)[index_io.SEC_ALPHABET]
    ids = sorted(index.text.tok2id.items(), key=lambda kv: kv[1])
    payload = struct.pack("<Q", len(ids)) + b"".join(
        struct.pack("<2Q", sym, len(tok)) + tok.encode() for tok, sym in ids)
    payload += blob(sorted(pi))
    payload += (struct.pack("<Q", 0) if sigma is None
                else struct.pack("<Q", 1) + blob(sorted(sigma)))
    rewrite(path, data[:off - 8] + struct.pack("<Q", len(payload)) + payload
            + data[off + length:])
    return path


@pytest.mark.parametrize("pi, sigma", [
    ("wxy", "A"),    # z holds a parameterized id but is declared static
    ("wxy", None),
    ("xyzA", None),  # A holds a static id but is declared parameterized
    ("xyz", "B"),    # the explicit static set leaves A out
    ("xyz", "Ax"),   # x declared both
])
def test_forged_token_classes_are_refused(tmp_path, pi, sigma):
    index = assemble(make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A"))
    plain = tmp_path / "plain.idx"
    index_io.save(index, plain)
    # The forger rewrites the section exactly as save writes it.
    same = _forge_alphabet(tmp_path, index, "xyz", "A")
    assert same.read_bytes() == plain.read_bytes()
    path = _forge_alphabet(tmp_path, index, pi, sigma)
    with pytest.raises(FormatError, match="alphabet"):
        index_io.load(path)


def _reframe(tmp_path, index, change):
    """Save ``index``, split the file into its header and its (section id,
    payload) frames, let ``change`` return edited ones, write them back
    framed as ``save`` frames them, re-checksum, and return the path."""
    path = tmp_path / "x.idx"
    index_io.save(index, path)
    data = path.read_bytes()
    head = data[:HEADER]
    frames = [(sec_id, data[off:off + length])
              for sec_id, (off, length) in sections(data).items()]
    head, frames = change(head, frames)
    body = head + b"".join(struct.pack("<2Q", sec_id, len(payload)) + payload
                           for sec_id, payload in frames)
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def _grow(sec_id, extra):
    """Append ``extra`` to the payload of section ``sec_id``."""
    return lambda head, frames: (head, [
        (s, p + extra if s == sec_id else p) for s, p in frames])


@pytest.mark.parametrize("change, message", [
    # mode word 7 loaded as token mode, and "Az" then matched nothing
    (lambda head, frames: (head[:40] + struct.pack("<Q", 7) + head[48:],
                           frames), "mode word 7"),
    (_grow(index_io.SEC_TEXT, bytes([1])), "text section holds"),
    (lambda head, frames: (head, frames + [(9, struct.pack("<Q", 0))]),
     "section id 9"),
    (lambda head, frames: (head, frames + [frames[1]]),  # the text again
     "section id 2"),
    (_grow(index_io.SEC_ALPHABET, bytes(8)), "after the last token"),
], ids=["mode_word", "long_text", "unknown_section", "second_text",
        "alphabet_tail"])
def test_forged_header_and_framing_are_refused(tmp_path, change, message):
    index = assemble(make_text("xyzAxxxAyyzAzx", pi="xyz", sigma="A"))
    plain = tmp_path / "plain.idx"
    index_io.save(index, plain)
    same = _reframe(tmp_path, index, lambda head, frames: (head, frames))
    assert same.read_bytes() == plain.read_bytes()
    path = _reframe(tmp_path, index, change)
    with pytest.raises(FormatError, match=message):
        index_io.load(path)


def test_fuzzed_psa_and_plcp_load_or_raise_format_error(tmp_path):
    rng = random.Random(2718)
    t = make_text("".join(rng.choice("xyzAB") for _ in range(60)), pi="xyz")
    index = assemble(t)
    n = t.n
    plain = tmp_path / "plain.idx"
    index_io.save(index, plain)
    widths = {sec_id: word_width(plain.read_bytes(), sec_id)
              for sec_id in (index_io.SEC_PSA, index_io.SEC_PLCP)}
    assert widths == {index_io.SEC_PSA: 4, index_io.SEC_PLCP: 4}
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(300):
        sec_id = rng.choice((index_io.SEC_PSA, index_io.SEC_PLCP))

        def change(words):
            for _ in range(rng.randint(1, 3)):
                j = rng.randrange(len(words))
                words[j] = rng.choice((
                    rng.getrandbits(8 * widths[sec_id]), rng.randint(0, n + 1),
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


def as_version_2(data):
    """The version-2 file of the index a version-3 file holds: a sixth
    header word (reserved, written as 1) after the version, and every
    section in u64 words."""
    version, n, pi, sigma, mode = struct.unpack_from("<5Q", data, 8)
    assert version == 3
    body = data[:8] + struct.pack("<6Q", 2, 1, n, pi, sigma, mode)
    for sec_id, (off, length) in sections(data).items():
        payload = data[off:off + length]
        if sec_id != index_io.SEC_ALPHABET:
            width = word_width(data, sec_id)
            words = struct.unpack_from(f"<{n}{WORD[width]}", payload)
            payload = struct.pack(f"<{n}Q", *words)
        body += struct.pack("<2Q", sec_id, len(payload)) + payload
    return body + hashlib.sha256(body).digest()


def test_version_2_file_is_refused(tmp_path, demo_index):
    path = tmp_path / "x.idx"
    index_io.save(demo_index, path)
    old = tmp_path / "v2.idx"
    old.write_bytes(as_version_2(path.read_bytes()))
    with pytest.raises(FormatError, match="version 2"):
        index_io.load(old)


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
    out = capsys.readouterr().out.splitlines()
    # 12 symbols and the end marker give 13 suffixes. The tree keeps the
    # 5 heavy nodes (at least max(2, 3) leaves) and the 10 light children
    # a descent can hand over to the suffix-array search.
    assert "n=13" in out and "nodes=15" in out
    assert "pnodes=5" in out
    assert "light_targets=10" in out
    assert "branching_pnodes=2" in out
    assert "branching_bound=4" in out  # 13 // max(2, 3)
    assert "parray_cells=10" in out
    # The file: 13 one-byte text words and 13 four-byte psa and plcp words,
    # 136 bytes of alphabet, the magic, five header words, four frames and
    # the digest.
    size = idx.stat().st_size
    assert size == 13 * 9 + 136 + 8 + 5 * 8 + 4 * 16 + 32
    assert f"file_bytes={size}" in out
    assert f"bytes_per_symbol={size / 13:.3f}" in out


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


def test_module_entry_point_runs_the_readme_example(tmp_path):
    """``python -m pstray`` runs the README's worked example: ``build`` then
    ``query --pattern yAzz`` prints 3 and 7 and exits 0, and a query on a
    missing index exits 2."""
    (tmp_path / "text.txt").write_text("xyzAxxxAyyzAzx")
    (tmp_path / "alpha.txt").write_text("pi: x y z\nsigma: A\nmode: bytes\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def pstray(*args):
        return subprocess.run([sys.executable, "-m", "pstray", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    built = pstray("build", "--text", "text.txt", "--alphabet", "alpha.txt",
                   "--out", "text.idx")
    assert built.returncode == 0, built.stderr
    found = pstray("query", "--index", "text.idx", "--pattern", "yAzz")
    assert found.returncode == 0, found.stderr
    assert found.stdout == "3\n7\n"
    missing = pstray("query", "--index", "missing.idx", "--pattern", "yAzz")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")
