"""Versioned binary on-disk format for assembled indexes.

Layout (version 5), all integers little-endian and unsigned:

* the 8-byte magic, then three u64 words: version, n and mode (0 bytes,
  1 tokens);
* the alphabet: the declared parameterized tokens, a u64 flag and, when
  it is 1, the declared static tokens, then the tokens that occur in the
  text. Each list is a u64 count of sorted, u64-length-prefixed UTF-8
  strings;
* the text, suffix array and LCP array, n words each, back to back;
* a SHA-256 digest of everything before it.

The file holds only what ``load`` cannot derive. The token ids, pi and
sigma follow from the occurring tokens and the declared sets by
``alphabet.token_ids``, the rule ``ingest`` uses. One rule, ``_width``,
sizes every array: the narrowest of 1, 2, 4 or 8 bytes that holds its
largest word. The text's words are bounded by pi + sigma (the sentinel's
id) and the suffix array's by n, so both widths follow from the header
and the alphabet. The LCP width is the one stored fact no header word
gives: ``load`` takes it from the bytes left after the alphabet, minus n
words of each of the other two widths, and accepts it only when it is
the narrowest that holds the largest LCP read, so one index has exactly
one file. On the benchmark corpora that is 4 to 6 bytes per symbol.

The file holds no tree and no annotations. ``load`` verifies magic,
digest, version and mode word, refuses n = 0, parses the alphabet (no
token listed twice, none refused by the id rule) and splits what follows
into the three arrays. It checks the text's symbols and the suffix and
LCP arrays in O(n) (``validate_psa(full=False)``: a permutation, every
LCP below both suffix lengths, each adjacent pair in order one symbol
past its LCP), and then rebuilds the tree and annotations through
``tray.build_tray``, the same code ``assemble`` runs after the sort. So
no id, dispatch cell or tree link is ever read from disk; any check that
fails during load is reported as a ``FormatError``. Files of versions 1
(node records and dispatch arrays), 2 (u64 words), 3 (stored ids and
section frames) and 4 (suffix and LCP words of 4 bytes below n = 2**32)
are refused with a message naming the version.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .alphabet import BYTE_MODE, TOKEN_MODE, AlphabetSpec, PText, token_ids
from .errors import (ChecksumError, ConstructionError, FormatError,
                     InputError, ValidationError)
from .suffixes import PsaIndex
from .tray import PSTrayIndex, build_tray

MAGIC = b"PSTRAY01"
VERSION = 5


def _u64(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def _width(bound: int) -> int:
    """Bytes per word of an array whose words lie in 0..bound: the
    narrowest of 1, 2, 4 or 8."""
    return next((w for w in (1, 2, 4) if bound < 1 << 8 * w), 8)


def word_widths(index: PSTrayIndex) -> tuple[int, int, int]:
    """Bytes per word of the text, suffix and LCP arrays in ``index``'s
    file: text ids run to pi + sigma, suffix starts to n, and LCPs to the
    largest one."""
    text = index.text
    return (_width(text.pi + text.sigma), _width(text.n),
            _width(int(index.psa_index.plcp.max())))


def _tokens_blob(tokens) -> bytes:
    parts = [_u64(len(tokens))]
    for tok in sorted(tokens):
        raw = tok.encode("utf-8")
        parts.append(_u64(len(raw)))
        parts.append(raw)
    return b"".join(parts)


class _Reader:
    def __init__(self, data: memoryview, offset: int):
        self.data = data
        self.pos = offset

    def u64(self) -> int:
        if self.pos + 8 > len(self.data):
            raise FormatError("unexpected end of file")
        (v,) = struct.unpack_from("<Q", self.data, self.pos)
        self.pos += 8
        return v

    def raw(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.data):
            raise FormatError("unexpected end of file")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def string(self) -> str:
        """A length-prefixed UTF-8 string."""
        try:
            return str(self.raw(self.u64()), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"bad token in alphabet: {exc}") from exc

    def tokens(self) -> frozenset[str]:
        """A counted list of strings, each listed once."""
        listed = [self.string() for _ in range(self.u64())]
        tokens = frozenset(listed)
        if len(tokens) != len(listed):
            raise FormatError("alphabet: a token is listed twice")
        return tokens


def save(index: PSTrayIndex, path: str | Path) -> None:
    """Serialize an assembled index; the file round-trips byte-exactly."""
    text = index.text
    spec = text.spec
    n = text.n
    parts = [MAGIC, _u64(VERSION, n, 0 if spec.mode == BYTE_MODE else 1),
             _tokens_blob(spec.pi_members)]
    if spec.sigma_members is None:
        parts.append(_u64(0))
    else:
        parts += (_u64(1), _tokens_blob(spec.sigma_members))
    parts.append(_tokens_blob(text.tok2id))
    arrays = (text.symbol_array, index.psa_index.psa, index.psa_index.plcp)
    for array, width in zip(arrays, word_widths(index)):
        parts.append(array.astype(f"<u{width}"))
    digest = hashlib.sha256()
    with Path(path).open("wb") as out:
        for part in parts:
            digest.update(part)
            out.write(part)
        out.write(digest.digest())


def load(path: str | Path) -> PSTrayIndex:
    """Read and checksum an index file, derive its token ids by the rule
    ``ingest`` uses, check the suffix index (which holds the text) in O(n),
    and rebuild the tree and annotations from it with ``build_tray``."""
    data = memoryview(Path(path).read_bytes())
    if len(data) < len(MAGIC) + 32:
        raise ChecksumError("file too short")
    if data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {bytes(data[:len(MAGIC)])!r}, "
                          f"want {MAGIC!r}")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError("checksum mismatch (truncated or corrupt file)")

    r = _Reader(body, len(MAGIC))
    version = r.u64()
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}, "
                          f"want {VERSION}")
    n, mode_flag = r.u64(), r.u64()
    if mode_flag not in (0, 1):
        raise FormatError(f"unknown mode word {mode_flag}")
    if n == 0:
        raise FormatError("n = 0: a text holds at least its end marker")

    pi_members = r.tokens()
    sigma_members = r.tokens() if r.u64() else None
    occurring = r.tokens()
    try:
        spec = AlphabetSpec(pi_members=pi_members,
                            sigma_members=sigma_members,
                            mode=TOKEN_MODE if mode_flag else BYTE_MODE)
        pi, sigma, tok2id = token_ids(sorted(occurring), occurring, spec)
    except InputError as exc:
        raise FormatError(f"alphabet: {exc}") from exc

    text_width, psa_width = _width(pi + sigma), _width(n)
    left = len(body) - r.pos
    plcp_width, extra = divmod(left - n * (text_width + psa_width), n)
    if extra or plcp_width not in (1, 2, 4, 8):
        raise FormatError(f"{left} bytes after the alphabet, want n = {n} "
                          f"words of {text_width}, {psa_width} and 1, 2, 4 "
                          f"or 8 bytes")
    if plcp_width > psa_width:
        raise FormatError(f"LCP words of {plcp_width} bytes, wider than the "
                          f"suffix array's {psa_width}")
    words = [np.frombuffer(r.raw(n * width), dtype=f"<u{width}")
             for width in (text_width, psa_width, plcp_width)]
    top = int(words[2].max())
    if _width(top) != plcp_width:
        raise FormatError(f"LCP words of {plcp_width} bytes, but the largest, "
                          f"{top}, takes {_width(top)}")
    # Huge u64 values turn negative, which every range check rejects.
    symbols, psa, plcp = (word.astype(np.int64) for word in words)

    # Resolved per call, so a wrapper installed on suffixes.validate_psa
    # (such as a tracing span) sees it.
    from .suffixes import validate_psa

    try:
        psa_index = PsaIndex(text=PText(symbol_array=symbols, pi=pi,
                                        sigma=sigma, tok2id=tok2id, spec=spec),
                             psa=psa, plcp=plcp)
        validate_psa(psa_index, full=False)
        return build_tray(psa_index)
    except (ValidationError, ConstructionError) as exc:
        raise FormatError(f"loaded index fails validation: {exc}") from exc
