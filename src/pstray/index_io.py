"""Versioned binary on-disk format for assembled indexes.

Layout (version 2): an 8-byte magic, a header of six words (version, a
reserved word, n, pi, sigma, mode), then length-prefixed sections
(alphabet, text, suffix array, LCP), each framed as ``(section_id u64,
payload_len u64, payload)``. All integers are little-endian u64. A
SHA-256 digest of everything before it closes the file.

The file holds no tree and no annotations. ``load`` verifies magic,
version and digest, the mode word (0 bytes, 1 tokens) and the framing:
each of the four section ids exactly once and no other, the text, suffix
and LCP sections exactly n words each, and the alphabet section read to
its end. It checks that the declared parameterized and static token sets
agree with the token ids (ids 1..pi parameterized, the rest static),
checks the text's symbols and the suffix and LCP arrays in O(n)
(``validate_psa(full=False)``: a permutation, every LCP below both suffix
lengths, each adjacent pair in order one symbol past its LCP), and then
rebuilds the tree and annotations through ``tray.build_tray``, the same
code ``assemble`` runs after the sort. So no dispatch cell or tree link is
ever read from disk; any check that fails during load is reported as a
``FormatError``. Version-1 files, which stored node records and dispatch
arrays, are refused.

The reserved word once flagged an optional range-minimum table. ``save``
writes 1, as every default build did, and ``load`` ignores it.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .alphabet import BYTE_MODE, TOKEN_MODE, AlphabetSpec, PText
from .errors import (ChecksumError, ConstructionError, FormatError,
                     InputError, ValidationError)
from .suffixes import PsaIndex
from .tray import PSTrayIndex, build_tray

MAGIC = b"PSTRAY01"
VERSION = 2
RESERVED = 1  # header word 2; ignored on load

SEC_ALPHABET = 1
SEC_TEXT = 2
SEC_PSA = 3
SEC_PLCP = 4

_SECTION_NAMES = {
    SEC_ALPHABET: "alphabet", SEC_TEXT: "text", SEC_PSA: "psa",
    SEC_PLCP: "plcp",
}


def _u64(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def _tokens_blob(tokens: list[str]) -> bytes:
    parts = [_u64(len(tokens))]
    for tok in tokens:
        raw = tok.encode("utf-8")
        parts.append(_u64(len(raw)))
        parts.append(raw)
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.pos = offset

    def u64(self) -> int:
        if self.pos + 8 > len(self.data):
            raise FormatError("unexpected end of file")
        (v,) = struct.unpack_from("<Q", self.data, self.pos)
        self.pos += 8
        return v

    def u64s(self, count: int) -> list[int]:
        end = self.pos + 8 * count
        if end > len(self.data):
            raise FormatError("unexpected end of file")
        vals = list(struct.unpack_from(f"<{count}Q", self.data, self.pos))
        self.pos = end
        return vals

    def raw(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise FormatError("unexpected end of file")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def string(self) -> str:
        """A length-prefixed UTF-8 string."""
        try:
            return self.raw(self.u64()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"bad token in alphabet section: {exc}") from exc

    def tokens(self) -> list[str]:
        count = self.u64()
        return [self.string() for _ in range(count)]


def save(index: PSTrayIndex, path: str | Path) -> None:
    """Serialize an assembled index; the file round-trips byte-exactly."""
    text = index.text
    psa_index = index.psa_index
    n = text.n

    sections: list[tuple[int, bytes]] = []

    occurring = sorted(text.tok2id.items(), key=lambda kv: kv[1])
    alpha = [_u64(len(occurring))]
    for tok, sym in occurring:
        raw = tok.encode("utf-8")
        alpha.append(_u64(sym, len(raw)))
        alpha.append(raw)
    alpha.append(_tokens_blob(sorted(text.spec.pi_members)))
    if text.spec.sigma_members is None:
        alpha.append(_u64(0))
    else:
        alpha.append(_u64(1))
        alpha.append(_tokens_blob(sorted(text.spec.sigma_members)))
    sections.append((SEC_ALPHABET, b"".join(alpha)))

    sections.append((SEC_TEXT, text.symbol_array.astype("<u8").tobytes()))
    sections.append((SEC_PSA, psa_index.psa.astype("<u8").tobytes()))
    sections.append((SEC_PLCP, psa_index.plcp.astype("<u8").tobytes()))

    mode_flag = 0 if text.spec.mode == BYTE_MODE else 1
    blob = bytearray()
    blob += MAGIC
    blob += _u64(VERSION, RESERVED, n, text.pi, text.sigma, mode_flag)
    for sec_id, payload in sections:
        blob += _u64(sec_id, len(payload))
        blob += payload
    blob += hashlib.sha256(blob).digest()
    Path(path).write_bytes(bytes(blob))


def load(path: str | Path) -> PSTrayIndex:
    """Read and checksum an index file, check its header and framing, its
    token classes against the ids and its suffix and LCP arrays in O(n),
    and rebuild the tree and annotations from them."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 32:
        raise ChecksumError("file too short")
    if data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {data[:len(MAGIC)]!r}, want {MAGIC!r}")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError("checksum mismatch (truncated or corrupt file)")

    r = _Reader(body, len(MAGIC))
    version, _reserved, n, pi, sigma, mode_flag = r.u64s(6)
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}, "
                          f"want {VERSION}")

    if mode_flag not in (0, 1):
        raise FormatError(f"unknown mode word {mode_flag}")

    payloads: dict[int, _Reader] = {}
    while r.pos < len(body):
        sec_id, length = r.u64(), r.u64()
        if sec_id not in _SECTION_NAMES or sec_id in payloads:
            raise FormatError(f"section id {sec_id} unknown or repeated")
        if sec_id != SEC_ALPHABET and length != 8 * n:
            raise FormatError(f"{_SECTION_NAMES[sec_id]} section holds "
                              f"{length} bytes, want {8 * n}")
        payloads[sec_id] = _Reader(r.raw(length))
    missing = set(_SECTION_NAMES) - set(payloads)
    if missing:
        names = ", ".join(_SECTION_NAMES[s] for s in sorted(missing))
        raise FormatError(f"missing sections: {names}")

    sec = payloads[SEC_ALPHABET]
    tok2id: dict[str, int] = {}
    for _ in range(sec.u64()):
        sym = sec.u64()
        tok2id[sec.string()] = sym
    pi_members = frozenset(sec.tokens())
    sigma_members = frozenset(sec.tokens()) if sec.u64() else None
    if sec.pos != len(sec.data):
        raise FormatError("alphabet section: bytes after the last token")
    try:
        spec = AlphabetSpec(pi_members=pi_members,
                            sigma_members=sigma_members,
                            mode=TOKEN_MODE if mode_flag else BYTE_MODE)
    except InputError as exc:
        raise FormatError(f"alphabet section: {exc}") from exc
    # Ids 1..pi+sigma-1 name the tokens; the sentinel takes pi+sigma.
    if (len(tok2id) != pi + sigma - 1
            or sorted(tok2id.values()) != list(range(1, pi + sigma))):
        raise FormatError("alphabet section does not match pi and sigma")
    # Queries classify pattern tokens by the declared sets, so those must
    # agree with the ids: 1..pi parameterized, the rest static.
    for tok, sym in tok2id.items():
        declared = ("parameterized" if tok in pi_members
                    else "static" if sigma_members is None
                    or tok in sigma_members else "in neither alphabet")
        if declared != ("parameterized" if sym <= pi else "static"):
            raise FormatError(f"alphabet section: token {tok!r} has id {sym} "
                              f"but is declared {declared}")

    symbols = _words(payloads[SEC_TEXT], n)
    if n == 0 or symbols.min() < 1 or symbols.max() > pi + sigma:
        raise FormatError(f"text symbols outside 1..{pi + sigma}")
    text = PText(symbol_array=symbols, pi=pi, sigma=sigma, tok2id=tok2id,
                 spec=spec)
    psa_index = PsaIndex(psa=_words(payloads[SEC_PSA], n),
                         plcp=_words(payloads[SEC_PLCP], n),
                         codes=text.prev_codes)
    # Resolved per call, so a wrapper installed on suffixes.validate_psa
    # (such as a tracing span) sees it.
    from .suffixes import validate_psa

    try:
        validate_psa(psa_index, text, full=False)
        return build_tray(psa_index, text)
    except (ValidationError, ConstructionError) as exc:
        raise FormatError(f"loaded index fails validation: {exc}") from exc


def _words(sec: _Reader, count: int) -> np.ndarray:
    """``count`` u64 words of a section as int64 (huge values turn
    negative, which every range check rejects)."""
    return np.frombuffer(sec.raw(8 * count), dtype="<u8").astype(np.int64)
