"""Versioned binary on-disk format for assembled indexes.

Layout: an 8-byte magic, a header of six words (version, a reserved word,
n, pi, sigma, mode), then length-prefixed sections (alphabet, text, suffix
array, LCP, tree records, child pool, dispatch-array pool), each framed as
``(section_id u64, payload_len u64, payload)``. All integers are
little-endian u64; "absent" ids are encoded as ``2**64 - 1``. A SHA-256
digest of everything before it closes the file. Loading verifies magic,
version, digest and the structural invariants of the index.

The reserved word once flagged an optional range-minimum table. ``save``
writes 1, as every default build did, and ``load`` ignores it, so files
with either value load into the same linear-space index.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .alphabet import BYTE_MODE, TOKEN_MODE, AlphabetSpec, PText
from .errors import ChecksumError, FormatError
from .suffixes import PsaIndex
from .tray import NO_NODE, PSTrayIndex, TrayAnnotations
from .tree import TrayTree

MAGIC = b"PSTRAY01"
VERSION = 1
ABSENT = (1 << 64) - 1
RESERVED = 1  # header word 2; ignored on load

SEC_ALPHABET = 1
SEC_TEXT = 2
SEC_PSA = 3
SEC_PLCP = 4
SEC_TREE = 5
SEC_CHILDREN = 6
SEC_PARRAYS = 7

_SECTION_NAMES = {
    SEC_ALPHABET: "alphabet", SEC_TEXT: "text", SEC_PSA: "psa",
    SEC_PLCP: "plcp", SEC_TREE: "tree", SEC_CHILDREN: "children",
    SEC_PARRAYS: "parrays",
}

# parent, depth, lo, hi, leaf_pos, flags, heavy, rep_pos, edge_src,
# child_off, child_cnt, parray_off
_NODE_FIELDS = 12
_FLAG_PNODE = 1
_FLAG_BRANCHING = 2


def _u64(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def _node_id(v: int) -> int:
    return ABSENT if v == NO_NODE else v


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

    def tokens(self) -> list[str]:
        count = self.u64()
        return [self.raw(self.u64()).decode("utf-8") for _ in range(count)]


def save(index: PSTrayIndex, path: str | Path) -> None:
    """Serialize an assembled index; the file round-trips byte-exactly."""
    text = index.text
    tree = index.tree
    ann = index.ann
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

    sections.append((SEC_TEXT, _u64(*text.symbols)))
    sections.append((SEC_PSA, psa_index.psa.astype("<u8").tobytes()))
    sections.append((SEC_PLCP, psa_index.plcp.astype("<u8").tobytes()))

    child_pool: list[int] = []
    parray_pool: list[int] = []
    records: list[int] = []
    for v in range(tree.size):
        flags = (_FLAG_PNODE if ann.is_pnode[v] else 0) | \
                (_FLAG_BRANCHING if ann.is_branching[v] else 0)
        if ann.is_branching[v]:
            parray_off = len(parray_pool)
            parray_pool.extend(_node_id(u) for u in ann.parray[v][1:])
        else:
            parray_off = ABSENT
        kids = tree.children[v]
        records.extend((
            _node_id(tree.parent[v]), tree.depth[v], tree.lo[v], tree.hi[v],
            tree.leaf_pos[v], flags, _node_id(ann.heavy_child[v]),
            ann.rep_pos.get(v, 0), psa_index.suffix_at(tree.lo[v]),
            len(child_pool), len(kids), parray_off,
        ))
        child_pool.extend(kids)
    sections.append((SEC_TREE, _u64(tree.size) + _u64(*records)))
    sections.append((SEC_CHILDREN, _u64(len(child_pool)) + _u64(*child_pool)))
    sections.append((SEC_PARRAYS, _u64(len(parray_pool)) + _u64(*parray_pool)))

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
    """Read, checksum, reconstruct and validate an index file."""
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
        raise FormatError(f"unsupported format version {version}")

    payloads: dict[int, _Reader] = {}
    while r.pos < len(body):
        sec_id, length = r.u64(), r.u64()
        payloads[sec_id] = _Reader(r.raw(length))
    missing = set(_SECTION_NAMES) - set(payloads)
    if missing:
        names = ", ".join(_SECTION_NAMES[s] for s in sorted(missing))
        raise FormatError(f"missing sections: {names}")

    sec = payloads[SEC_ALPHABET]
    tok2id: dict[str, int] = {}
    for _ in range(sec.u64()):
        sym, toklen = sec.u64(), sec.u64()
        tok2id[sec.raw(toklen).decode("utf-8")] = sym
    pi_members = frozenset(sec.tokens())
    sigma_members = frozenset(sec.tokens()) if sec.u64() else None
    spec = AlphabetSpec(pi_members=pi_members, sigma_members=sigma_members,
                        mode=TOKEN_MODE if mode_flag else BYTE_MODE)
    id2tok = {v: k for k, v in tok2id.items()}
    id2tok[pi + sigma] = "$"

    symbols = payloads[SEC_TEXT].u64s(n)
    text = PText(symbols=symbols, pi=pi, sigma=sigma, tok2id=tok2id,
                 id2tok=id2tok, spec=spec)

    psa = np.frombuffer(payloads[SEC_PSA].raw(8 * n), dtype="<u8").astype(np.int64)
    plcp = np.frombuffer(payloads[SEC_PLCP].raw(8 * n), dtype="<u8").astype(np.int64)
    psa_index = PsaIndex(psa=psa, plcp=plcp, codes=text.prev_codes)

    sec = payloads[SEC_TREE]
    size = sec.u64()
    records = sec.u64s(size * _NODE_FIELDS)
    kid_sec = payloads[SEC_CHILDREN]
    kid_total = kid_sec.u64()
    child_pool = kid_sec.u64s(kid_total)
    par_sec = payloads[SEC_PARRAYS]
    par_total = par_sec.u64()
    parray_pool = par_sec.u64s(par_total)

    def node_ref(v: int) -> int:
        if v == ABSENT:
            return NO_NODE
        if v >= size:
            raise FormatError(f"node reference {v} out of range")
        return v

    tree = TrayTree()
    ann = TrayAnnotations(threshold=max(sigma, pi), leaf_count=[0] * size,
                          is_pnode=[False] * size, is_branching=[False] * size,
                          heavy_child=[NO_NODE] * size)
    width = sigma + pi
    for v in range(size):
        (parent, depth, lo, hi, leaf_pos, flags, heavy, rep_pos, _edge_src,
         child_off, child_cnt, parray_off) = records[v * _NODE_FIELDS:
                                                     (v + 1) * _NODE_FIELDS]
        tree.parent.append(node_ref(parent))
        tree.depth.append(depth)
        tree.lo.append(lo)
        tree.hi.append(hi)
        tree.leaf_pos.append(leaf_pos)
        if child_off + child_cnt > kid_total:
            raise FormatError(f"child window of node {v} out of range")
        tree.children.append([node_ref(u) for u in
                              child_pool[child_off:child_off + child_cnt]])
        ann.leaf_count[v] = hi - lo + 1
        ann.is_pnode[v] = bool(flags & _FLAG_PNODE)
        ann.is_branching[v] = bool(flags & _FLAG_BRANCHING)
        ann.heavy_child[v] = node_ref(heavy)
        if ann.is_pnode[v]:
            ann.rep_pos[v] = rep_pos
        if ann.is_branching[v]:
            if parray_off + width > par_total:
                raise FormatError(f"p-array window of node {v} out of range")
            cells = parray_pool[parray_off:parray_off + width]
            ann.parray[v] = [NO_NODE] + [node_ref(u) for u in cells]

    index = PSTrayIndex(text=text, psa_index=psa_index, tree=tree, ann=ann)
    _validate_loaded(index)
    return index


def _validate_loaded(index: PSTrayIndex) -> None:
    from .errors import ValidationError
    from .suffixes import validate_psa
    from .tree import validate_tree

    try:
        validate_psa(index.psa_index, index.text, full=False)
        validate_tree(index.tree, index.psa_index, index.text)
        cells = index.ann.parray_cells()
        if cells > 2 * index.text.n:
            raise ValidationError(f"p-array cells {cells} exceed 2n")
    except ValidationError as exc:
        raise FormatError(f"loaded index fails validation: {exc}") from exc
