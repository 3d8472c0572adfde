"""prev encoding and canonical renaming, of one sequence and of a whole
text, the O(1) window adjustment of a text's prev codes, and the renaming
of a window read off its suffix's f-array. The f-arrays themselves and the
p-match test are references in ``oracle``.

Every symbol of an encoded string is either a *distance* (a parameterized
symbol rewritten as the distance to its previous occurrence, 0 at the first
occurrence) or a *static* symbol copied through. Both are packed into one
integer code so that the load-bearing total order

    Distance(0) < Distance(1) < ... < Static(smallest) < ... < Static(sentinel)

is plain integer comparison: distances are stored as themselves and static
ids are offset by ``STATIC_BASE``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import QueryError

# Distances are bounded by the text/pattern length; anything this large is
# a static symbol id plus the base.
STATIC_BASE = 1 << 48


def prev(w: Sequence[int], pi: int) -> list[int]:
    """prev encoding of a symbol sequence.

    Static symbols are copied (as static codes); the first occurrence of a
    parameterized symbol becomes distance 0 and every later occurrence the
    distance to the previous one. One left-to-right pass with a
    last-occurrence bucket.
    """
    out: list[int] = []
    last: dict[int, int] = {}
    for i, c in enumerate(w):
        if c <= pi:
            j = last.get(c)
            out.append(0 if j is None else i - j)
            last[c] = i
        else:
            out.append(STATIC_BASE + c)
    return out


def sort_by_symbol(symbols: np.ndarray, pi: int) -> np.ndarray:
    """0-based positions of a text's parameterized symbols (ids 1..pi),
    sorted by symbol and ascending within one symbol: one stable radix sort
    on a key as wide as ``pi``."""
    at = (symbols <= pi).nonzero()[0]
    key = symbols[at].astype(np.min_scalar_type(pi))
    return at[np.argsort(key, kind="stable")]


def prev_array(symbols: np.ndarray, by_symbol: np.ndarray) -> np.ndarray:
    """``prev`` of a whole text's int64 symbols, from its parameterized
    positions in ``sort_by_symbol`` order: each distance is the difference
    of two neighbours with one symbol."""
    out = symbols + STATIC_BASE
    same = np.diff(symbols[by_symbol], prepend=0) == 0
    out[by_symbol] = np.where(same, np.diff(by_symbol, prepend=0), 0)
    return out


def spe(w: Sequence[int], pi: int) -> list[int]:
    """Canonical renaming: the lexicographically least string that matches
    ``w`` up to a bijection of its parameterized symbols.

    The l-th distinct parameterized symbol (by first occurrence) becomes
    canonical id l; statics pass through. When ``w`` uses more distinct
    parameterized symbols than ``pi`` the output runs past the canonical
    range, which callers treat as "cannot occur in this text".
    """
    out: list[int] = []
    renaming: dict[int, int] = {}
    for c in w:
        if c <= pi:
            sub = renaming.get(c)
            if sub is None:
                sub = len(renaming) + 1
                renaming[c] = sub
            out.append(sub)
        else:
            out.append(c)
    return out


def prev_char_in_window(global_prev: Sequence[int], j: int, d: int) -> int:
    """Symbol ``d`` of the prev encoding of the suffix starting at ``j``.

    Both arguments are 1-based. A distance that would point before the
    window start collapses to 0 (the occurrence is the first one visible);
    everything else is the whole-text prev symbol unchanged. Constant time.
    Raises QueryError for a window symbol outside the text.
    """
    if d < 1 or j < 1 or j + d - 1 > len(global_prev):
        raise QueryError(f"window symbol ({j},{d}) out of range")
    b = global_prev[j + d - 2]
    if b < STATIC_BASE and b >= d:
        return 0
    return b


def pfunction_from_fpos(limit: int, farr: Sequence[int]) -> dict[int, int]:
    """Renaming that carries the window ``T[i:i+limit-1]`` onto its
    canonical form, derived from the f-array of the suffix ``T[i:]``.

    Orders the parameterized symbols first occurring within the window by
    their f-array offsets; the l-th maps to canonical id l. Symbols absent
    from the window stay unmapped; statics are identity by convention and
    are not stored.
    """
    occ = [(pos, x) for x, pos in enumerate(farr, start=1) if 1 <= pos <= limit]
    occ.sort()
    return {x: l for l, (_, x) in enumerate(occ, start=1)}
