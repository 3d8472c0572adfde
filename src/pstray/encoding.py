"""The prev encoding of a whole text and the renaming of a window read off
its suffix's f-array. The window adjustment of a text's prev codes is read
in ``suffixes`` (``compare_suffix`` and ``_window_symbols``); the prev
encoding and canonical renaming of one sequence, the f-arrays and the
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

# Distances are bounded by the text/pattern length; anything this large is
# a static symbol id plus the base.
STATIC_BASE = 1 << 48


def sort_by_symbol(symbols: np.ndarray, pi: int) -> np.ndarray:
    """0-based positions of a text's parameterized symbols (ids 1..pi),
    sorted by symbol and ascending within one symbol: one stable radix sort
    on a key as wide as ``pi``."""
    at = (symbols <= pi).nonzero()[0]
    key = symbols[at].astype(np.min_scalar_type(pi))
    return at[np.argsort(key, kind="stable")]


def prev_array(symbols: np.ndarray, by_symbol: np.ndarray) -> np.ndarray:
    """The prev encoding (``oracle.prev``) of a whole text's int64 symbols,
    from its parameterized positions in ``sort_by_symbol`` order: each
    distance is the difference of two neighbours with one symbol."""
    out = symbols + STATIC_BASE
    same = np.diff(symbols[by_symbol], prepend=0) == 0
    out[by_symbol] = np.where(same, np.diff(by_symbol, prepend=0), 0)
    return out


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
