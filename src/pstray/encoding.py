"""prev encoding, canonical renaming, and first-occurrence machinery.

Every symbol of an encoded string is either a *distance* (a parameterized
symbol rewritten as the distance to its previous occurrence, 0 at the first
occurrence) or a *static* symbol copied through. Both are packed into one
integer code so that the load-bearing total order

    Distance(0) < Distance(1) < ... < Static(smallest) < ... < Static(sentinel)

is plain integer comparison: distances are stored as themselves and static
ids are offset by ``STATIC_BASE``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .alphabet import PText

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


def p_match(x: Sequence[int], y: Sequence[int], pi: int) -> bool:
    """True iff the two sequences match up to renaming of parameterized
    symbols (equal length and equal prev encodings)."""
    return len(x) == len(y) and prev(x, pi) == prev(y, pi)


def prev_char_in_window(global_prev: Sequence[int], j: int, d: int) -> int:
    """Symbol ``d`` of the prev encoding of the suffix starting at ``j``.

    Both arguments are 1-based. A distance that would point before the
    window start collapses to 0 (the occurrence is the first one visible);
    everything else is the whole-text prev symbol unchanged. Constant time.
    """
    if d < 1 or j < 1 or j + d - 1 > len(global_prev):
        raise ValueError(f"window symbol ({j},{d}) out of range")
    b = global_prev[j + d - 2]
    if b < STATIC_BASE and b >= d:
        return 0
    return b


def fpos_stream(text: PText,
                positions: set[int] | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Walk suffixes right to left, yielding per-suffix f-arrays.

    The f-array of suffix ``T[i:]`` maps each canonical parameterized id
    (index ``x-1``) to the 1-based offset of the first occurrence of ``x``
    in the suffix, 0 if absent. One global table of absolute first
    occurrences is maintained in O(1) per step; the length-pi copy is made
    only for yielded steps. ``positions`` restricts which steps are
    materialized (all of them when None).
    """
    n = text.n
    pi = text.pi
    symbols = text.symbols
    first_abs = [0] * (pi + 1)  # first_abs[x] = smallest seen position of x
    for i in range(n, 0, -1):
        c = symbols[i - 1]
        if c <= pi:
            first_abs[c] = i
        if positions is None or i in positions:
            yield i, tuple(first_abs[x] - i + 1 if first_abs[x] else 0
                           for x in range(1, pi + 1))


def fpos(text: PText, i: int) -> tuple[int, ...]:
    """f-array of the single suffix ``T[i:]``."""
    for _, farr in fpos_stream(text, positions={i}):
        return farr
    raise ValueError(f"suffix start {i} out of range")


def pfunction_from_fpos(text: PText, i: int, limit: int,
                        farr: Sequence[int]) -> dict[int, int]:
    """Renaming that carries the window ``T[i:i+limit-1]`` onto its
    canonical form, derived from the suffix's f-array.

    Orders the parameterized symbols first occurring within the window by
    their f-array offsets; the l-th maps to canonical id l. Symbols absent
    from the window stay unmapped; statics are identity by convention and
    are not stored.
    """
    occ = [(pos, x) for x, pos in enumerate(farr, start=1) if 1 <= pos <= limit]
    occ.sort()
    return {x: l for l, (_, x) in enumerate(occ, start=1)}
