"""Expected query answers from a NumPy window matcher.

Shares no code with the index: texts and patterns are prev-encoded here
from their raw tokens, and a text window matches a pattern when the
window's own prev encoding equals the pattern's. Windows of one length are
bucketed by a hash of their codes and every candidate is then compared
symbol by symbol, so a hash collision cannot produce a wrong answer.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# Static codes sit above every distance; a distance never exceeds n.
STATIC = 1 << 40
_CHUNK = 1 << 14


def prev_codes(tokens: list[str], pi: frozenset[str],
               static_ids: dict[str, int]) -> np.ndarray:
    """Parameterized tokens become the distance to their previous
    occurrence (0 for the first), statics a code above every distance."""
    out = np.empty(len(tokens), dtype=np.int64)
    last: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok in pi:
            j = last.get(tok)
            out[i] = 0 if j is None else i - j
            last[tok] = i
        else:
            out[i] = STATIC + static_ids.setdefault(tok, len(static_ids))
    return out


def _windows(codes: np.ndarray, starts: np.ndarray, m: int) -> np.ndarray:
    """Prev encodings of the length-m windows at the given 0-based starts:
    a distance reaching before the window start becomes 0."""
    cols = np.arange(m)
    win = codes[starts[:, None] + cols]
    return np.where((win < STATIC) & (win > cols), 0, win)


def _hash(rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    return (rows.astype(np.uint64) * coef[:rows.shape[1]]).sum(
        axis=1, dtype=np.uint64)


def expected_answers(text: list[str], patterns: list[list[str]],
                     pi: frozenset[str]) -> list[list[int]]:
    """Sorted 1-based start positions of every match of every pattern.

    Patterns with equal prev encodings share one answer list.
    """
    static_ids: dict[str, int] = {}
    codes = prev_codes(text, pi, static_ids)
    n = len(codes)
    keys: dict[tuple[int, ...], int] = {}
    owner = []
    for p in patterns:
        key = tuple(prev_codes(p, pi, static_ids).tolist())
        owner.append(keys.setdefault(key, len(keys)))
    by_len: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for key in keys:
        by_len[len(key)].append(key)

    coef = np.random.default_rng(0).integers(
        1, 1 << 63, size=max(len(k) for k in keys), dtype=np.uint64) | 1
    answers: dict[tuple[int, ...], list[int]] = {}
    for m, group in by_len.items():
        if m > n:
            answers.update((key, []) for key in group)
            continue
        starts = np.arange(n - m + 1)
        hashes = np.concatenate([
            _hash(_windows(codes, starts[c:c + _CHUNK], m), coef)
            for c in range(0, len(starts), _CHUNK)])
        order = np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[order]
        pats = np.array(group, dtype=np.int64)
        pat_hashes = _hash(pats, coef)
        lo = np.searchsorted(sorted_hashes, pat_hashes, side="left")
        hi = np.searchsorted(sorted_hashes, pat_hashes, side="right")
        for key, row, a, b in zip(group, pats, lo, hi):
            cand = np.sort(order[a:b])
            hit = cand[(_windows(codes, cand, m) == row).all(axis=1)]
            answers[key] = (hit + 1).tolist()
    by_id = list(answers[key] for key in keys)
    return [by_id[k] for k in owner]
