"""Input parsing: p-strings over a static alphabet and a parameterized alphabet.

A text is a sequence of tokens, each classified as *parameterized* (subject
to renaming) or *static* (fixed). Tokens are mapped to dense internal ids:

* parameterized symbols get ids ``1..pi`` in lexicographic token order,
* static symbols get ids ``pi+1..pi+sigma-1`` in lexicographic token order,
* the synthesized end marker gets the largest id ``pi+sigma``.

``pi`` and ``sigma`` count only symbols that actually occur in the text
(the end marker counts toward ``sigma``). With this layout the internal id
of a symbol *is* its lexicographic rank in the combined occurring alphabet,
with every parameterized symbol ordered below every static one.

The end marker never appears in input: its display token ``$`` is reserved,
and any input or alphabet declaration containing it is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoding import STATIC_BASE, prev_array, sort_by_symbol
from .errors import ClassificationError, InputError, QueryError

SENTINEL_TOKEN = "$"

BYTE_MODE = "bytes"
TOKEN_MODE = "tokens"


@dataclass(frozen=True)
class AlphabetSpec:
    """Declares which tokens are parameterized and how input is tokenized.

    Both alphabets are sets of string tokens. ``sigma_members=None`` means
    "every token not declared parameterized is static". With an explicit
    static set, unclassifiable text tokens are an error.
    """

    pi_members: frozenset[str]
    sigma_members: frozenset[str] | None = None
    mode: str = BYTE_MODE

    def __post_init__(self):
        if self.mode not in (BYTE_MODE, TOKEN_MODE):
            raise InputError(f"unknown input mode: {self.mode!r}")
        # A str is no token set: membership in it tests for substrings.
        sets = [self.pi_members]
        if self.sigma_members is not None:
            sets.append(self.sigma_members)
        if not all(isinstance(s, (set, frozenset))
                   and all(isinstance(tok, str) for tok in s) for s in sets):
            raise InputError("pi_members and sigma_members must be sets of "
                             "string tokens")
        if SENTINEL_TOKEN in self.pi_members:
            raise InputError("sentinel collision: '$' declared parameterized")
        if self.sigma_members is not None:
            if SENTINEL_TOKEN in self.sigma_members:
                raise InputError("sentinel collision: '$' declared static")
            overlap = self.pi_members & self.sigma_members
            if overlap:
                raise InputError(f"alphabets not disjoint: {sorted(overlap)}")

    def tokenize(self, raw: str | Sequence[str]) -> list[str]:
        if not isinstance(raw, str):
            return list(raw)
        if self.mode == TOKEN_MODE:
            return raw.split()
        return list(raw)

    def is_parameterized(self, token: str) -> bool:
        return token in self.pi_members


def parse_alphabet_spec(content: str) -> AlphabetSpec:
    """Parse the three-line alphabet spec format.

    ::

        pi: x y z
        sigma: A B        (or "sigma: auto")
        mode: bytes       (or "mode: tokens")

    Lines may appear in any order; blank lines and '#' comments are ignored.
    """
    pi: frozenset[str] | None = None
    sigma: frozenset[str] | None = None
    sigma_seen = False
    mode = BYTE_MODE
    for lineno, line in enumerate(content.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "pi":
            pi = frozenset(rest.split())
        elif key == "sigma":
            sigma_seen = True
            sigma = None if rest == "auto" else frozenset(rest.split())
        elif key == "mode":
            mode = rest
        else:
            raise InputError(f"alphabet spec line {lineno}: unknown key {key!r}")
    if pi is None or not sigma_seen:
        raise InputError("alphabet spec needs both a 'pi:' and a 'sigma:' line")
    return AlphabetSpec(pi_members=pi, sigma_members=sigma, mode=mode)


@dataclass(eq=False)
class PText:
    """An ingested text: internal symbols with the end marker appended.

    Made from its int64 ``symbol_array`` (built by ``ingest``, read by
    ``index_io.load``; position ``p`` is ``symbol_array[p-1]`` and the last
    entry is the sentinel) and the token ids ``tok2id``, and immutable.
    Derived once: ``id2tok``, the inverse of ``tok2id`` with ``$`` at the
    sentinel; ``by_symbol``, the 0-based positions of the parameterized
    symbols sorted by symbol (symbol x's, ascending, are
    ``by_symbol[symbol_cuts[x-1]:symbol_cuts[x]]``); ``code_array``, the
    prev codes; and their list ``prev_codes``, which the query's suffix
    comparisons index.
    """

    symbol_array: np.ndarray
    pi: int
    sigma: int
    tok2id: dict[str, int]
    spec: AlphabetSpec
    id2tok: dict[int, str] = field(init=False, repr=False)
    by_symbol: np.ndarray = field(init=False, repr=False)
    symbol_cuts: list[int] = field(init=False, repr=False)
    code_array: np.ndarray = field(init=False, repr=False)
    prev_codes: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        symbols = self.symbol_array
        self.id2tok = {v: k for k, v in self.tok2id.items()}
        self.id2tok[self.sentinel] = SENTINEL_TOKEN
        self.by_symbol = sort_by_symbol(symbols, self.pi)
        self.symbol_cuts = np.bincount(symbols[self.by_symbol],
                                       minlength=self.pi + 1).cumsum().tolist()
        self.code_array = prev_array(symbols, self.by_symbol)
        self.prev_codes = self.code_array.tolist()

    @property
    def n(self) -> int:
        return len(self.symbol_array)

    @property
    def sentinel(self) -> int:
        return self.pi + self.sigma

    def decode(self, positions: Iterable[int]) -> str:
        """External tokens of the given 1-based positions (debugging aid)."""
        sep = " " if self.spec.mode == TOKEN_MODE else ""
        symbols = self.symbol_array
        return sep.join(self.id2tok[symbols[p - 1]] for p in positions)


def ingest(raw: str | Sequence[str], spec: AlphabetSpec) -> PText:
    """Classify and remap raw input, append the end marker, return a PText.

    Raises InputError for empty input, a sentinel collision and input that
    is neither a string nor an iterable of string tokens, and
    ClassificationError for a token outside both alphabets when the static
    set is explicit.
    """
    try:
        tokens = spec.tokenize(raw)
    except TypeError:
        raise InputError("a text is a string or a sequence of string tokens, "
                         f"not {type(raw).__name__}") from None
    if not tokens:
        raise InputError("empty input")
    # Classify the distinct tokens, not every token; an unhashable token
    # fails set() and is named like any other non-string token.
    try:
        distinct = set(tokens)
    except TypeError:
        distinct = None
    if distinct is None or not all(isinstance(tok, str) for tok in distinct):
        bad = next(tok for tok in tokens if not isinstance(tok, str))
        raise InputError(f"text token {bad!r} is not a string")
    if SENTINEL_TOKEN in distinct:
        raise InputError("sentinel collision: input contains '$'")
    pi_occ = distinct & spec.pi_members
    sigma_occ = distinct - pi_occ
    if spec.sigma_members is not None and not sigma_occ <= spec.sigma_members:
        stray = sigma_occ - spec.sigma_members
        tok = next(tok for tok in tokens if tok in stray)
        raise ClassificationError(f"token {tok!r} is in neither alphabet")

    pi = len(pi_occ)
    sigma = len(sigma_occ) + 1  # end marker counts as an occurring static
    tok2id: dict[str, int] = {}
    for i, tok in enumerate(sorted(pi_occ), start=1):
        tok2id[tok] = i
    for i, tok in enumerate(sorted(sigma_occ), start=pi + 1):
        tok2id[tok] = i
    ids = np.fromiter(map(tok2id.__getitem__, tokens), np.int64,
                      count=len(tokens))
    return PText(symbol_array=np.append(ids, pi + sigma), pi=pi, sigma=sigma,
                 tok2id=tok2id, spec=spec)


def encode_pattern(text: PText, raw: str | Sequence[str]) -> list[int] | None:
    """Map a pattern onto the text's internal ids.

    Parameterized tokens unknown to the text get fresh negative ids (their
    identity only matters up to equality within the pattern). A static token
    the text has never seen cannot match anywhere: returns None. The pattern
    is checked by ``pattern_codes``, so this raises QueryError where it
    does: for an empty pattern and for one that is neither a string nor a
    sequence of string tokens.
    """
    if pattern_codes(text, raw) is None:
        return None
    out: list[int] = []
    fresh: dict[str, int] = {}
    for tok in text.spec.tokenize(raw):
        sym = text.tok2id.get(tok)
        if sym is None:  # a parameterized token, as pattern_codes passed it
            sym = fresh.setdefault(tok, -len(fresh) - 1)
        out.append(sym)
    return out


def pattern_codes(text: PText,
                  raw: str | Sequence[str]) -> tuple[list[int], list[int]] | None:
    """prev codes and canonical ids of a raw pattern, in one pass over its
    tokens; None when it cannot occur in the text.

    Equal to ``prev`` and ``spe`` of ``encode_pattern(text, raw)``, without
    building the id list between them. A parameterized token needs no text
    id, because only equality within the pattern matters: its canonical id
    is the number of distinct parameterized tokens up to its first
    occurrence, and its prev code the distance back to its last one. A
    static token takes one ``tok2id`` lookup; one the text has never seen,
    ``$`` included, gives None. Raises QueryError for an empty pattern and
    for one that is neither a string nor a sequence of string tokens.
    """
    try:
        tokens = text.spec.tokenize(raw)
    except TypeError:
        raise QueryError("a pattern is a string or a sequence of tokens, "
                         f"not {type(raw).__name__}") from None
    if not tokens:
        raise QueryError("empty pattern")
    params = text.spec.pi_members
    tok2id = text.tok2id
    codes: list[int] = []
    canon: list[int] = []
    seen: dict[str, int] = {}  # parameterized token -> canonical id
    last = [0]  # last[c]: index of the latest token with canonical id c
    for i, tok in enumerate(tokens):
        try:
            is_param = tok in params
        except TypeError:  # unhashable
            raise QueryError(f"pattern token {tok!r} is not a string") from None
        if is_param:
            c = seen.get(tok)
            if c is None:
                c = seen[tok] = len(last)
                last.append(i)
                codes.append(0)
            else:
                codes.append(i - last[c])
                last[c] = i
            canon.append(c)
        else:
            sym = tok2id.get(tok)
            if sym is None:
                if isinstance(tok, str):
                    return None
                raise QueryError(f"pattern token {tok!r} is not a string")
            codes.append(STATIC_BASE + sym)
            canon.append(sym)
    return codes, canon
