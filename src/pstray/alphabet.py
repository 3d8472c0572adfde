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

import re
from collections.abc import Collection, Mapping, Set
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoding import STATIC_BASE, prev_array, sort_by_symbol
from .errors import (ClassificationError, InputError, QueryError,
                     ValidationError)

SENTINEL_TOKEN = "$"

BYTE_MODE = "bytes"
TOKEN_MODE = "tokens"

# Lone surrogates: what UTF-8, the index file's token encoding, cannot hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _require_utf8(tokens: Collection[str], what: str) -> None:
    """Raise InputError naming the least token UTF-8 cannot encode."""
    if _SURROGATE.search("".join(tokens)):
        bad = min(tok for tok in tokens if _SURROGATE.search(tok))
        raise InputError(f"{what} token {bad!r} does not encode as UTF-8")


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
        for members in sets:
            _require_utf8(members, "declared")
        if SENTINEL_TOKEN in self.pi_members:
            raise InputError("sentinel collision: '$' declared parameterized")
        if self.sigma_members is not None:
            if SENTINEL_TOKEN in self.sigma_members:
                raise InputError("sentinel collision: '$' declared static")
            overlap = self.pi_members & self.sigma_members
            if overlap:
                raise InputError(f"alphabets not disjoint: {sorted(overlap)}")

    def tokenize(self, raw: str | Sequence[str]) -> list[str]:
        if isinstance(raw, str):  # first: the ABC checks cost 0.4 us
            return raw.split() if self.mode == TOKEN_MODE else list(raw)
        if isinstance(raw, (Set, Mapping)):  # no order to read tokens in
            raise TypeError(f"{type(raw).__name__} is unordered")
        return list(raw)

    def is_parameterized(self, token: str) -> bool:
        return token in self.pi_members


def parse_alphabet_spec(content: str) -> AlphabetSpec:
    """Parse the three-line alphabet spec format.

    ::

        pi: x y z
        sigma: A B        (or "sigma: auto")
        mode: bytes       (or "mode: tokens")

    Each key once, in any order; blank lines and '#' comments are ignored.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(content.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key not in ("pi", "sigma", "mode") or key in fields:
            what = "repeated" if key in fields else "unknown"
            raise InputError(f"alphabet spec line {lineno}: {what} key {key!r}")
        fields[key] = rest.strip()
    if "pi" not in fields or "sigma" not in fields:
        raise InputError("alphabet spec needs both a 'pi:' and a 'sigma:' line")
    sigma = fields["sigma"]
    return AlphabetSpec(pi_members=frozenset(fields["pi"].split()),
                        sigma_members=None if sigma == "auto"
                        else frozenset(sigma.split()),
                        mode=fields.get("mode", BYTE_MODE))


@dataclass(eq=False)
class PText:
    """An ingested text: internal symbols with the end marker appended.

    Made from its int64 ``symbol_array`` (built by ``ingest``, read by
    ``index_io.load``; position ``p`` is ``symbol_array[p-1]``, the last
    alone is the sentinel, else ValidationError) and the token ids ``tok2id``,
    and immutable. Derived once: ``id2tok``, the inverse of ``tok2id``
    with ``$`` at the sentinel; ``by_symbol``, the 0-based positions of
    the parameterized symbols sorted by symbol (symbol x's, ascending, are
    ``by_symbol[symbol_cuts[x-1]:symbol_cuts[x]]``, with ``symbol_cuts``
    an int64 array too); ``code_array``, the prev codes; and their list
    ``prev_codes``, which the query's suffix comparisons index.
    """

    symbol_array: np.ndarray
    pi: int
    sigma: int
    tok2id: dict[str, int]
    spec: AlphabetSpec
    id2tok: dict[int, str] = field(init=False, repr=False)
    by_symbol: np.ndarray = field(init=False, repr=False)
    symbol_cuts: np.ndarray = field(init=False, repr=False)
    code_array: np.ndarray = field(init=False, repr=False)
    prev_codes: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        symbols, end = self.symbol_array, self.sentinel
        if not (isinstance(symbols, np.ndarray) and symbols.ndim == 1
                and symbols.dtype == np.int64 and len(symbols)
                and symbols[-1] == end and symbols.min() >= 1
                and symbols[:-1].max(initial=0) < end):
            raise ValidationError(f"text symbols are not int64 ids "
                                  f"1..{end - 1} ended by the end marker {end}")
        self.id2tok = {v: k for k, v in self.tok2id.items()}
        self.id2tok[end] = SENTINEL_TOKEN
        self.by_symbol = sort_by_symbol(symbols, self.pi)
        self.symbol_cuts = np.bincount(symbols[self.by_symbol],
                                       minlength=self.pi + 1).cumsum()
        self.code_array = prev_array(symbols, self.by_symbol)
        self.prev_codes = self.code_array.tolist()

    @property
    def n(self) -> int:
        return len(self.symbol_array)

    @property
    def sentinel(self) -> int:
        return self.pi + self.sigma


def token_ids(tokens: Sequence[str], distinct: set[str] | frozenset[str],
              spec: AlphabetSpec) -> tuple[int, int, dict[str, int]]:
    """The id rule, from the distinct tokens of a text: ``(pi, sigma,
    tok2id)``. Parameterized tokens take ids 1..pi and static ones the ids
    after them, each class in sorted order; the end marker, counted in
    sigma, takes the last id pi + sigma. ``ingest`` and ``index_io.load``
    both assign ids here.

    Raises InputError when ``$`` is among the tokens or one does not
    encode as UTF-8, and ClassificationError for a token outside an
    explicit static set, naming the first such token in ``tokens``.
    """
    if SENTINEL_TOKEN in distinct:
        raise InputError("sentinel collision: input contains '$'")
    _require_utf8(distinct, "text")
    pi_occ = distinct & spec.pi_members
    sigma_occ = distinct - pi_occ
    if spec.sigma_members is not None and not sigma_occ <= spec.sigma_members:
        stray = sigma_occ - spec.sigma_members
        tok = next(tok for tok in tokens if tok in stray)
        raise ClassificationError(f"token {tok!r} is in neither alphabet")
    pi = len(pi_occ)
    tok2id = {tok: i for i, tok in enumerate(sorted(pi_occ), start=1)}
    tok2id.update((tok, i) for i, tok in
                  enumerate(sorted(sigma_occ), start=pi + 1))
    return pi, len(sigma_occ) + 1, tok2id


def ingest(raw: str | Sequence[str], spec: AlphabetSpec) -> PText:
    """Classify and remap raw input, append the end marker, return a PText.

    Raises InputError for empty input, a sentinel collision and input that
    is neither a string nor an ordered iterable of string tokens (a set or
    mapping is refused), and ClassificationError for a token outside both
    alphabets when the static set is explicit.
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
    pi, sigma, tok2id = token_ids(tokens, distinct, spec)
    ids = np.fromiter(map(tok2id.__getitem__, tokens), np.int64,
                      count=len(tokens))
    return PText(symbol_array=np.append(ids, pi + sigma), pi=pi, sigma=sigma,
                 tok2id=tok2id, spec=spec)


def pattern_codes(text: PText,
                  raw: str | Sequence[str]) -> tuple[list[int], list[int]] | None:
    """prev codes and canonical ids of a raw pattern, in one pass over its
    tokens; None when it cannot occur in the text.

    Where it can occur, equal to ``prev`` and ``spe`` of ``encode_pattern``
    in ``oracle``, without building the id list between them. A
    parameterized token needs no text id, as only equality within the
    pattern matters: its canonical id is the number of distinct
    parameterized tokens up to its first occurrence, and its prev code the
    distance back to its last one. More distinct parameterized tokens than
    the text's ``pi`` give None, since no window of the text holds more. A
    static token takes one ``tok2id`` lookup; one the text has never seen,
    ``$`` included, gives None. Every token is read first: raises QueryError
    for an empty pattern and for one that is neither a string nor a sequence
    of string tokens.
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
    unknown = False  # a static token the text lacks
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
                if not isinstance(tok, str):
                    raise QueryError(f"pattern token {tok!r} is not a string")
                unknown, sym = True, 0
            codes.append(STATIC_BASE + sym)
            canon.append(sym)
    if unknown or len(seen) > text.pi:
        return None
    return codes, canon
