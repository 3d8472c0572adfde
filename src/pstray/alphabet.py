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

from .encoding import STATIC_BASE
from .errors import ClassificationError, InputError, QueryError, RankError

SENTINEL_TOKEN = "$"

BYTE_MODE = "bytes"
TOKEN_MODE = "tokens"


@dataclass(frozen=True)
class AlphabetSpec:
    """Declares which tokens are parameterized and how input is tokenized.

    ``sigma_members=None`` means "every token not declared parameterized is
    static". With an explicit static set, unclassifiable text tokens are an
    error.
    """

    pi_members: frozenset[str]
    sigma_members: frozenset[str] | None = None
    mode: str = BYTE_MODE

    def __post_init__(self):
        if self.mode not in (BYTE_MODE, TOKEN_MODE):
            raise InputError(f"unknown input mode: {self.mode!r}")
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

    Immutable after construction. ``symbols`` is 0-indexed storage for the
    1-indexed text positions used throughout the package: position ``p``
    holds ``symbols[p-1]``, and ``symbols[-1]`` is always the sentinel.
    """

    symbols: list[int]
    pi: int
    sigma: int
    tok2id: dict[str, int]
    id2tok: dict[int, str]
    spec: AlphabetSpec
    _prev_codes: list[int] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def sentinel(self) -> int:
        return self.pi + self.sigma

    def is_parameterized_id(self, sym: int) -> bool:
        # Fresh pattern-only parameterized ids are negative, hence <= pi.
        return sym <= self.pi

    @property
    def prev_codes(self) -> list[int]:
        """prev encoding of the whole text as order-preserving int codes."""
        if self._prev_codes is None:
            # Looked up at call time, so that a wrapper swapped into
            # encoding.prev (as bench/tracing.py does) sees the call.
            from .encoding import prev

            self._prev_codes = prev(self.symbols, self.pi)
        return self._prev_codes

    def decode(self, positions: Iterable[int]) -> str:
        """External tokens of the given 1-based positions (debugging aid)."""
        sep = " " if self.spec.mode == TOKEN_MODE else ""
        return sep.join(self.id2tok[self.symbols[p - 1]] for p in positions)


def ingest(raw: str | Sequence[str], spec: AlphabetSpec) -> PText:
    """Classify and remap raw input, append the end marker, return a PText.

    Raises InputError for empty input or a sentinel collision, and
    ClassificationError for a token outside both alphabets when the static
    set is explicit.
    """
    tokens = spec.tokenize(raw)
    if not tokens:
        raise InputError("empty input")

    pi_occ: set[str] = set()
    sigma_occ: set[str] = set()
    for tok in tokens:
        if tok == SENTINEL_TOKEN:
            raise InputError("sentinel collision: input contains '$'")
        if spec.is_parameterized(tok):
            pi_occ.add(tok)
        elif spec.sigma_members is None or tok in spec.sigma_members:
            sigma_occ.add(tok)
        else:
            raise ClassificationError(f"token {tok!r} is in neither alphabet")

    pi = len(pi_occ)
    sigma = len(sigma_occ) + 1  # end marker counts as an occurring static
    tok2id: dict[str, int] = {}
    for i, tok in enumerate(sorted(pi_occ), start=1):
        tok2id[tok] = i
    for i, tok in enumerate(sorted(sigma_occ), start=pi + 1):
        tok2id[tok] = i
    sentinel = pi + sigma
    id2tok = {v: k for k, v in tok2id.items()}
    id2tok[sentinel] = SENTINEL_TOKEN

    symbols = [tok2id[t] for t in tokens]
    symbols.append(sentinel)
    return PText(symbols=symbols, pi=pi, sigma=sigma, tok2id=tok2id,
                 id2tok=id2tok, spec=spec)


def rank(sym: int, text: PText) -> int:
    """Lexicographic rank of an internal symbol in the occurring alphabet.

    Ids are assigned so that the rank equals the id; this validates the
    domain: canonical parameterized ids 1..pi (whether or not they occur as
    given) and occurring static ids pi+1..pi+sigma.
    """
    if 1 <= sym <= text.pi + text.sigma:
        return sym
    raise RankError(f"symbol id {sym} outside canonical universe "
                    f"1..{text.pi + text.sigma}")


def encode_pattern(text: PText, raw: str | Sequence[str]) -> list[int] | None:
    """Map a pattern onto the text's internal ids.

    Parameterized tokens unknown to the text get fresh negative ids (their
    identity only matters up to equality within the pattern). A static token
    the text has never seen cannot match anywhere: returns None. Returns an
    empty list for empty input (callers decide whether that is an error).
    """
    tokens = text.spec.tokenize(raw)
    out: list[int] = []
    fresh: dict[str, int] = {}
    for tok in tokens:
        if text.spec.is_parameterized(tok):
            sym = text.tok2id.get(tok)
            if sym is None:
                sym = fresh.setdefault(tok, -len(fresh) - 1)
            out.append(sym)
        else:
            if tok == SENTINEL_TOKEN:
                return None
            sym = text.tok2id.get(tok)
            if sym is None:
                return None
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
