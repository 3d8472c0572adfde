"""Seeded corpora and query mixes for the benchmark workloads.

Every generator takes the workload seed and a size scale (1.0 for the
benchmark, smaller for the smoke test) and returns plain tokens: the library
only ever sees the raw text and raw patterns built from them. Nothing here
reads a file, so the input cannot drift when the repository's sources do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BYTES = "bytes"
TOKENS = "tokens"


@dataclass(frozen=True)
class Corpus:
    """One workload's input: alphabet, text tokens and query patterns."""

    mode: str
    pi: frozenset[str]
    sigma: frozenset[str]
    text: list[str]
    patterns: list[list[str]]

    def join(self, tokens: list[str]) -> str:
        """Raw input form of a token list, as a user would type it."""
        return " ".join(tokens) if self.mode == TOKENS else "".join(tokens)


def _rng(name: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}")


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(count * scale))


def _renamed(tokens: list[str], pool: list[str], pi: frozenset[str],
             rng: random.Random) -> list[str]:
    """The tokens with their parameterized symbols renamed injectively."""
    own = sorted({t for t in tokens if t in pi})
    renaming = dict(zip(own, rng.sample(pool, len(own))))
    return [renaming.get(t, t) for t in tokens]


def random_corpus(seed: int, scale: float = 1.0) -> Corpus:
    """Uniform bytes over 6 parameterized and 5 static symbols, n = 100k.

    Queries (20k, m in [5, 24]): half are text windows renamed by a random
    permutation of the parameterized symbols, half are random draws. At
    m = 4 about 1% of patterns match ~800 times and the rest at most ~400,
    which would put the p99 latency on that cliff.
    """
    rng = _rng("random", seed)
    pi = list("uvwxyz")
    sigma = list("ABCDE")
    alphabet = pi + sigma
    n = _scaled(100_000, scale, 200)
    text = rng.choices(alphabet, k=n)
    pi_set = frozenset(pi)
    patterns = []
    for q in range(_scaled(20_000, scale, 200)):
        m = rng.randint(5, 24)
        if q % 2 == 0:
            start = rng.randrange(n - m + 1)
            patterns.append(_renamed(text[start:start + m], pi, pi_set, rng))
        else:
            patterns.append(rng.choices(alphabet, k=m))
    return Corpus(BYTES, pi_set, frozenset(sigma), text, patterns)


# 25 keyword/operator statics and a pool of 60 identifiers.
CLONE_STATICS = ("if else for while return int = == + - * ( ) { } ; , < > "
                 "[ ] . != && ||").split()
CLONE_NAMES = [f"id{k:02d}" for k in range(60)]


def clones_corpus(seed: int, scale: float = 1.0) -> Corpus:
    """Code-like tokens: two copies of each of 100 templates of 80 tokens,
    n = 16k.

    60% of template tokens are statics; the rest are identifier slots
    renamed per copy from the 60-name pool. 2% of text tokens are then
    replaced at random (near-miss clones): exact copies of long blocks make
    the suffix sort do one round per depth of their common prefix.

    Queries (20k, m in [8, 48]): half are template fragments under a fresh
    renaming, half are random draws.
    """
    rng = _rng("clones", seed)
    pi_set = frozenset(CLONE_NAMES)
    templates = []
    for _ in range(100):
        local = [f"id{k:02d}" for k in range(rng.randint(3, 8))]
        statics = set(rng.sample(range(80), 48))
        templates.append([rng.choice(CLONE_STATICS) if k in statics
                          else rng.choice(local) for k in range(80)])
    # Every template is copied equally often and exactly 2% of tokens are
    # mutated, so the amount of repetition, which drives the sort's cost,
    # varies little from seed to seed. A third copy of a template would
    # add about as much sort work as the first two.
    n = _scaled(16_000, scale, 400)
    order = list(range(len(templates)))
    rng.shuffle(order)
    text: list[str] = []
    while len(text) < n:
        template = templates[order[len(text) // 80 % len(order)]]
        text.extend(_renamed(template, CLONE_NAMES, pi_set, rng))
    del text[n:]
    vocabulary = CLONE_STATICS + CLONE_NAMES
    for i in rng.sample(range(n), n // 50):
        text[i] = rng.choice(vocabulary)
    patterns = []
    for q in range(_scaled(20_000, scale, 200)):
        m = rng.randint(8, 48)
        if q % 2 == 0:
            template = rng.choice(templates)
            start = rng.randrange(len(template) - m + 1)
            patterns.append(_renamed(template[start:start + m], CLONE_NAMES,
                                     pi_set, rng))
        else:
            patterns.append(rng.choices(vocabulary, k=m))
    return Corpus(TOKENS, pi_set, frozenset(CLONE_STATICS), text,
                  patterns)


def runs_corpus(seed: int, scale: float = 1.0) -> Corpus:
    """One parameterized byte repeated, n = 8k: every trie node is heavy
    and the trie is n deep.

    Queries (2k, m in [1, 16]): every 50th is one parameterized symbol
    repeated, which matches about n positions and is bound by ``report``;
    the others hold two distinct parameterized symbols and miss after one
    dispatch step. With 2% output-bound queries the p99 latency is the
    middle of that class: were every query output-bound, all would cost the
    same and the p99 would measure only the machine's slow bursts.
    """
    rng = _rng("runs", seed)
    pi = list("xyz")
    text = ["x"] * _scaled(8_000, scale, 200)
    patterns = []
    for q in range(_scaled(2_000, scale, 200)):
        m = rng.randint(1, 16)
        if q % 50 == 0:
            patterns.append([rng.choice(pi)] * m)
        else:
            patterns.append(rng.sample(pi, 2) + rng.choices(pi, k=max(0, m - 2)))
    return Corpus(BYTES, frozenset(pi), frozenset(), text, patterns)


WORKLOADS = {
    "random": random_corpus,
    "clones": clones_corpus,
    "runs": runs_corpus,
}
