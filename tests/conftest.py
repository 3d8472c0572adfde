import random

import numpy as np
import pytest

from pstray.alphabet import TOKEN_MODE, AlphabetSpec, ingest
from pstray.encoding import STATIC_BASE
from pstray.suffixes import _window_symbols
from pstray.tray import assemble

# The running example used throughout: pi = {x,y,z}, sigma = {A} (+ '$').
DEMO_TEXT = "zAxAyyxyAxxy"
DEMO_PSA = [6, 7, 11, 5, 10, 3, 8, 1, 12, 4, 9, 2, 13]
DEMO_PLCP = [0, 2, 2, 1, 3, 1, 5, 3, 1, 0, 4, 2, 0]


def make_text(raw, pi="xyz", sigma=None, mode="bytes"):
    """Ingest helper: explicit parameterized set, static set or auto."""
    spec = AlphabetSpec(pi_members=frozenset(pi),
                        sigma_members=None if sigma is None else frozenset(sigma),
                        mode=mode)
    return ingest(raw, spec)


def decode(text, positions):
    """External tokens of the given 1-based positions of a text."""
    sep = " " if text.spec.mode == TOKEN_MODE else ""
    symbols = text.symbol_array
    return sep.join(text.id2tok[symbols[p - 1]] for p in positions)


def window_codes(text, start, depth):
    """Symbols 1..depth of the prev encoding of the suffix at 1-based
    ``start``, read by one ``_window_symbols`` call, as a list."""
    return _window_symbols(text.code_array, np.full(depth, start - 1),
                           np.arange(1, depth + 1)).tolist()


def sym_codes(text, pretty):
    """Encoded-symbol codes from a compact string like '0A014'.

    Digits are distances, other characters static tokens of the text.
    """
    out = []
    for ch in pretty:
        if ch.isdigit():
            out.append(int(ch))
        else:
            out.append(STATIC_BASE + text.tok2id[ch] if ch != "$"
                       else STATIC_BASE + text.sentinel)
    return out


def random_text(rng: random.Random, max_n=120, max_pi=6, max_sigma=3):
    """One random text over fresh alphabets; returns the ingested PText."""
    pi_k = rng.randint(0, max_pi)
    sg_k = rng.randint(0, max_sigma)
    if pi_k + sg_k == 0:
        sg_k = 1
    pis = list("uvwxyz")[:pi_k]
    sgs = list("ABCD")[:sg_k]
    n = rng.randint(1, max_n)
    raw = "".join(rng.choice(pis + sgs) for _ in range(n))
    return make_text(raw, pi=pis)


def fibonacci_word(n, a, b):
    """The first n letters of the Fibonacci word over a, b."""
    w, v = a, a + b
    while len(v) < n:
        w, v = v, v + w
    return v[:n]


def thue_morse_word(n, a, b):
    """The first n letters of the Thue–Morse word over a, b."""
    return "".join(b if bin(i).count("1") % 2 else a for i in range(n))


# Hard inputs for the suffix sort, the tree and the checks: the stress
# words of suffix sorting, runs and periods, the four texts that keep a
# late window correction in every suffix (a long repeat framed by one
# parameterized symbol at both ends), and the degenerate alphabets.
SHAPES = ("fibonacci", "thue-morse", "x^k y", "(xy)^k", "static run",
          "two params", "distinct params", "y x^k y", "y fibonacci y",
          "y (xz)^k y", "w x^k y x^k w", "no params", "no statics",
          "one token")


def shapes(name, n):
    """The shape ``name`` of SHAPES as a text of about n tokens (one for
    "one token"); lower-case letters are parameterized, upper-case ones
    static. Deterministic."""
    rng = random.Random(f"{name} {n}")
    if name == "distinct params":
        return make_text(" ".join(f"p{i}" for i in range(n)),
                         pi=[f"p{i}" for i in range(n)], mode="tokens")
    raw = {
        "fibonacci": lambda: fibonacci_word(n, "x", "y"),
        "thue-morse": lambda: thue_morse_word(n, "x", "y"),
        "x^k y": lambda: "x" * (n - 1) + "y",
        "(xy)^k": lambda: ("xy" * n)[:n],
        "static run": lambda: "A" * n,
        "two params": lambda: "".join(rng.choice("xy") for _ in range(n)),
        "y x^k y": lambda: "y" + "x" * (n - 2) + "y",
        "y fibonacci y": lambda: "y" + fibonacci_word(n - 2, "x", "z") + "y",
        "y (xz)^k y": lambda: "y" + ("xz" * n)[:n - 2] + "y",
        "w x^k y x^k w": lambda: "w" + "x" * ((n - 3) // 2) + "y"
                                 + "x" * ((n - 3) // 2) + "w",
        "no params": lambda: "".join(rng.choice("ABC") for _ in range(n)),
        "no statics": lambda: "".join(rng.choice("uvwxyz")
                                      for _ in range(n)),
        "one token": lambda: "x",
    }[name]()
    return make_text(raw, pi="uvwxyz")


@pytest.fixture(scope="session")
def demo_text():
    return make_text(DEMO_TEXT, pi="xyz", sigma="A")


@pytest.fixture(scope="session")
def demo_index(demo_text):
    return assemble(demo_text)


# ------------------------------------------------ tree helpers

def children(tree, v):
    return tree.child_ids[tree.child_cuts[v]:tree.child_cuts[v + 1]].tolist()


def is_leaf(tree, v):
    """A block of one rank below the root (node 0) is that rank's suffix."""
    return v != 0 and tree.lo[v] == tree.hi[v]


def leaf_count(tree, v):
    return tree.hi[v] - tree.lo[v] + 1


def parents(tree):
    """Each node's parent, read from the CSR children (None at the root)."""
    up = [None] * tree.size
    for v in range(tree.size):
        for u in children(tree, v):
            up[u] = v
    return up


def node_depth(tree, index, v):
    """The string depth of node v: stored for a p-node; for a light node,
    which keeps none, its least inner LCP, or its suffix's length when it
    holds one rank."""
    if v < len(tree.depth):
        return tree.depth[v]
    lo, hi = tree.lo[v], tree.hi[v]
    if lo == hi:
        return len(index.starts) + 1 - index.starts[lo - 1]
    return int(index.plcp[lo:hi].min())


def edge_length(tree, index, v):
    return node_depth(tree, index, v) - tree.depth[parents(tree)[v]]


def edge_symbol(tree, index, v, offset):
    """Symbol ``offset`` (1-based) of the edge entering node v, read
    through its leftmost suffix."""
    depth = tree.depth[parents(tree)[v]] + offset
    return window_codes(index.text, index.starts[tree.lo[v] - 1],
                        depth)[depth - 1]


def node_label(tree, index, v):
    """Full root-to-node label of node v as encoded symbol codes, read
    through its leftmost suffix."""
    return tuple(window_codes(index.text, index.starts[tree.lo[v] - 1],
                              node_depth(tree, index, v)))


# ------------------------------------------------ LCP-interval references

def naive_intervals(text):
    """Every node of the LCP-interval tree, straight from the definition
    over materialized prev strings, as {(lo, hi, depth): parent}.

    Rank interval [i, j] with i < j is an internal node of depth l when l
    is the least LCP inside it and both LCPs just outside it are below l;
    each rank r is a leaf as deep as its suffix is long; the root is ranks
    1..n at depth 0. A node's parent is the deepest node that strictly
    contains it (None for the root). O(n^2) time and space.
    """
    from pstray.oracle import naive_psa

    order, plcp = naive_psa(text)
    n = text.n
    nodes = {(r, r, n + 1 - p) for r, p in enumerate(order, start=1)}
    nodes.add((1, n, 0))
    outside = plcp[1:] + [-1]  # outside[j - 1]: the LCP just after rank j
    for i in range(1, n + 1):
        least = None
        for j in range(i + 1, n + 1):
            h = plcp[j - 1]
            least = h if least is None else min(least, h)
            if (i == 1 or plcp[i - 1] < least) and outside[j - 1] < least:
                nodes.add((i, j, least))
    return {v: max((u for u in nodes
                    if u[0] <= v[0] and v[1] <= u[1] and u[2] < v[2]),
                   key=lambda u: u[2], default=None)
            for v in nodes}


def lcp_intervals(psa, plcp):
    """The same {(lo, hi, depth): parent} map from a suffix and an LCP
    array, by the one left-to-right stack pass of Abouelhoda, Kurtz &
    Ohlebusch (2004): O(n), for inputs too long for ``naive_intervals``."""
    n = len(psa)
    parent = {}
    stack = [(0, 1, [])]  # open nodes: depth, lo, closed children
    for r in range(1, n + 1):
        last = (r, r, n + 1 - psa[r - 1])
        h = plcp[r] if r < n else 0  # the root stays open
        while stack[-1][0] > h:
            d, lo, kids = stack.pop()
            node = (lo, r, d)
            for u in kids + [last]:
                parent[u] = node
            last = node
        if stack[-1][0] < h:
            stack.append((h, last[0], [last]))
        else:
            stack[-1][2].append(last)
    root = (1, n, 0)
    for u in stack[0][2]:
        parent[u] = root
    parent[root] = None
    return parent


def kept_intervals(parent, threshold):
    """The part of an interval tree that the tray keeps, as {(lo, hi,
    depth): (parent, [children in rank order])}: the root, and below each
    heavy node (at least ``threshold`` leaves, more than one rank) all its
    children when two or more are heavy, else its one heavy child, if
    any. For n > 1 these are the heavy intervals, the children of the
    branching ones and the heavy child of each other one."""
    def heavy(v):
        return v[1] - v[0] + 1 >= threshold

    below = {}
    for v, up in sorted(parent.items()):
        if up is not None:
            below.setdefault(up, []).append(v)
    kids = {}
    for v, all_kids in below.items():
        if heavy(v) and v[0] < v[1]:
            big = [u for u in all_kids if heavy(u)]
            kids[v] = all_kids if len(big) >= 2 else big
    listed = {u: v for v, us in kids.items() for u in us}
    return {v: (listed.get(v), kids.get(v, [])) for v, up in parent.items()
            if up is None or v in listed}


def tree_intervals(tree, index):
    """A TrayTree in the shape ``kept_intervals`` returns."""
    def node(v):
        return (tree.lo[v], tree.hi[v], node_depth(tree, index, v))

    return {node(v): (None if up is None else node(up),
                      [node(u) for u in children(tree, v)])
            for v, up in enumerate(parents(tree))}
