import random

import pytest

from pstray.alphabet import AlphabetSpec, ingest
from pstray.encoding import STATIC_BASE, prev_char_in_window
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


def random_pattern(rng: random.Random, text, max_m=14):
    """Half window-with-renaming, half random over the text's tokens."""
    tokens = sorted(text.tok2id)
    pi_toks = sorted(t for t in tokens if text.spec.is_parameterized(t))
    if rng.random() < 0.5 and text.n > 2:
        m = rng.randint(1, min(max_m, text.n - 1))
        start = rng.randint(1, text.n - m)
        window = [text.id2tok[c] for c in
                  text.symbol_array[start - 1:start - 1 + m].tolist()]
        shuffled = pi_toks[:]
        rng.shuffle(shuffled)
        renaming = dict(zip(pi_toks, shuffled))
        return "".join(renaming.get(c, c) for c in window)
    m = rng.randint(1, max_m)
    return "".join(rng.choice(tokens) for _ in range(m))


@pytest.fixture(scope="session")
def demo_text():
    return make_text(DEMO_TEXT, pi="xyz", sigma="A")


@pytest.fixture(scope="session")
def demo_index(demo_text):
    return assemble(demo_text)


# ------------------------------------------------ tree helpers

def is_leaf(tree, v):
    """A block of one rank below the root is that rank's suffix."""
    return v != tree.root and tree.lo[v] == tree.hi[v]


def leaf_count(tree, v):
    return tree.hi[v] - tree.lo[v] + 1


def edge_length(tree, v):
    return tree.depth[v] - tree.depth[tree.parent[v]]


def node_label(tree, index, v):
    """Full root-to-node label of node v as encoded symbol codes, read
    through its leftmost suffix."""
    start = index.starts[tree.lo[v] - 1]
    return tuple(prev_char_in_window(index.codes, start, d)
                 for d in range(1, tree.depth[v] + 1))


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
    depth): (parent, [children in rank order])}: the root and every child
    of a heavy node (at least ``threshold`` leaves) that holds more than
    one rank; only those heavy nodes list their children. Every heavy node
    but the root is the child of a larger one, so for n > 1 these are the
    heavy nodes and their children."""
    def lists(v):
        return v[0] < v[1] and v[1] - v[0] + 1 >= threshold

    kids = {}
    for v, up in sorted(parent.items()):
        if up is not None and lists(up):
            kids.setdefault(up, []).append(v)
    return {v: (up, kids.get(v, [])) for v, up in parent.items()
            if up is None or lists(up)}


def tree_intervals(tree):
    """A TrayTree in the shape ``kept_intervals`` returns."""
    def node(v):
        return (tree.lo[v], tree.hi[v], tree.depth[v])

    return {node(v): (None if v == tree.root else node(tree.parent[v]),
                      [node(u) for u in tree.children(v)])
            for v in range(tree.size)}
