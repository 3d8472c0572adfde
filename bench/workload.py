"""One workload as the library sees it, and the checked operations on it.

Every build, save, load and query goes through ``Workload`` so that each is
counted as attempted, and as failed when it raises or answers wrongly.
"""

from __future__ import annotations

import math
import sys
import time

import corpora
import reference

clock = time.perf_counter_ns

# The benchmark runs on small shared machines whose speed, set by other
# tenants, swings by up to 1.8x, both from one 50 ms to the next and over
# spells of tens of seconds. A run therefore probes the speed with a fixed
# pure-Python loop between its timed steps, and reports its times scaled by
# PROBE_REF_NS / (mean probe time): the time they would take at the
# reference speed. The probe does not touch the program, so a change to the
# program moves the scaled times as much as the raw ones.
PROBE_ITEMS = 20_000
PROBE_REF_NS = 5_500_000
PROBE_WINDOW_NS = 50_000_000


class SpeedProbe:
    """Machine-speed samples taken between the timed steps of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> None:
        """Record the mean time of one run of a fixed allocation, dict and
        sort workload (like the program's, mostly small Python objects),
        over as many runs as fit in PROBE_WINDOW_NS."""
        runs = 0
        start = clock()
        while True:
            items = [(i * 7919) % 100_003 for i in range(PROBE_ITEMS)]
            counts: dict[int, int] = {}
            for x in items:
                counts[x] = counts.get(x, 0) + 1
            items.sort()
            runs += 1
            elapsed = clock() - start
            if elapsed >= PROBE_WINDOW_NS:
                self.samples.append(elapsed / runs)
                return

    def scale(self) -> float:
        """Factor that turns a time measured during the probes into a time
        at the reference speed."""
        return PROBE_REF_NS * len(self.samples) / sum(self.samples)


def percentile(sorted_samples: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


def format_metrics(metrics: dict[str, tuple[float, str]],
                   notes: dict[str, str] | None = None) -> list[str]:
    """One readable line per metric: name, value, unit and a note."""
    notes = notes or {}
    return [f"{name:<30} {value:>14.6g} {unit:<11} {notes.get(name, '')}"
            for name, (value, unit) in metrics.items()]


class Workload:
    """A generated corpus in the form the library takes, with the expected
    answer of every pattern and the tally of attempted and failed ops."""

    def __init__(self, pstray, name: str, seed: int, scale: float):
        corpus = corpora.WORKLOADS[name](seed, scale)
        self.pstray = pstray
        self.corpus = corpus
        self.spec = pstray.AlphabetSpec(pi_members=corpus.pi,
                                        sigma_members=corpus.sigma,
                                        mode=corpus.mode)
        self.raw = corpus.join(corpus.text)
        self.patterns = [corpus.join(p) for p in corpus.patterns]
        self.expected = reference.expected_answers(corpus.text,
                                                   corpus.patterns, corpus.pi)
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args):
        """Run one build, save or load; count it, and count it failed (and
        return None) when it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted against failed_ops_frac
            self.failed += 1
            print(f"bench: {getattr(fn, '__name__', fn)} raised {exc!r}",
                  file=sys.stderr)
            return None

    def timed(self, fn, *args):
        """``op`` with its wall time: (ns, result)."""
        start = clock()
        out = self.op(fn, *args)
        return clock() - start, out

    def build(self):
        """One timed ``ingest`` + ``assemble`` from the raw text: (ns,
        index), the index None when either raised."""
        start = clock()
        text = self.op(self.pstray.ingest, self.raw, self.spec)
        index = self.op(self.pstray.assemble, text) if text is not None else None
        return clock() - start, index

    def query(self, index, j: int):
        """Pattern ``j`` on the index, checked against its expected answer:
        (elapsed ns, answer, QueryStats), or None when the query raised or
        answered wrongly."""
        self.attempted += 1
        start = clock()
        try:
            got, stats = index.query(self.patterns[j])
        except Exception as exc:  # counted against failed_ops_frac
            self.failed += 1
            print(f"bench: query {self.patterns[j]!r} raised {exc!r}",
                  file=sys.stderr)
            return None
        elapsed = clock() - start
        if got != self.expected[j]:
            self.failed += 1
            print(f"bench: query {self.patterns[j]!r} answered wrongly",
                  file=sys.stderr)
            return None
        return elapsed, got, stats
