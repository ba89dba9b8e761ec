"""Exhaustive theorem sweeps and fast-versus-oracle cross validation.

Each theorem, and each fast path with its oracle, has one per-case check
that yields its violations as dicts; the total-complexity check tests one k
per kind of violation, by the nesting lemmas in sweep_tc.  One driver,
_sweep, runs every sweep and every cross-check: it runs a check over a word
space (optionally one deterministic shard of it), seeded random words, or
seeded random generating sets; the report's summary carries the
words_checked / max_length / alphabet_size record the CLI prints, and a
cross-check's summary also a space record naming every part of the space it
drew its cases from.  Zero counterexamples is expected everywhere.  The mh,
mhgen and tc checks read f off one naive_profile per word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, TypeVar

from .algebra import GeneratorSet, length_trace
from .linalg import PrimeField, random_matrix
from .oracles import (
    DEFAULT_ENUMERATION_BUDGET,
    brute_length,
    brute_max_exponent,
    brute_min_qpt,
    check_naive_length,
    check_qpt_length,
    enumerate_words,
    naive_profile,
)
from .powers import _tc_report, max_factor_exponent
from .structure import ShapeViolation, minimal_qpt, profile_shape
from .words import Alphabet, Word, complexity_profile

# The cross-checks' fixed spaces; the CLI varies only counts, lengths and seeds.
RANDOM_ALPHABETS = (2, 3, 4)  # letters of the random words of shape and profiles
QPT_ALPHABET, QPT_RANDOM_WORDS, QPT_RANDOM_MAX_LEN = 2, 200, 30
QPT_RANDOM_ALPHABETS = (2, 3)
LENGTH_N, LENGTH_P, LENGTH_GENS, LENGTH_CAP = 2, 5, 2, 8
# Random short words, then per class this many long words: Fibonacci factors,
# near-periodic words and random 4-letter words, long enough for the
# exponent scan's band search.
EXPONENT_RANDOM_WORDS, EXPONENT_RANDOM_MAX_LEN = 300, 60
EXPONENT_LONG_WORDS, EXPONENT_LONG_LENGTHS = 4, (600, 1_000)

Case = TypeVar("Case")


@dataclass
class SweepReport:
    name: str
    alphabet_size: int
    max_length: int
    words_checked: int
    counterexamples: list[dict] = field(default_factory=list)
    space: dict | None = None

    def __post_init__(self) -> None:
        # one canonical order, so a report does not depend on the order in
        # which its words were enumerated, nor on how the space was sharded
        self.counterexamples.sort(key=lambda ce: sorted(ce.items()))

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> dict:
        out = {
            "theorem": self.name,
            "words_checked": self.words_checked,
            "max_length": self.max_length,
            "alphabet_size": self.alphabet_size,
            "counterexamples": len(self.counterexamples),
        }
        if self.space is not None:
            out["space"] = self.space
        return out


def merge_reports(parts: list[SweepReport]) -> SweepReport:
    """Merge shard reports: counts add, counterexamples concatenate (the
    report puts them in canonical order)."""
    if not parts:
        raise ValueError("nothing to merge")
    head = parts[0]
    return SweepReport(
        head.name,
        head.alphabet_size,
        head.max_length,
        sum(p.words_checked for p in parts),
        [ce for part in parts for ce in part.counterexamples],
        head.space,
    )


def _sweep(name: str, alphabet_size: int, max_len: int, cases: Iterator[Case],
           check: Callable[[Case], Iterator[dict]], space: dict | None = None) -> SweepReport:
    """Count every case and collect the counterexamples check yields for it."""
    checked = 0
    bad: list[dict] = []
    for case in cases:
        checked += 1
        bad += check(case)
    return SweepReport(name, alphabet_size, max_len, checked, bad, space)


def _random_space(count: int, max_len: int, sizes: tuple[int, ...]) -> dict:
    return {"words": count, "max_length": max_len, "alphabet_sizes": list(sizes)}


def _random_words(rng: random.Random, count: int, max_len: int,
                  sizes: tuple[int, ...]) -> Iterator[Word]:
    for _ in range(count):
        k = rng.choice(sizes)
        l = rng.randint(1, max_len)
        yield Word(tuple(rng.randrange(k) for _ in range(l)), Alphabet.letters(k))


def _check_mh(w: Word) -> Iterator[dict]:
    cost = minimal_qpt(w).cost
    counts = naive_profile(w).counts
    for n in range(1, len(w) // 2 + 1):
        if (counts[n] <= n) != (cost <= n):
            yield {"word": w.render(), "n": n, "f": counts[n], "cost": cost}


def sweep_mh(
    alphabet_size: int,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    shard: tuple[int, int] | None = None,
) -> SweepReport:
    """Check f(n) <= n iff min decomposition cost <= n, for every word and
    every n in [1, l/2], f read off naive_profile (so max_len <= its cap)."""
    check_naive_length(max_len)
    words = enumerate_words(alphabet_size, max_len, shard, budget)
    return _sweep("mh", alphabet_size, max_len, words, _check_mh)


def _check_mhgen(w: Word) -> Iterator[dict]:
    l = len(w)
    cost = minimal_qpt(w).cost
    counts = naive_profile(w).counts
    peak = max(counts)
    for m in range(1, l // 2 + 1):
        rhs = cost <= m
        for n in range(m, l - m + 1):
            lhs = counts[n] <= m
            if lhs != rhs:
                yield {"kind": "equivalence", "word": w.render(), "n": n, "m": m,
                       "f": counts[n], "cost": cost}
            if lhs and peak > m:
                yield {"kind": "corollary", "word": w.render(), "n": n, "m": m,
                       "peak": peak}


def sweep_mh_general(
    alphabet_size: int,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    shard: tuple[int, int] | None = None,
) -> SweepReport:
    """Check f(n) <= m iff cost <= m over every window m <= n <= l - m, and
    that f(n) <= m forces max_i f(i) <= m."""
    check_naive_length(max_len)
    words = enumerate_words(alphabet_size, max_len, shard, budget)
    return _sweep("mhgen", alphabet_size, max_len, words, _check_mhgen)


def _check_tc(w: Word) -> Iterator[dict]:
    l = len(w)
    exp, _ = max_factor_exponent(w)
    counts = naive_profile(w).counts
    k = min(l // 2, (l * exp.den - 1) // exp.num)  # K of Lemma A
    if k >= 1:
        r = _tc_report(counts, k, exp)
        if not r.all_ok:
            yield {"kind": "theorem", "word": w.render(), "k": k, "c": r.c,
                   "bound": r.bound, "lemmas": [r.lemma1_ok, r.lemma2_ok, r.lemma3_ok]}
    d = -(-exp.num // exp.den)
    k = min(l // 2, (l - 1) // d)  # k* of Lemma B
    c, bound = sum(counts), (k + 1) * (l - k + 1)
    if k >= 1 and c < bound:
        yield {"kind": "integer", "word": w.render(), "k": k, "d": d, "c": c,
               "bound": bound}


def sweep_tc(
    alphabet_size: int,
    max_len: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    shard: tuple[int, int] | None = None,
) -> SweepReport:
    """Total-complexity bound c >= (k+1)(l-k+1), checked once per word and
    kind, with d the word's exact maximal exponent e = num/den.

    Lemma A (nesting): with K = min(l // 2, (l*den - 1) // num), the largest
    k with 2k <= l and l > k*e, passing lemmas 1-3 and the bound at K implies
    passing them at every 1 <= k <= K.  Lemmas 1 and 3 at k test sub-ranges
    of theirs at K; on [k, l - k], f(n) >= k + 1 follows from lemmas 1, 2, 3
    at K below K, on [K, l - K] and above l - K; and (k+1)(l-k+1) rises up
    to l/2.  Lemma B (integer d): the bound does not depend on d, and
    k <= (l - 1) // d is admissible for each d >= ceil(e), most at ceil(e);
    the bound is symmetric about l/2, so some (k, d) fails exactly when c is
    below it at k* = min(l // 2, (l - 1) // ceil(e)).
    """
    check_naive_length(max_len)
    words = enumerate_words(alphabet_size, max_len, shard, budget)
    return _sweep("tc", alphabet_size, max_len, words, _check_tc)


def _check_shape(w: Word) -> Iterator[dict]:
    try:
        profile_shape(w)
    except ShapeViolation as exc:
        yield {"word": w.render(), "n": exc.n, "counts": list(exc.counts)}


def sweep_profile_shape(count: int, max_len: int, seed: int = 0) -> SweepReport:
    """Random words must never violate the three-phase profile shape."""
    words = _random_words(random.Random(seed), count, max_len, RANDOM_ALPHABETS)
    space = {"random": _random_space(count, max_len, RANDOM_ALPHABETS)}
    return _sweep("shape", max(RANDOM_ALPHABETS), max_len, words, _check_shape, space)


def _check_profiles(w: Word) -> Iterator[dict]:
    fast = complexity_profile(w)
    slow = naive_profile(w)
    if fast != slow:
        yield {"word": w.render(), "fast": list(fast.counts), "naive": list(slow.counts)}


def cross_validate_profiles(count: int, max_len: int, seed: int = 0) -> SweepReport:
    """Suffix-automaton profile versus substring-set profile, exact."""
    check_naive_length(max_len)
    words = _random_words(random.Random(seed), count, max_len, RANDOM_ALPHABETS)
    space = {"random": _random_space(count, max_len, RANDOM_ALPHABETS)}
    return _sweep("profiles", max(RANDOM_ALPHABETS), max_len, words, _check_profiles, space)


def _check_qpt(w: Word) -> Iterator[dict]:
    fast = minimal_qpt(w)
    slow = brute_min_qpt(w)
    if fast != slow:
        yield {"word": w.render(), "fast": str(fast), "brute": str(slow)}


def cross_validate_qpt(max_len: int, seed: int = 0) -> SweepReport:
    """Longest-repeat decomposition (min cost = l - R, R read off the suffix
    automaton) versus the exhaustive (q, p, t) scan: every binary word up to
    max_len, then QPT_RANDOM_WORDS random longer words over 2 or 3 letters.
    The length and the enumeration budget are checked when it is called."""
    check_qpt_length(max_len)
    words = chain(
        enumerate_words(QPT_ALPHABET, max_len),
        _random_words(random.Random(seed), QPT_RANDOM_WORDS, QPT_RANDOM_MAX_LEN,
                      QPT_RANDOM_ALPHABETS),
    )
    space = {
        "exhaustive": {"alphabet_size": QPT_ALPHABET, "max_length": max_len},
        "random": _random_space(QPT_RANDOM_WORDS, QPT_RANDOM_MAX_LEN, QPT_RANDOM_ALPHABETS),
    }
    return _sweep("qpt", QPT_ALPHABET, max_len, words, _check_qpt, space)


def _check_length(S: GeneratorSet) -> Iterator[dict]:
    # Every level of a trace adds a dimension, from 1 up to at most n^2 = 4,
    # so l(S) <= 3 < LENGTH_CAP: neither side raises CapExceeded, and the
    # |S|^LENGTH_CAP = 256 words stay inside brute_length's budget.
    fast = length_trace(S, max_len=LENGTH_CAP)
    slow = brute_length(S, cap=LENGTH_CAP)
    if fast != slow:
        yield {"gens": [list(g.entries) for g in S.gens],
               "fast": str(fast), "brute": str(slow)}


def cross_validate_length(count: int = 50, seed: int = 0) -> SweepReport:
    """Frontier-cached length trace versus the from-scratch oracle, dims and
    minimal irreducible words, on count seeded random pairs of 2 x 2
    matrices over GF(5)."""
    rng = random.Random(seed)
    field_ = PrimeField(LENGTH_P)
    sets = (
        GeneratorSet(field_, LENGTH_N,
                     tuple(random_matrix(field_, LENGTH_N, rng) for _ in range(LENGTH_GENS)))
        for _ in range(count)
    )
    space = {"n": LENGTH_N, "p": LENGTH_P, "generators": LENGTH_GENS, "cap": LENGTH_CAP,
             "sets": count}
    return _sweep("length", LENGTH_N, LENGTH_CAP, sets, _check_length, space)


def _check_exponent(w: Word) -> Iterator[dict]:
    fast = max_factor_exponent(w)
    slow = brute_max_exponent(w)
    if fast != slow:
        yield {"word": w.render(), "fast": [str(fast[0]), list(fast[1])],
               "brute": [str(slow[0]), list(slow[1])]}


def _long_words(rng: random.Random, count: int, lengths: tuple[int, int]) -> Iterator[Word]:
    """count rounds of three words of seeded lengths in [lo, hi]: a factor of
    the Fibonacci word at an offset below 1000; a block of 2-15 letters over
    2 or 3 letters, repeated, with 1-3 letters changed; a random word over 4
    letters."""
    for _ in range(count):
        length, offset = rng.randint(*lengths), rng.randrange(1000)
        a, b = (0,), (0, 1)
        while len(b) < offset + length:
            a, b = b, b + a
        yield Word(b[offset : offset + length], Alphabet.letters(2))
        k, length = rng.choice((2, 3)), rng.randint(*lengths)
        block = [rng.randrange(k) for _ in range(rng.randint(2, 15))]
        letters = [block[i % len(block)] for i in range(length)]
        for _ in range(rng.randint(1, 3)):
            letters[rng.randrange(length)] = rng.randrange(k)
        yield Word(tuple(letters), Alphabet.letters(k))
        length = rng.randint(*lengths)
        yield Word(tuple(rng.randrange(4) for _ in range(length)), Alphabet.letters(4))


def cross_validate_exponent(seed: int = 0) -> SweepReport:
    """Mask-and-band exponent scan versus the border-array oracle, exact
    value, unreduced num/den and witness: EXPONENT_RANDOM_WORDS random words
    over 2-4 letters, which the mask scans alone, then EXPONENT_LONG_WORDS
    words of each long class, whose long periods the band search scans."""
    rng = random.Random(seed)
    words = chain(
        _random_words(rng, EXPONENT_RANDOM_WORDS, EXPONENT_RANDOM_MAX_LEN, RANDOM_ALPHABETS),
        _long_words(rng, EXPONENT_LONG_WORDS, EXPONENT_LONG_LENGTHS),
    )
    lo, hi = EXPONENT_LONG_LENGTHS
    space = {
        "random": _random_space(EXPONENT_RANDOM_WORDS, EXPONENT_RANDOM_MAX_LEN, RANDOM_ALPHABETS),
        "long": {"fibonacci_factors": EXPONENT_LONG_WORDS,
                 "near_periodic": EXPONENT_LONG_WORDS,
                 "random_4_letters": EXPONENT_LONG_WORDS,
                 "min_length": lo, "max_length": hi},
    }
    return _sweep("exponent", max(RANDOM_ALPHABETS), hi, words, _check_exponent, space)
