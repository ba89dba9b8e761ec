"""Periods, exact rational factor exponents, and power avoidance.

Exponents are kept as unreduced integer pairs (factor length, minimal
period) and compared by cross-multiplication or as ``fractions.Fraction``;
no floating point enters this module because the d versus d-plus
distinctions are knife-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import Word, border_array, complexity_profile


class EmptyWord(ValueError):
    """Operation undefined for the empty word."""


class InvalidExponent(ValueError):
    """Avoidance exponents must be >= 1."""


class HypothesisUnmet(ValueError):
    """A stated hypothesis of the bound does not hold; .which names it."""

    def __init__(self, which: str) -> None:
        super().__init__(f"hypothesis not satisfied: {which}")
        self.which = which


@dataclass(frozen=True)
class Exponent:
    """Exact factor exponent: length num over minimal period den."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if not 1 <= self.den <= self.num:
            raise ValueError(f"exponent needs 1 <= den <= num, got {self.num}/{self.den}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class TcReport:
    """Outcome of the total-complexity lower-bound checks.

    Lemma flags are None when the lemma hypotheses do not apply (the
    integer-d variant admits k > l/2, where the per-range lemmas say
    nothing).
    """

    l: int
    k: int
    d: Exponent
    lemma1_ok: bool | None
    lemma2_ok: bool | None
    lemma3_ok: bool | None
    theorem_ok: bool
    c: int
    bound: int

    @property
    def all_ok(self) -> bool:
        flags = (self.lemma1_ok, self.lemma2_ok, self.lemma3_ok)
        return self.theorem_ok and all(f is not False for f in flags)


def minimal_period(w: Word) -> int:
    """Smallest p >= 1 with w[i] == w[i+p] wherever both sides exist."""
    l = len(w)
    if l == 0:
        raise EmptyWord("minimal_period of the empty word")
    return l - border_array(w.letters)[l - 1]


def max_factor_exponent(w: Word) -> tuple[Exponent, tuple[int, int]]:
    """Largest length/period ratio over all non-empty factors.

    Returns the exponent unreduced plus the witness span [start, end);
    ties go to the leftmost witness, then the shortest.  One border array
    per start position makes this O(l^2).
    """
    l = len(w)
    if l == 0:
        raise EmptyWord("max_factor_exponent of the empty word")
    letters = w.letters
    best_num, best_den = 1, 1
    best_span = (0, 1)
    for start in range(l):
        sub = letters[start:]
        n = len(sub)
        pi = [0] * n
        k = 0
        for i in range(1, n):
            a = sub[i]
            while k and sub[k] != a:
                k = pi[k - 1]
            if sub[k] == a:
                k += 1
            pi[i] = k
            length = i + 1
            period = length - k
            if length * best_den > best_num * period:
                best_num, best_den = length, period
                best_span = (start, start + length)
    return Exponent(best_num, best_den), best_span


def avoids(w: Word, d: Fraction | int, strict_plus: bool) -> bool:
    """Power-freeness of w.

    strict_plus=True tests d-plus-power-freeness (no factor exponent
    strictly above d); strict_plus=False tests d-power-freeness (every
    factor exponent strictly below d).
    """
    bound = Fraction(d)
    if bound < 1:
        raise InvalidExponent(f"exponent must be >= 1, got {d}")
    if len(w) == 0:
        return True
    exp, _ = max_factor_exponent(w)
    return exp.value <= bound if strict_plus else exp.value < bound


def _lemma_flags(counts: tuple[int, ...], l: int, k: int) -> tuple[bool, bool, bool]:
    lemma1 = all(counts[n] >= n + 1 for n in range(k + 1))
    lemma2 = all(counts[n] >= k + 1 for n in range(k, l - k + 1))
    lemma3 = all(counts[n] == l - n + 1 for n in range(l - k, l + 1))
    return lemma1, lemma2, lemma3


def _tc_report(w: Word, k: int, d: Exponent) -> TcReport:
    """c >= (k+1)(l-k+1), with the lemma flags where 1 <= k <= l/2."""
    l = len(w)
    counts = complexity_profile(w).counts
    c = sum(counts)
    bound = (k + 1) * (l - k + 1)
    if k >= 1 and 2 * k <= l:
        lemma1, lemma2, lemma3 = _lemma_flags(counts, l, k)
    else:
        lemma1 = lemma2 = lemma3 = None
    return TcReport(l, k, d, lemma1, lemma2, lemma3, c >= bound, c, bound)


def verify_tc(w: Word, k: int) -> TcReport:
    """Total-complexity bound with d set to the word's own max exponent.

    Hypotheses: k >= 1, k <= l/2, and l > k*d where d is the exact maximal
    factor exponent (the tightest admissible choice).  Checks the three
    per-range lemmas and the bound c >= (k+1)(l-k+1).
    """
    l = len(w)
    if l == 0:
        raise EmptyWord("verify_tc of the empty word")
    if k < 1:
        raise HypothesisUnmet("k >= 1")
    if 2 * k > l:
        raise HypothesisUnmet("k <= l/2")
    exp, _ = max_factor_exponent(w)
    if l * exp.den <= k * exp.num:
        raise HypothesisUnmet("l > k*d")
    return _tc_report(w, k, exp)


def verify_tc_integer(w: Word, k: int, d: int) -> TcReport:
    """Integer-d variant: requires d-plus-freeness and l > k*d, but not
    k <= l/2.  Lemma flags are filled only where their hypotheses hold."""
    l = len(w)
    if l == 0:
        raise EmptyWord("verify_tc_integer of the empty word")
    if d < 1:
        raise HypothesisUnmet("d >= 1")
    if k < 0:
        raise HypothesisUnmet("k >= 0")
    if not avoids(w, d, strict_plus=True):
        raise HypothesisUnmet("w avoids d+ powers")
    if l <= k * d:
        raise HypothesisUnmet("l > k*d")
    return _tc_report(w, k, Exponent(d, 1))
