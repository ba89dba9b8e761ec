"""Exact rational factor exponents, power avoidance, and the
total-complexity lower bound.

Exponents are kept as unreduced integer pairs (factor length, minimal
period) and compared by cross-multiplication or as ``fractions.Fraction``;
no floating point enters this module because the d versus d-plus
distinctions are knife-edge.  The bound c >= (k+1)(l-k+1) is checked with
d the word's own maximal exponent (verify_tc); the integer-d variant is
swept word by word in ``verify.sweep_tc``, by its Lemma B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .words import Word, complexity_profile


_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255


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
    """Outcome of the total-complexity lower-bound checks at one
    1 <= k <= l/2: the three per-range lemmas and the bound itself."""

    l: int
    k: int
    d: Exponent
    lemma1_ok: bool
    lemma2_ok: bool
    lemma3_ok: bool
    theorem_ok: bool
    c: int
    bound: int

    @property
    def all_ok(self) -> bool:
        return self.theorem_ok and self.lemma1_ok and self.lemma2_ok and self.lemma3_ok


def max_factor_exponent(w: Word) -> tuple[Exponent, tuple[int, int]]:
    """Largest length/period ratio over all non-empty factors.

    Returns the exponent unreduced (length over minimal period) plus the
    witness span [start, end); ties go to the leftmost witness, then the
    shortest.  A word with no repeated letter gives 1/1 at [0, 1).

    Periods p = 1, 2, ... are scanned while a factor of period p can still
    reach the best exponent num/den (l * den >= num * p).  The word is
    packed into one big int, s bytes per letter (s the byte width of its
    largest letter id), so for each p the mismatch mask
    m[i] = (w[i] != w[i+p]) comes from one XOR with the int shifted by p
    slots: OR-folding each slot's bytes into its low byte and mapping
    nonzero bytes to 1 leaves one mask byte per position.  A
    maximal zero run [i, e) of m is the factor [i, e + p) of exponent
    (e - i + p) / p, and only runs of at least (num - den) * p / den zeros
    can match or beat the best, so ``bytes.find`` skips the rest.  Every
    best witness is a maximal run of its minimal period (a longer run would
    beat it, a smaller period would give a larger exponent), so taking a
    strictly larger value, or an equal value with a smaller (start, length),
    gives the same witness as a scan of all factors.
    """
    l = len(w)
    if l == 0:
        raise ValueError("max_factor_exponent of the empty word")
    s = (max(w.letters).bit_length() + 7) // 8 or 1
    packed = b"".join(map(int.to_bytes, w.letters, repeat(s), repeat("little")))
    big = int.from_bytes(packed, "little")
    folds = range(8, 8 * s, 8)
    best_num, best_den = 1, 1
    best_start, best_len = 0, 1
    p = 1
    while p < l and l * best_den >= best_num * p:
        x = diff = big ^ (big >> 8 * s * p)
        for shift in folds:
            x |= diff >> shift
        mask = x.to_bytes(s * l, "little")[: s * (l - p) : s].translate(_NONZERO_TO_ONE)
        need = max(1, -(-(best_num - best_den) * p // best_den))
        zeros = bytes(need)
        i = mask.find(zeros)
        while i >= 0:
            e = mask.find(1, i + need)
            if e < 0:
                e = len(mask)
            length = e - i + p
            gain = length * best_den - best_num * p
            if gain > 0 or (gain == 0 and (i, length) < (best_start, best_len)):
                best_num, best_den = length, p
                best_start, best_len = i, length
            i = mask.find(zeros, e + 1)
        p += 1
    return Exponent(best_num, best_den), (best_start, best_start + best_len)


def avoids(w: Word, d: Fraction | int, strict_plus: bool) -> bool:
    """Power-freeness of w.

    strict_plus=True tests d-plus-power-freeness (no factor exponent
    strictly above d); strict_plus=False tests d-power-freeness (every
    factor exponent strictly below d).
    """
    bound = Fraction(d)
    if bound < 1:
        raise ValueError(f"exponent must be >= 1, got {d}")
    if len(w) == 0:
        return True
    exp, _ = max_factor_exponent(w)
    return exp.value <= bound if strict_plus else exp.value < bound


def _tc_report(counts: tuple[int, ...], k: int, d: Exponent) -> TcReport:
    """c >= (k+1)(l-k+1) for the counts f(0..l), with the per-range lemma
    flags.  The caller guarantees 1 <= k <= l/2, where all three lemmas
    apply."""
    l = len(counts) - 1
    c = sum(counts)
    bound = (k + 1) * (l - k + 1)
    lemma1 = all(counts[n] >= n + 1 for n in range(k + 1))
    lemma2 = all(counts[n] >= k + 1 for n in range(k, l - k + 1))
    lemma3 = all(counts[n] == l - n + 1 for n in range(l - k, l + 1))
    return TcReport(l, k, d, lemma1, lemma2, lemma3, c >= bound, c, bound)


def verify_tc(w: Word, k: int) -> TcReport:
    """Total-complexity bound with d set to the word's own max exponent.

    Hypotheses: k >= 1, k <= l/2, and l > k*d where d is the exact maximal
    factor exponent (the tightest admissible choice).  Checks the three
    per-range lemmas and the bound c >= (k+1)(l-k+1).
    """
    l = len(w)
    if l == 0:
        raise ValueError("verify_tc of the empty word")
    if k < 1:
        raise ValueError("hypothesis not satisfied: k >= 1")
    if 2 * k > l:
        raise ValueError("hypothesis not satisfied: k <= l/2")
    exp, _ = max_factor_exponent(w)
    if l * exp.den <= k * exp.num:
        raise ValueError("hypothesis not satisfied: l > k*d")
    return _tc_report(complexity_profile(w).counts, k, exp)
