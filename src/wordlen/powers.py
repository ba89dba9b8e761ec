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

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .words import Word, complexity_profile


# The smallest block, in letters, from which periods are scanned by the band
# search rather than by the mismatch mask (see max_factor_exponent).
WINDOW_LETTERS_MIN = 32

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
    reach the best exponent num/den (l * den >= num * p).  Let
    m[i] = (w[i] != w[i+p]) for 0 <= i < l - p.  A maximal zero run [i, e)
    of m is the factor [i, e + p) of exponent (e - i + p) / p, which matches
    or beats the best iff e - i >= need = ceil((num - den) * p / den).  Every
    best witness is a maximal run of its minimal period (a longer run would
    beat it, a smaller period would give a larger exponent), so taking a
    strictly larger value, or an equal value with a smaller (start,
    length), gives the same witness as a scan of all factors.  That
    comparison with the current best is the one filter on runs; need only
    says where to look.  The word is packed into bytes, s per letter (s the
    byte width of its largest letter id; ``bytes(letters)`` when s = 1), and
    the runs are found in one of two ways:

    - Mask, one period at a time: the packed word read as one big int gives
      m from one XOR with the int shifted by p slots: OR-folding each slot's
      bytes into its low byte and mapping nonzero bytes to 1 leaves one mask
      byte per position, and ``bytes.find`` skips the runs shorter than
      need.  When a run [i, e) becomes the best, every later run of p
      starts further right, so only a strictly longer one can win, and need
      becomes e - i + 1 for the rest of the period.  This is O(l) byte work
      per period.
    - Bands, once g = need // 2 >= WINDOW_LETTERS_MIN: the periods are
      scanned in doubling bands [P, hi), hi = min(2P, l * den // num + 1),
      each with g fixed from need at P and the best at the band's start.
      need grows with both p and the best, so a run [i, e) of the band that
      can still match the best has e - i >= need >= 2g and holds the whole
      block w[j:j+g] at the first multiple j of g at or after i, which ends
      before i + 2g.  For each block, repeated ``bytes.find`` calls on the
      packed word return every distance p in the band at which its bytes
      recur, and each hit is widened to its maximal run (see _band_runs).
      This is O(l / g) searches per band, each over about P + g letters,
      in C.  The loop runs only while p <= l * den // num, so hi > p and
      the next band starts further on.  No band needs a cut at l - 2g:
      need <= ceil((num - den) * l / num) = l - l * den // num, so every
      period below hi is at most l - need <= l - 2g.

    A band yields every maximal run that holds one of its blocks, so every
    run that can still match the best.  The runs are compared in a strict
    total order (value, then smaller start, then smaller length), so the
    order in which they come does not change the result: the unreduced
    num/den and the witness are those of the mask alone.

    WINDOW_LETTERS_MIN is read at call time.  A word of at most twice its
    value never reaches the bands, since need <= l - p.  Whole scans with
    the constant at 16/24/32/48/64/96 (best of 10 on CI's long words and of
    40 at 1,500-2,000 letters; CPython 3.11, 2-core Xeon, shared host): the
    Fibonacci, square-free ternary, random binary, two-byte and Thue-Morse
    words that CI pins took 32/29/26/23/25/28 ms, 37/33/32/34/38/48 ms,
    8.0/7.4/7.4/7.0/7.2/7.6 ms, 23/22/21/22/24/28 ms and 70/59/62/60/68/73
    ms; the benchmark's random word of 2,000 letters over 4 letters and
    Fibonacci factor of 1,500 took 0.17/0.16/0.17/0.19/0.20/0.26 ms and
    0.43/0.40/0.34/0.32/0.38/0.44 ms.  32 was within 11 % of the fastest
    on every word.
    """
    l = len(w)
    if l == 0:
        raise ValueError("max_factor_exponent of the empty word")
    window_min = WINDOW_LETTERS_MIN
    s = (max(w.letters).bit_length() + 7) // 8 or 1
    if s == 1:
        packed = bytes(w.letters)
    else:
        packed = b"".join(map(int.to_bytes, w.letters, repeat(s), repeat("little")))
    big = int.from_bytes(packed, "little")
    folds = range(8, 8 * s, 8)
    best_num, best_den = 1, 1
    best_start, best_len = 0, 1
    p = 1
    while p < l and l * best_den >= best_num * p:
        need = max(1, -(-(best_num - best_den) * p // best_den))
        g = need // 2
        if g >= window_min:
            hi = min(2 * p, l * best_den // best_num + 1)
            for i, e, q in _band_runs(packed, s, l, p, hi, g):
                length = e - i + q
                gain = length * best_den - best_num * q
                if gain > 0 or (gain == 0 and (i, length) < (best_start, best_len)):
                    best_num, best_den = length, q
                    best_start, best_len = i, length
            p = hi
            continue
        # the mask's runs are taken inline, with no list or call per period:
        # a short word's whole scan is a few periods of such overhead
        x = diff = big ^ (big >> 8 * s * p)
        for shift in folds:
            x |= diff >> shift
        mask = x.to_bytes(s * l, "little")[: s * (l - p) : s].translate(_NONZERO_TO_ONE)
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
                # later runs of p start further right: only a longer one wins
                need = e - i + 1
                zeros = bytes(need)
            i = mask.find(zeros, e + 1)
        p += 1
    return Exponent(best_num, best_den), (best_start, best_start + best_len)


def _band_runs(packed: bytes, s: int, l: int, lo: int, hi: int,
               g: int) -> Iterator[tuple[int, int, int]]:
    """Every maximal run [i, e) of the mask of a period lo <= p < hi that
    holds a block of g letters at a multiple of g, as (i, e, p).  It applies
    no threshold: the caller's comparison with its best is the one filter.
    Hits between letter slots and hits inside the run last widened at their
    period are skipped; every other hit is widened by bit scans, over the
    <= g letters before the block and over doubling blocks after it."""
    sg, reach = s * g, s * (hi - 1 + g)
    ends: dict[int, int] = {}  # period -> end of the run last widened at it
    for a in range(0, s * (l - lo - g + 1), sg):
        j = a // s
        block = packed[a : a + sg]
        k = packed.find(block, a + s * lo, a + reach)
        while k >= 0:
            sp = k - a
            p = sp // s
            # a hit between letter slots, or inside the run last widened at
            # p, gives no new run
            if sp % s == 0 and j >= ends.get(p, 0):
                # m has a one in [j - g, j) when j >= g: block j - g was
                # searched at p in this band and did not recur there, or else
                # this block would lie inside its run.  The XOR of two letter
                # ranges, each read as one int, has its highest set bit at
                # their last mismatch and its lowest at their first, and byte
                # offset // s is that mismatch's letter; an XOR of 0 (j = 0)
                # gives bit_length() - 1 = -1, so the run starts at 0.
                left = s * max(0, j - g)
                x = (int.from_bytes(packed[left:a], "little")
                     ^ int.from_bytes(packed[left + sp : k], "little"))
                i = (left + (x.bit_length() - 1) // 8) // s + 1
                span = l - p
                e, step = j + g, g
                while e < span:
                    top = min(e + step, span)
                    x = (int.from_bytes(packed[s * e : s * top], "little")
                         ^ int.from_bytes(packed[s * e + sp : s * top + sp], "little"))
                    if x:
                        e += ((x & -x).bit_length() - 1) // 8 // s
                        break
                    e, step = top, 2 * step
                ends[p] = e
                yield i, e, p
            k = packed.find(block, k + 1, a + reach)


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
