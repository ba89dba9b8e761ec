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


# The smallest window, in letters, at which a period is scanned by sampled
# windows rather than by the mismatch mask (see max_factor_exponent).
WINDOW_LETTERS_MIN = 96

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
    of m is the factor [i, e + p) of exponent (e - i + p) / p, and only
    runs of at least need = ceil((num - den) * p / den) zeros can match or
    beat the best.  Every best witness is a maximal run of its minimal
    period (a longer run would beat it, a smaller period would give a
    larger exponent), so taking a strictly larger value, or an equal value
    with a smaller (start, length), gives the same witness as a scan of all
    factors.  The runs of one period are found in one of two ways, which
    yield the same runs:

    - Mask: the word is packed into one big int, s bytes per letter (s the
      byte width of its largest letter id), so m comes from one XOR with
      the int shifted by p slots: OR-folding each slot's bytes into its low
      byte and mapping nonzero bytes to 1 leaves one mask byte per
      position, and ``bytes.find`` skips the runs shorter than need.  This
      is O(l) byte work per period.
    - Windows, once g = need // 2 >= WINDOW_LETTERS_MIN: compare only the
      windows w[j:j+g] and w[j+p:j+p+g] at j = 0, g, 2g, ... (one ``bytes``
      slice comparison each) and widen each equal pair to its maximal run
      by bit scans.  The run starts one letter after the highest set bit
      of the XOR of the <= g letters before the window with the letters p
      later (at their start if it is 0), and ends at the lowest set bit of
      the first nonzero XOR of doubling blocks after the window.  A run
      [i, e) with e - i >= need >= 2g holds the whole window at the first
      multiple of g at or after i, which ends before i + 2g, so no run is
      missed.  This is O(l / g) comparisons per period.

    WINDOW_LETTERS_MIN is read at call time.  A word of at most twice its
    value never reaches the windows, since need <= l - p.  Per period, a
    window costs about 0.4 us and the mask about 4 ns per letter, so the
    windows win from g of about 100.  Whole scans with the constant at 32,
    64, 96, 128, 192 and 256 (best of 3 at 10^5 letters and of 30 at
    1,000-2,000; CPython 3.11, 2-core Xeon, shared host): the Fibonacci,
    square-free ternary and random binary words of 10^5 letters took
    345/326/315/415/333/328 ms, 639/596/552/557/565/569 ms and
    87/84/83/83/84/86 ms, against 8.2, 12.2 and 2.1 s for the mask alone;
    the benchmark's random word of 2,000 letters over 4 letters and
    Fibonacci factor of 1,500 took 1.39/1.34/1.31/1.31/1.40/1.47 ms and
    1.83/1.72/1.63/1.63/1.74/1.93 ms, against 2.9 and 2.8 ms.  96 was
    fastest or level with the fastest on every word but one.
    """
    l = len(w)
    if l == 0:
        raise ValueError("max_factor_exponent of the empty word")
    window_min = WINDOW_LETTERS_MIN
    s = (max(w.letters).bit_length() + 7) // 8 or 1
    packed = b"".join(map(int.to_bytes, w.letters, repeat(s), repeat("little")))
    big = int.from_bytes(packed, "little")
    folds = range(8, 8 * s, 8)
    best_num, best_den = 1, 1
    best_start, best_len = 0, 1
    p = 1
    while p < l and l * best_den >= best_num * p:
        need = max(1, -(-(best_num - best_den) * p // best_den))
        if need // 2 >= window_min:
            for i, e in _window_runs(packed, s, l, p, need):
                length = e - i + p
                gain = length * best_den - best_num * p
                if gain > 0 or (gain == 0 and (i, length) < (best_start, best_len)):
                    best_num, best_den = length, p
                    best_start, best_len = i, length
            p += 1
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
            i = mask.find(zeros, e + 1)
        p += 1
    return Exponent(best_num, best_den), (best_start, best_start + best_len)


def _window_runs(packed: bytes, s: int, l: int, p: int, need: int) -> list[tuple[int, int]]:
    """The same runs as the mask, found from windows of g = need // 2
    letters every g positions."""
    span, g = l - p, need // 2
    sp, sg = s * p, s * g
    runs = []
    j = 0
    while j + g <= span:
        a = s * j
        if packed[a : a + sg] != packed[a + sp : a + sp + sg]:
            j += g
            continue
        # m has a one in [j - g, j) when j >= g: in the window before, or at
        # the end of the run before, which moved j to the first multiple of g
        # past it.  The XOR of two letter ranges, each read as one int, has
        # its highest set bit at their last mismatch and its lowest at their
        # first, and byte offset // s is that mismatch's letter; an XOR of 0
        # (j = 0) gives bit_length() - 1 = -1, so the run starts at lo.
        lo = s * max(0, j - g)
        x = (int.from_bytes(packed[lo:a], "little")
             ^ int.from_bytes(packed[lo + sp : a + sp], "little"))
        i = (lo + (x.bit_length() - 1) // 8) // s + 1
        e, step = j + g, g
        while e < span:
            top = min(e + step, span)
            x = (int.from_bytes(packed[s * e : s * top], "little")
                 ^ int.from_bytes(packed[s * e + sp : s * top + sp], "little"))
            if x:
                e += ((x & -x).bit_length() - 1) // 8 // s
                break
            e, step = top, 2 * step
        if e - i >= need:
            runs.append((i, e))
        j = (e // g + 1) * g
    return runs


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
