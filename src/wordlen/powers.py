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
    of m is the factor [i, e + p) of exponent (e - i + p) / p, and only
    runs of at least need = ceil((num - den) * p / den) zeros can match or
    beat the best.  Every best witness is a maximal run of its minimal
    period (a longer run would beat it, a smaller period would give a
    larger exponent), so taking a strictly larger value, or an equal value
    with a smaller (start, length), gives the same witness as a scan of all
    factors.  The word is packed into bytes, s per letter (s the byte width
    of its largest letter id; ``bytes(letters)`` when s = 1), and the runs
    are found in one of two ways:

    - Mask, one period at a time: the packed word read as one big int gives
      m from one XOR with the int shifted by p slots: OR-folding each slot's
      bytes into its low byte and mapping nonzero bytes to 1 leaves one mask
      byte per position, and ``bytes.find`` skips the runs shorter than
      need.  This is O(l) byte work per period.
    - Bands, once g = need // 2 >= WINDOW_LETTERS_MIN: the periods are
      scanned in doubling bands [P, 2P), cut at l * den / num and at
      l - 2g, each with g fixed from need at P and the best at the band's
      start.  need grows with both p and the
      best, so a run [i, e) of the band that can still match the best has
      e - i >= need >= 2g and holds the whole block w[j:j+g] at the first
      multiple j of g at or after i, which ends before i + 2g.  For each
      block, repeated ``bytes.find`` calls on the packed word return every
      distance p in the band at which its bytes recur.  A hit at a byte
      offset that is not a multiple of s straddles letter slots, and a hit
      inside the run last widened at its period adds nothing; both are
      skipped.  Every other hit is widened to its maximal run by bit scans.
      The run starts one letter after the highest set bit of the XOR of the
      <= g letters before the block with the letters p later (at their
      start if it is 0): block j - g was searched at p in the same band and
      did not recur there, or else block j would lie inside its run, so m
      has a one among those letters.  The run ends at the lowest set bit of
      the first nonzero XOR of doubling blocks after the block.  This is
      O(l / g) searches per band, each over about P + g letters, in C.

    A band returns every maximal run of its periods that reaches need for
    the best at its start, so every run that can still match the best.
    The runs are compared in a strict total order (value, then smaller
    start, then smaller length), so the order in which they come does not
    change the result: the unreduced num/den and the witness are those of
    the mask alone.

    WINDOW_LETTERS_MIN is read at call time.  A word of at most twice its
    value never reaches the bands, since need <= l - p.  Whole scans with
    the constant at 16/24/32/48/64/96 (best of 10 at 10^5 letters and of
    40 at 1,000-2,000; CPython 3.11, 2-core Xeon, shared host): the
    Fibonacci, square-free ternary, random binary, two-byte and Thue-Morse
    words of 10^5 letters that CI pins took 65/61/59/56/59/61 ms,
    72/67/66/69/77/88 ms, 18/18/17/17/17/18 ms, 40/39/41/40/42/47 ms and
    90/77/79/76/89/98 ms, against 315, 569, 84, 164 and 574 ms for the
    per-period window scan that the bands replaced; the benchmark's random
    word of 2,000 letters over 4 letters and Fibonacci factor of 1,500 took
    0.36/0.35/0.35/0.38/0.42/0.50 ms and 0.91/0.89/0.85/0.83/0.87/0.96 ms,
    against 1.34 and 1.72 ms.  32 was within 6 % of the fastest on every
    word.
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
            # a run of period q >= p reaches need >= 2g only if q <= l - 2g
            hi = min(2 * p, l * best_den // best_num + 1, l - 2 * g + 1)
            if hi <= p:
                break
            for i, e, q in _band_runs(packed, s, l, p, hi, g, best_num, best_den):
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
            i = mask.find(zeros, e + 1)
        p += 1
    return Exponent(best_num, best_den), (best_start, best_start + best_len)


def _band_runs(packed: bytes, s: int, l: int, lo: int, hi: int, g: int, num: int,
               den: int) -> list[tuple[int, int, int]]:
    """Every maximal run [i, e) of the mask of a period lo <= p < hi with
    e - i >= need for num/den at p, as (i, e, p), found from the blocks of
    g <= need // 2 letters every g positions."""
    sg, reach = s * g, s * (hi - 1 + g)
    runs = []
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
                if (e - i) * den >= (num - den) * p:
                    runs.append((i, e, p))
            k = packed.find(block, k + 1, a + reach)
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
