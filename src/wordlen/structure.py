"""Periodic (prefix, period, suffix) decompositions of finite words.

A word of length l splits as a prefix of length q, a core repeating with
period p, and a suffix of length t; the cost of the split is q + p + t.
The factor-count profile rises, stays flat, then falls by one per step;
verify checks the theorems that tie the two together, word by word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import indexOf, le

from .powers import Exponent
from .words import SuffixAutomaton, Word, profile_counts, repeat_histogram


class ShapeViolation(RuntimeError):
    """The three-phase profile shape failed at index n.

    This should be impossible; raising it signals an internal bug or a
    genuine counterexample, both of which must surface loudly.
    """

    def __init__(self, n: int, counts: tuple[int, ...]) -> None:
        super().__init__(f"profile shape violated at n={n}: counts={counts}")
        self.n = n
        self.counts = counts


@dataclass(frozen=True)
class QptDecomposition:
    """Split of a length-l word into prefix(q) + periodic core(p) + suffix(t)."""

    q: int
    p: int
    t: int
    l: int

    def __post_init__(self) -> None:
        if self.q < 0 or self.t < 0 or self.p < 1 or self.q + self.t > self.l:
            raise ValueError(
                f"invalid decomposition q={self.q} p={self.p} t={self.t} l={self.l}"
            )

    @property
    def cost(self) -> int:
        return self.q + self.p + self.t

    @property
    def core_exponent(self) -> Exponent:
        """Exponent (l - q - t) / p of the periodic core, unreduced.

        Defined for the decompositions that `minimal_qpt` and the
        brute-force oracle return: their core is the period plus a border of
        length R >= 0, so l - q - t = p + R >= p and 1 <= den <= num holds.
        A split whose core is shorter than its period raises ValueError.
        """
        return Exponent(self.l - self.q - self.t, self.p)


@dataclass(frozen=True)
class ProfileShape:
    """Breakpoints of the increasing / constant / down-by-one profile phases."""

    m_star: int
    plateau_end: int
    peak: int


def decompose_check(w: Word, dec: QptDecomposition) -> bool:
    """Does w literally equal prefix(q) + core with period p + suffix(t)?

    Equivalent condition: w[i] == w[i+p] for all i in [q, l-t-p-1].  An empty
    range (core exponent below 1) passes vacuously.
    """
    l = len(w)
    if dec.l != l:
        raise ValueError(f"decomposition is for length {dec.l}, word has {l}")
    q, p, end = dec.q, dec.p, l - dec.t
    # max keeps an end of l - t - p below 0 from counting from the right
    return w.letters[q : max(q, end - p)] == w.letters[q + p : end]


def minimal_qpt(w: Word) -> QptDecomposition:
    """Minimal-cost decomposition; ties broken by smallest q, then smallest t.

    For fixed (q, t) the cheapest p is the smallest period of the middle
    segment, its length minus its longest border, so the cost is l minus
    that border.  A border of length b is a length-b factor that occurs at
    two positions, hence min cost = l - R with R the length of the longest
    such factor (overlaps allowed).  The suffix automaton gives R, the
    leftmost start q of a length-R factor that occurs twice, and the
    rightmost start j of that factor; then p = j - q and t = l - j - R, which
    is the smallest q and, for it, the smallest t.  With no repeated letter
    R = 0 and the split is (0, l, 0).
    """
    l = len(w)
    if l == 0:
        raise ValueError("minimal_qpt requires a non-empty word")
    r, q, j = SuffixAutomaton(w.letters).longest_repeat()
    return QptDecomposition(q, j - q, l - j - r, l)


def profile_shape(w: Word) -> ProfileShape:
    """Locate the three profile phases and assert they hold.

    m_star is the least n with f(n+1) <= f(n); the profile must then stay
    constant through l - f(m_star) + 1 and afterwards drop by exactly one
    per step.  A ShapeViolation names the first offending index.

    The phases are read off the automaton's histogram h of the repeat
    lengths, since f(n + 1) - f(n) = h[n] - 1 (see ``SuffixAutomaton``):
    the rise is where h >= 2, the plateau where h = 1 and the fall where
    h = 0.  So m_star is the first n with h[n] <= 1, and
    peak = f(m_star) = 1 + h[0] + ... + h[m_star - 1] - m_star.  It always
    exists: the h[n] sum to l and are >= 2 below m_star, so m_star <= l/2.
    The plateau holds iff h[n] = 1 on [m_star, plateau_end), and the fall
    iff h[n] = 0 from plateau_end on; past R = max(L_e), h is 0 by
    construction.  Only repeat lengths that break the theorem can put
    plateau_end below m_star, so the violation is the first
    n >= min(m_star, plateau_end) with h[n] != 1 before plateau_end or
    h[n] != 0 from it on.  The counts are built only to report it.
    """
    l = len(w)
    if l == 0:
        raise ValueError("profile_shape requires a non-empty word")
    repeats = SuffixAutomaton(w.letters).repeats
    h = repeat_histogram(repeats)
    m_star = indexOf(map(le, h, repeat(1)), True)
    peak = 1 + sum(h[:m_star]) - m_star
    plateau_end = l - peak + 1
    start = min(m_star, plateau_end)
    if h[start:plateau_end].count(1) != plateau_end - start or any(h[plateau_end:]):
        n = next(n for n in range(start, len(h)) if h[n] != (n < plateau_end))
        raise ShapeViolation(n + 1, profile_counts(repeats))
    return ProfileShape(m_star, plateau_end, peak)
