"""Brute-force reference implementations.

These exist to be obviously correct, not fast: substring sets instead of
automata, exhaustive (q, p, t) scans instead of the longest-repeat identity,
one border array per start position instead of per-period mismatch masks
and block searches over bands of periods, per-level from-scratch products
instead of frontier caching, a local schoolbook product instead of the
packed-row FMatrix kernel, and a local Gaussian elimination that shares no
code with the fast span basis.  Every fast path is required to agree with
its oracle on the stated overlap domain.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator, Sequence

from .algebra import BudgetExceeded, CapExceeded, GeneratorSet, LengthTrace
from .powers import Exponent
from .structure import QptDecomposition
from .words import Alphabet, ComplexityProfile, Word, border_array

DEFAULT_ENUMERATION_BUDGET = 100_000_000
NAIVE_PROFILE_CAP = 1_000
BRUTE_QPT_CAP = 30
BRUTE_EXPONENT_CAP = 2_000
BRUTE_LENGTH_BUDGET = 2_000_000


def enumerate_words(
    alphabet_size: int,
    max_len: int,
    shard: tuple[int, int] | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Word]:
    """Every word over alphabet_size letters of length 1..max_len exactly
    once, in (length, lex) order.

    shard=(which, of) keeps only words whose running index is congruent to
    which mod of, giving a deterministic partition for parallel sweeps.
    The arguments are checked when it is called, not at the first word,
    and the alphabet size (at most 26, the letters a..z) before the budget:
    BudgetExceeded is raised when the whole space, not just the shard,
    holds more than budget words.
    """
    if alphabet_size < 1 or max_len < 1 or budget < 1:
        raise ValueError("alphabet size, max length, and budget must be >= 1")
    if alphabet_size > 26:
        raise ValueError(f"alphabet size must be <= 26 (letters a..z), got {alphabet_size}")
    k = alphabet_size
    total = sum(k**j for j in range(1, max_len + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} words exceed budget {budget}")
    which, of = shard or (0, 1)
    if not 0 <= which < of:
        raise ValueError(f"invalid shard {shard}")
    return _words(k, max_len, which, of)


def _words(k: int, max_len: int, which: int, of: int) -> Iterator[Word]:
    alphabet = Alphabet.letters(k)
    idx = 0  # running index of the first word of the current length
    for length in range(1, max_len + 1):
        # Step straight from one word of this shard to the next in C.
        block = product(range(k), repeat=length)
        for tup in islice(block, (which - idx) % of, None, of):
            yield Word(tup, alphabet)
        idx += k**length


def check_naive_length(length: int) -> None:
    """Raise ValueError when naive_profile cannot take a word this long."""
    if length > NAIVE_PROFILE_CAP:
        raise ValueError(f"naive_profile handles length <= {NAIVE_PROFILE_CAP}")


def check_qpt_length(length: int) -> None:
    """Raise ValueError when brute_min_qpt cannot take a word this long."""
    if length > BRUTE_QPT_CAP:
        raise ValueError(f"brute_min_qpt handles length <= {BRUTE_QPT_CAP}")


def naive_profile(w: Word) -> ComplexityProfile:
    """Factor counts by literally collecting the substring set per length.

    Collection stops at the first n with f(n) = l - n + 1, where no factor
    of length n occurs twice.  Then no longer factor occurs twice either:
    two equal factors of length m > n at distinct starts would have equal
    length-n prefixes at those starts.  So f(m) = l - m + 1 for every
    m >= n, and those counts are filled in without collecting.
    """
    l = len(w)
    check_naive_length(l)
    seq: Sequence = bytes(w.letters) if w.alphabet.size <= 256 else w.letters
    counts = [1]
    for n in range(1, l + 1):
        counts.append(len({seq[i : i + n] for i in range(l - n + 1)}))
        if counts[-1] == l - n + 1:
            counts.extend(range(l - n, 0, -1))
            break
    return ComplexityProfile(tuple(counts), sum(counts))


def brute_min_qpt(w: Word) -> QptDecomposition:
    """Try every (q, t) and, for each, periods p in increasing order,
    including degenerate periods longer than the middle segment; min cost,
    ties to smallest q then smallest t.

    Two prunings cannot change the result.  For fixed (q, t) the cost grows
    with p, so only the first valid p can win.  The (q, t) pairs come in
    lexicographic order, so a later pair with a cost equal to the best so
    far has a larger (cost, q, t) key; p is therefore tried only while
    q + p + t stays below the best cost found.
    """
    l = len(w)
    if l == 0:
        raise ValueError("brute_min_qpt requires a non-empty word")
    check_qpt_length(l)
    letters = w.letters
    best_cost = l + 1  # p = l is always valid, so (0, l, 0) beats this
    best = (0, l, 0)
    for q in range(l + 1):
        for t in range(l - q + 1):
            for p in range(1, best_cost - q - t):
                ok = True
                for i in range(q, l - t - p):
                    if letters[i] != letters[i + p]:
                        ok = False
                        break
                if ok:
                    best_cost = q + p + t
                    best = (q, p, t)
                    break
    return QptDecomposition(best[0], best[1], best[2], l)


def brute_max_exponent(w: Word) -> tuple[Exponent, tuple[int, int]]:
    """Largest length/period ratio over every factor, each period read off
    the border array of the suffix at its start; O(l^2).  Unreduced num/den,
    ties to the leftmost witness, then the shortest."""
    l = len(w)
    if l == 0:
        raise ValueError("brute_max_exponent of the empty word")
    if l > BRUTE_EXPONENT_CAP:
        raise ValueError(f"brute_max_exponent handles length <= {BRUTE_EXPONENT_CAP}")
    letters = w.letters
    best_num, best_den = 1, 1
    best_span = (0, 1)
    for start in range(l):
        for length, border in enumerate(border_array(letters[start:]), 1):
            period = length - border
            if length * best_den > best_num * period:
                best_num, best_den = length, period
                best_span = (start, start + length)
    return Exponent(best_num, best_den), best_span


class _GaussRows:
    """Forward-elimination row collection, independent of SpanBasis."""

    def __init__(self, modulus: int) -> None:
        self.p = modulus
        self.rows: list[tuple[int, list[int]]] = []

    def _reduced(self, vec: Sequence[int]) -> list[int]:
        p = self.p
        v = [x % p for x in vec]
        for col, row in self.rows:
            c = v[col]
            if c:
                f = c * pow(row[col], -1, p) % p
                for j in range(col, len(v)):
                    v[j] = (v[j] - f * row[j]) % p
        return v

    def insert(self, vec: Sequence[int]) -> bool:
        v = self._reduced(vec)
        for col, x in enumerate(v):
            if x:
                self.rows.append((col, v))
                self.rows.sort(key=lambda r: r[0])
                return True
        return False


def _schoolbook_product(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int
) -> list[list[int]]:
    """a @ b mod p by the triple loop, independent of FMatrix.__matmul__."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def brute_length(S: GeneratorSet, cap: int) -> LengthTrace:
    """Length of a generating set with every product recomputed from scratch.

    Each level multiplies out all |S|^i words fully with the schoolbook
    product; no frontier reuse, no shared product or span code.  At each
    level it records the first word, in lex order over generator indices,
    whose product it inserts as independent: every earlier word of the level
    lay in the span of strictly shorter products, so that word is the
    minimal irreducible word of its length by definition.  Must agree with
    the fast trace, words included, wherever both finish.
    """
    k = len(S.gens)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if k**cap > BRUTE_LENGTH_BUDGET:
        raise BudgetExceeded(f"|S|^cap = {k**cap} exceeds budget {BRUTE_LENGTH_BUDGET}")
    ambient = S.n * S.n
    p = S.field.p
    gens = [g.entries for g in S.gens]
    span = _GaussRows(p)
    ident_vec = [int(i == j) for i in range(S.n) for j in range(S.n)]
    span.insert(ident_vec)
    dims = [1]
    words = []
    for length in range(1, cap + 1):
        if dims[-1] == ambient:
            break
        first = None
        for word in product(range(k), repeat=length):
            mat = gens[word[0]]
            for idx in word[1:]:
                mat = _schoolbook_product(mat, gens[idx], p)
            if span.insert([x for row in mat for x in row]) and first is None:
                first = word
        if first is None:
            break
        dims.append(len(span.rows))
        words.append(first)
    else:
        if dims[-1] != ambient:
            raise CapExceeded(cap)
    return LengthTrace(tuple(dims), len(dims) - 1, dims[-1], tuple(words))
