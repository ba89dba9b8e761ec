"""Lengths of matrix generating sets and irreducible-word machinery.

Products of generators are words over the generator alphabet; the span of
all products of length <= i grows with i and the length of the set is the
last i at which it grows.  A word is reducible when its product already
lies in the span of strictly shorter products.  The walk that grows the span
extends its frontier in lexicographic order, so the first product it
inserts at each length is the minimal irreducible word of that length:
no search is needed to find those words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .linalg import FMatrix, PrimeField, SpanBasis, load_matrix_set, min_poly
from .powers import Exponent, max_factor_exponent
from .words import Alphabet, Word, count_distinct_factors

DEFAULT_SEARCH_BUDGET = 2_000_000


class CapExceeded(RuntimeError):
    """Span dimensions were still growing when the step cap was reached."""

    def __init__(self, max_len: int) -> None:
        super().__init__(f"still growing after {max_len} steps")
        self.max_len = max_len


class SearchBudgetExceeded(RuntimeError):
    """The product scan would keep more distinct products than its budget."""


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered matrix generators; the order fixes the shortlex letter order."""

    field: PrimeField
    n: int
    gens: tuple[FMatrix, ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("generator set must be non-empty")
        for g in self.gens:
            if g.field != self.field or g.n != self.n:
                raise ValueError("generators must share the field and size")

    @classmethod
    def from_file(cls, source: str | Path | Mapping) -> "GeneratorSet":
        field, n, mats = load_matrix_set(source)
        return cls(field, n, tuple(mats))

    @property
    def word_alphabet(self) -> Alphabet:
        return Alphabet.indices(len(self.gens))


@dataclass(frozen=True)
class LengthTrace:
    """Dimensions of the spans of products of length <= i, up to the last
    strict increase; length is the index of that increase."""

    dims: tuple[int, ...]
    length: int
    generated_dim: int


@dataclass(frozen=True)
class LiwResult:
    """Lexicographically minimal irreducible word of a given length."""

    i: int
    word: tuple[int, ...]
    complexity_total: int


@dataclass(frozen=True)
class LiwComplexityEntry:
    i: int
    word: tuple[int, ...]
    complexity_total: int
    dim_bound: int
    ok: bool


@dataclass(frozen=True)
class LiwComplexityReport:
    length: int
    generated_dim: int
    entries: tuple[LiwComplexityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


@dataclass(frozen=True)
class PowerFreeEntry:
    i: int
    word: tuple[int, ...]
    exponent: Exponent
    limit: int
    ok: bool


@dataclass(frozen=True)
class PowerFreeReport:
    length: int
    limit: int
    entries: tuple[PowerFreeEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def _levels(
    S: GeneratorSet, max_len: int
) -> Iterator[tuple[SpanBasis, tuple[int, ...]]]:
    """Grow the span of products breadth-first, yielding for i = 0, 1, ...,
    l(S) the basis of the span of products of length <= i and the
    lexicographically minimal irreducible word of length i (the empty word
    at level 0).

    Only products that were independent when inserted are kept on the
    frontier; multiplying just frontier x generators is enough because a
    dependent product's extensions are spanned by extensions of the words
    it depends on.  The walk stops at full dimension or when a level adds
    nothing, so the span of every longer product is the last one yielded.
    The basis yielded is the live one: a caller that keeps a level copies it.

    Each level extends the frontier words in order by the generators in
    index order, so its candidates, and the frontier it keeps, come in
    lexicographic order.  The first candidate inserted as independent at
    level i is the minimal irreducible word of length i.  Every earlier
    candidate was dependent on a basis holding no level-i product, so it
    is reducible, and the first independent one is not.  Conversely let
    w = ug be the minimal irreducible word of length i.  Then u is
    irreducible; were it off the frontier, u = sum c_j u_j + (shorter
    products) with frontier words u_j < u, so some u_j g < w would be
    irreducible.  Hence w is a candidate, and the first independent one.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ambient = S.n * S.n
    basis = SpanBasis(ambient, S.field)
    ident = FMatrix.identity(S.field, S.n)
    basis.insert(ident.vectorize())
    yield basis, ()
    frontier: list[tuple[tuple[int, ...], FMatrix]] = [((), ident)]
    step = 0
    while basis.dim < ambient:
        step += 1
        if step > max_len:
            raise CapExceeded(max_len)
        new_frontier = []
        for word, mat in frontier:
            for letter, g in enumerate(S.gens):
                prod = mat @ g
                if basis.insert(prod.vectorize()):
                    new_frontier.append((word + (letter,), prod))
        if not new_frontier:
            return
        yield basis, new_frontier[0][0]
        frontier = new_frontier


def length_trace(S: GeneratorSet, max_len: int) -> LengthTrace:
    """Grow the span of products breadth-first until it stabilizes."""
    dims = tuple(basis.dim for basis, _ in _levels(S, max_len))
    return LengthTrace(dims, len(dims) - 1, dims[-1])


def _word_complexity(word: Sequence[int], k: int) -> int:
    return count_distinct_factors(Word(tuple(word), Alphabet.indices(k)))


def liw(S: GeneratorSet, i: int) -> LiwResult | None:
    """Lexicographically minimal irreducible word of length i, or None.

    The word is the first product the span walk inserts at level i (see
    `_levels`), so the cost is that of the walk up to level i, not of the
    |S|^i words of length i.  None means no irreducible word of that length
    exists, which happens exactly when i exceeds the length of the set.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    words = [word for _, word in islice(_levels(S, S.n * S.n), i + 1)]
    if len(words) <= i:  # the span stopped growing before length i
        return None
    return LiwResult(i, words[i], _word_complexity(words[i], len(S.gens)))


def _liw_walk(S: GeneratorSet, max_len: int) -> tuple[LengthTrace, list[tuple[int, ...]]]:
    """The length trace and the minimal irreducible word of each length
    1..l(S), from one walk."""
    dims, words = zip(*((basis.dim, word) for basis, word in _levels(S, max_len)))
    return LengthTrace(dims, len(dims) - 1, dims[-1]), list(words[1:])


def _complexity_report(
    S: GeneratorSet, dim: int, words: list[tuple[int, ...]]
) -> LiwComplexityReport:
    k = len(S.gens)
    entries = []
    for i, word in enumerate(words, start=1):
        c = _word_complexity(word, k)
        entries.append(LiwComplexityEntry(i, word, c, dim, c <= dim))
    return LiwComplexityReport(len(words), dim, tuple(entries))


def _power_free_report(
    S: GeneratorSet, m: int, words: list[tuple[int, ...]]
) -> PowerFreeReport:
    alphabet = Alphabet.indices(len(S.gens))
    limit = m - 1
    entries = []
    for i, word in enumerate(words, start=1):
        exp, _ = max_factor_exponent(Word(word, alphabet))
        entries.append(PowerFreeEntry(i, word, exp, limit, exp.value <= limit))
    return PowerFreeReport(len(words), limit, tuple(entries))


def check_liw_complexity(S: GeneratorSet) -> LiwComplexityReport:
    """Total complexity of each minimal irreducible word versus the
    generated dimension; the bound must hold for every length."""
    trace, words = _liw_walk(S, S.n * S.n)
    return _complexity_report(S, trace.generated_dim, words)


def check_irreducible_power_free(S: GeneratorSet, m: int) -> PowerFreeReport:
    """Max factor exponent of each minimal irreducible word versus m - 1.

    m is the max minimal-polynomial degree in play (matrix size for a full
    matrix algebra); requires field size > m.
    """
    if S.field.p <= m:
        raise ValueError(f"need field size > m = {m}")
    _, words = _liw_walk(S, S.n * S.n)
    return _power_free_report(S, m, words)


def estimate_m_star(
    S: GeneratorSet, word_len_cap: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> int:
    """Max minimal-polynomial degree over products of length <= cap.

    A lower estimate of the true supremum over all products (there are
    infinitely many words).  By Cayley-Hamilton no minimal polynomial of an
    n x n matrix has degree above n, so the scan stops at the first product
    of degree n: any non-derogatory product, such as one with n distinct
    eigenvalues, ends it.  Distinct product matrices are visited once, since
    equal products have equal extensions.  The budget bounds the distinct
    products kept, which is what the scan stores and multiplies out: a set
    with few distinct products scans any cap, however many words it has.
    """
    if word_len_cap < 1:
        raise ValueError("word_len_cap must be >= 1")
    ident = FMatrix.identity(S.field, S.n)
    seen = {ident.entries}
    frontier = [ident]
    best = 1
    for _ in range(word_len_cap):
        nxt = []
        for mat in frontier:
            for g in S.gens:
                prod = mat @ g
                if prod.entries in seen:
                    continue
                if len(seen) > budget:  # seen holds the identity and budget products
                    raise SearchBudgetExceeded(
                        f"{budget + 1} distinct products exceed budget {budget}"
                    )
                seen.add(prod.entries)
                nxt.append(prod)
                best = max(best, min_poly(prod).degree)
                if best == S.n:
                    return best
        if not nxt:
            break
        frontier = nxt
    return best
