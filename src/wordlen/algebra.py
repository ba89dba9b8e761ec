"""Lengths of matrix generating sets and irreducible-word machinery.

Products of generators are words over the generator alphabet; the span of
all products of length <= i grows with i and the length of the set is the
last i at which it grows.  A word is reducible when its product already
lies in the span of strictly shorter products; searches below exploit that
a word with a reducible prefix is itself reducible.
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


class IndexOutOfRange(ValueError):
    """A generator index in a word is outside the generator list."""


class SearchBudgetExceeded(RuntimeError):
    """The word enumeration would exceed the configured budget."""


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


def _levels(S: GeneratorSet, max_len: int) -> Iterator[SpanBasis]:
    """Grow the span of products breadth-first, yielding the basis of the
    span of products of length <= i for i = 0, 1, ..., l(S).

    Only products that were independent when inserted are kept on the
    frontier; multiplying just frontier x generators is enough because a
    dependent product's extensions are spanned by extensions of the words
    it depends on.  The walk stops at full dimension or when a level adds
    nothing, so the span of every longer product is the last one yielded.
    The basis yielded is the live one: a caller that keeps a level copies it.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ambient = S.n * S.n
    basis = SpanBasis(ambient, S.field)
    ident = FMatrix.identity(S.field, S.n)
    basis.insert(ident.vectorize())
    yield basis
    frontier = [ident]
    step = 0
    while basis.dim < ambient:
        step += 1
        if step > max_len:
            raise CapExceeded(max_len)
        new_frontier = []
        for mat in frontier:
            for g in S.gens:
                prod = mat @ g
                if basis.insert(prod.vectorize()):
                    new_frontier.append(prod)
        if not new_frontier:
            return
        yield basis
        frontier = new_frontier


def length_trace(S: GeneratorSet, max_len: int) -> LengthTrace:
    """Grow the span of products breadth-first until it stabilizes."""
    dims = tuple(basis.dim for basis in _levels(S, max_len))
    return LengthTrace(dims, len(dims) - 1, dims[-1])


def _product(word: Sequence[int], S: GeneratorSet) -> FMatrix:
    prod = S.gens[word[0]]
    for idx in word[1:]:
        prod = prod @ S.gens[idx]
    return prod


def is_reducible(word: Sequence[int], S: GeneratorSet) -> bool:
    """Is the product of this word in the span of strictly shorter products?"""
    j = len(word)
    if j < 1:
        raise ValueError("word must be non-empty")
    k = len(S.gens)
    for idx in word:
        if not 0 <= idx < k:
            raise IndexOutOfRange(f"generator index {idx} outside [0, {k})")
    # level j - 1, or the final span if the walk ends before it
    *_, basis = islice(_levels(S, S.n * S.n), j)
    return basis.contains(_product(word, S).vectorize())


def _liw_dfs(S: GeneratorSet, bases: list[SpanBasis], depth: int) -> list[tuple[int, ...]]:
    """The minimal irreducible word of each length 1, 2, ... up to depth,
    from one depth-first scan; bases[j] spans the products of length <= j.

    A prefix whose product lies in the span of shorter products makes every
    extension reducible, so such subtrees are skipped.  Pre-order visits the
    words of each fixed length in lexicographic order, and skipping whole
    subtrees keeps that order, so the first word the scan reaches at depth i
    is the minimal irreducible word of length i.  The list is shorter than
    depth when the scan runs out of irreducible words first.
    """
    gens = S.gens
    k = len(gens)
    found: list[tuple[int, ...]] = []
    word: list[int] = []
    prods: list[FMatrix] = []  # prods[j] is the product of word[:j + 1]
    letter = 0
    while len(found) < depth:
        if letter == k:  # every child of this node is done: backtrack
            if not word:
                break
            letter = word.pop() + 1
            prods.pop()
            continue
        prod = prods[-1] @ gens[letter] if prods else gens[letter]
        if bases[len(word)].contains(prod.vectorize()):
            letter += 1
            continue
        word.append(letter)
        prods.append(prod)
        if len(word) > len(found):
            found.append(tuple(word))
        letter = 0
    return found


def _word_complexity(word: Sequence[int], k: int) -> int:
    return count_distinct_factors(Word(tuple(word), Alphabet.indices(k)))


def liw(S: GeneratorSet, i: int, budget: int = DEFAULT_SEARCH_BUDGET) -> LiwResult | None:
    """Lexicographically minimal irreducible word of length i, or None.

    None means no irreducible word of that length exists, which happens
    exactly when i exceeds the length of the set.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    k = len(S.gens)
    if k**i > budget:
        raise SearchBudgetExceeded(f"|S|^i = {k**i} exceeds budget {budget}")
    bases = [basis.copy() for basis in islice(_levels(S, S.n * S.n), i)]
    if len(bases) < i:  # the span stopped growing before length i - 1
        return None
    found = _liw_dfs(S, bases, i)
    if len(found) < i:
        return None
    return LiwResult(i, found[-1], _word_complexity(found[-1], k))


def _liw_walk(S: GeneratorSet, max_len: int) -> tuple[LengthTrace, list[SpanBasis]]:
    """The length trace and a copy of every level, from one walk."""
    bases = [basis.copy() for basis in _levels(S, max_len)]
    dims = tuple(basis.dim for basis in bases)
    return LengthTrace(dims, len(dims) - 1, dims[-1]), bases


def _liw_words(S: GeneratorSet, bases: list[SpanBasis], budget: int) -> list[tuple[int, ...]]:
    """The minimal irreducible word of each length 1..l(S), given every
    level of the walk, so l(S) = len(bases) - 1."""
    length = len(bases) - 1
    k = len(S.gens)
    if length >= 1 and k**length > budget:
        raise SearchBudgetExceeded(f"|S|^l(S) = {k**length} exceeds budget {budget}")
    words = _liw_dfs(S, bases, length)
    if len(words) < length:
        raise RuntimeError(f"no irreducible word of length {len(words) + 1} <= l(S)")
    return words


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


def check_liw_complexity(
    S: GeneratorSet, budget: int = DEFAULT_SEARCH_BUDGET
) -> LiwComplexityReport:
    """Total complexity of each minimal irreducible word versus the
    generated dimension; the bound must hold for every length."""
    trace, bases = _liw_walk(S, S.n * S.n)
    return _complexity_report(S, trace.generated_dim, _liw_words(S, bases, budget))


def check_irreducible_power_free(
    S: GeneratorSet, m: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> PowerFreeReport:
    """Max factor exponent of each minimal irreducible word versus m - 1.

    m is the max minimal-polynomial degree in play (matrix size for a full
    matrix algebra); requires field size > m.
    """
    if S.field.p <= m:
        raise ValueError(f"need field size > m = {m}")
    _, bases = _liw_walk(S, S.n * S.n)
    return _power_free_report(S, m, _liw_words(S, bases, budget))


def estimate_m_star(
    S: GeneratorSet, word_len_cap: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> int:
    """Max minimal-polynomial degree over products of length <= cap.

    A lower estimate of the true supremum over all products (there are
    infinitely many words).  By Cayley-Hamilton no minimal polynomial of an
    n x n matrix has degree above n, so the scan stops at the first product
    of degree n: any non-derogatory product, such as one with n distinct
    eigenvalues, ends it.  Distinct product matrices are visited once, since
    equal products have equal extensions.
    """
    if word_len_cap < 1:
        raise ValueError("word_len_cap must be >= 1")
    k = len(S.gens)
    total = sum(k**i for i in range(1, word_len_cap + 1))
    if total > budget:
        raise SearchBudgetExceeded(f"{total} words exceed budget {budget}")
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
                seen.add(prod.entries)
                nxt.append(prod)
                best = max(best, min_poly(prod).degree)
                if best == S.n:
                    return best
        if not nxt:
            break
        frontier = nxt
    return best
