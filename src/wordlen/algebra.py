"""Lengths of matrix generating sets and their minimal irreducible words.

Products of generators are words over the generator alphabet; the span of
all products of length <= i grows with i and the length of the set is the
last i at which it grows.  A word is reducible when its product already
lies in the span of strictly shorter products.  `length_trace` grows the
span breadth-first, extending its frontier in lexicographic order, so the
first product it inserts at each length is the minimal irreducible word of
that length: the one walk yields the dimensions and the words, and no
search is needed.  The walk keeps only words and dimensions: the span
basis multiplies and inserts each level, skipping the candidates that the
factor closure of the frontier proves dependent, and only linalg knows the
packed-slot format the frontier travels in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .linalg import FMatrix, PrimeField, SpanBasis, load_matrix_set, min_poly
from .powers import Exponent, max_factor_exponent
from .words import Alphabet, Word, count_distinct_factors

DEFAULT_SEARCH_BUDGET = 2_000_000


class CapExceeded(RuntimeError):
    """Span dimensions were still growing when the step cap was reached."""

    def __init__(self, max_len: int) -> None:
        super().__init__(f"still growing after {max_len} steps")


class BudgetExceeded(RuntimeError):
    """A search or enumeration would exceed its configured budget."""


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
    strict increase; length is the index of that increase, and words[i - 1]
    is the lexicographically minimal irreducible word of length i.

    words defaults to () only for callers that build a trace from the first
    three fields, such as the benchmark's planted wrong trace."""

    dims: tuple[int, ...]
    length: int
    generated_dim: int
    words: tuple[tuple[int, ...], ...] = ()


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
    ok: bool


@dataclass(frozen=True)
class PowerFreeReport:
    length: int
    limit: int
    entries: tuple[PowerFreeEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def length_trace(S: GeneratorSet, max_len: int) -> LengthTrace:
    """Grow the span of products breadth-first until it stabilizes, keeping
    the dimension of the span of products of length <= i for i = 0, 1, ...,
    l(S) and the lexicographically minimal irreducible word of each length
    1..l(S).

    Only products that were independent when inserted are kept on the
    frontier; multiplying just frontier x generators is enough because a
    dependent product's extensions are spanned by extensions of the words
    it depends on.  The walk stops at full dimension or when a level adds
    nothing, so the span of every longer product is the last one reached.

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

    A level ends at the insert that fills the span (dim = n^2).  The full
    span already holds every later product, so none of them is independent,
    and the level's first independent word is already recorded: dims,
    words and the length come out as if the level had been finished.

    The frontier is a factor-closed language, which lets the walk skip
    candidates.  Order words by length, then lexicographically (deg-lex),
    and call a word normal if its product is not in the span of the
    products of smaller words.  Normal words are closed under factors: if
    U = sum c_j U_j + (shorter products) with every U_j < U, then AUB =
    sum c_j AU_jB + (shorter products) with every AU_jB < AUB.  So every
    normal word of length i extends a normal word on level i - 1's frontier
    and is a candidate; by induction on deg-lex order, the shorter products
    and the earlier candidates in the basis span every smaller word, so the
    walk keeps exactly the normal words: level i's frontier is the normal
    words of length i.  A candidate ug at level i >= 2 whose suffix u[1:]g
    is off level i - 1's frontier is therefore not normal: it is dependent
    when reached, and inserting it would leave the basis unchanged.  The
    walk skips those candidates (at level 1 the suffix is the empty word,
    always on the frontier), and dims, words and the length are those of
    the walk that reduces every candidate.  At n = 8 and 16 the walk
    reduces 77 and 285 candidates instead of 112 and 480 on diag(1..n) with
    the cyclic shift, 72 and 272 instead of 123 and 507 on the Jordan block
    with the corner unit; random dense pairs, whose words shorter than l(S)
    are all normal, skip none.

    The basis multiplies and inserts each level from one stack
    (SpanBasis.insert_products), in candidate order, skipping the (frontier
    index, generator index) pairs of the skipped candidates.  For each
    frontier word u the stack holds the row x_u that u's insert added, its
    residual scaled to 1 at its pivot: x_u = mu P_u + s with mu != 0 and s
    a combination of the products P_v inserted before u (the identity is
    its own row).  Then x_u g = mu P_ug + sum c_v P_vg, and each P_vg is
    spanned when ug is reached: a product shorter than ug if v is shorter
    than u, else a candidate vg before ug.  So x_u g and mu P_ug differ by
    the span: one is independent iff the other is, and their residuals,
    linear and 0 on the span, scale to the same new row.  By induction over
    the candidates the basis, and with it dims, words, skips and the fill,
    are those of the walk that stacks products, and no product is reduced
    twice.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ambient = S.n * S.n
    basis = SpanBasis(ambient, S.field)
    stack = FMatrix.identity(S.field, S.n).entries
    basis.insert(stack)
    dims = [1]
    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    while basis.dim < ambient:
        if len(dims) > max_len:  # this level's products have length len(dims)
            raise CapExceeded(max_len)
        normal = set(frontier)
        skip = {(k, i) for k, u in enumerate(frontier) for i in range(len(S.gens))
                if (*u, i)[1:] not in normal}
        found, stack = basis.insert_products(stack, S.gens, skip)
        if not found:
            break
        frontier = [frontier[k] + (i,) for k, i in found]
        dims.append(basis.dim)
        words.append(frontier[0])
    return LengthTrace(tuple(dims), len(dims) - 1, dims[-1], tuple(words))


def _complexity_report(S: GeneratorSet, trace: LengthTrace) -> LiwComplexityReport:
    alphabet = S.word_alphabet
    dim = trace.generated_dim
    entries = []
    for i, word in enumerate(trace.words, start=1):
        c = count_distinct_factors(Word(word, alphabet))
        entries.append(LiwComplexityEntry(i, word, c, dim, c <= dim))
    return LiwComplexityReport(trace.length, dim, tuple(entries))


def _power_free_report(S: GeneratorSet, m: int, trace: LengthTrace) -> PowerFreeReport:
    alphabet = S.word_alphabet
    limit = m - 1
    entries = []
    for i, word in enumerate(trace.words, start=1):
        exp, _ = max_factor_exponent(Word(word, alphabet))
        entries.append(PowerFreeEntry(i, word, exp, exp.value <= limit))
    return PowerFreeReport(trace.length, limit, tuple(entries))


def check_liw_complexity(S: GeneratorSet) -> LiwComplexityReport:
    """Total complexity of each minimal irreducible word versus the
    generated dimension; the bound must hold for every length."""
    return _complexity_report(S, length_trace(S, S.n * S.n))


def check_irreducible_power_free(S: GeneratorSet, m: int) -> PowerFreeReport:
    """Max factor exponent of each minimal irreducible word versus m - 1.

    m is the max minimal-polynomial degree in play (matrix size for a full
    matrix algebra); requires field size > m.
    """
    if S.field.p <= m:
        raise ValueError(f"need field size > m = {m}")
    return _power_free_report(S, m, length_trace(S, S.n * S.n))


def estimate_m_star(S: GeneratorSet, word_len_cap: int) -> int:
    """Max minimal-polynomial degree over products of length <= cap.

    A lower estimate of the true supremum over all products (there are
    infinitely many words).  By Cayley-Hamilton no minimal polynomial of an
    n x n matrix has degree above n, so the scan stops at the first product
    of degree n: any non-derogatory product, such as one with n distinct
    eigenvalues, ends it.  Distinct product matrices are visited once, since
    equal products have equal extensions.  DEFAULT_SEARCH_BUDGET, read at
    call time, bounds the distinct products kept, which is what the scan
    stores and multiplies out: a set with few distinct products scans any
    cap, however many words it has.
    """
    if word_len_cap < 1:
        raise ValueError("word_len_cap must be >= 1")
    budget = DEFAULT_SEARCH_BUDGET
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
                    raise BudgetExceeded(
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
