from __future__ import annotations

import dataclasses
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingBasis,
    diag_shift,
    jordan_corner,
    sample_generating_sets,
    upper_triangular,
)
from wordlen import algebra
from wordlen.algebra import (
    BudgetExceeded,
    CapExceeded,
    GeneratorSet,
    LengthTrace,
    check_irreducible_power_free,
    check_liw_complexity,
    estimate_m_star,
    length_trace,
)
from wordlen.bounds import best_main_bound
from wordlen.linalg import (
    FMatrix,
    PrimeField,
    SpanBasis,
    min_poly,
    random_matrix,
    shift_to_invertible,
)
from wordlen.oracles import _GaussRows, _schoolbook_product, brute_length
from wordlen.words import Word, count_distinct_factors

F5 = PrimeField(5)
E12 = FMatrix.from_rows(F5, [[0, 1], [0, 0]])
E21 = FMatrix.from_rows(F5, [[0, 0], [1, 0]])
PAIR = GeneratorSet(F5, 2, (E12, E21))


def matrices(field: PrimeField, n: int, sparse: bool):
    """n x n matrices over field; a sparse entry is 0 three times in four."""
    entry = st.integers(0, field.p - 1)
    if sparse:
        entry = st.tuples(st.integers(0, 3), entry).map(lambda t: t[1] if t[0] == 0 else 0)
    row = st.lists(entry, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: FMatrix.from_rows(field, rows))


@st.composite
def generator_sets(draw, primes=(2, 3, 7, 11, 13), min_gens=1):
    """min_gens to 3 generators, n = 2-5, all dense or all sparse."""
    n = draw(st.integers(2, 5))
    field = PrimeField(draw(st.sampled_from(primes)))
    mats = matrices(field, n, draw(st.booleans()))
    return GeneratorSet(field, n, tuple(draw(st.lists(mats, min_size=min_gens, max_size=3))))


class TestGeneratorSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(F5, 2, ())
        with pytest.raises(ValueError):
            GeneratorSet(F5, 3, (E12,))

    def test_from_file(self, tmp_path):
        import json

        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"p": 5, "n": 2, "matrices": [[0, 1, 0, 0]]}))
        S = GeneratorSet.from_file(path)
        assert S.n == 2 and S.gens == (E12,)


class TestLengthTrace:
    def test_matrix_unit_pair(self):
        trace = length_trace(PAIR, 4)
        assert trace.dims == (1, 3, 4)
        assert trace.length == 2
        assert trace.generated_dim == 4
        assert trace.words == ((0,), (0, 1))

    def test_identity_only(self):
        trace = length_trace(GeneratorSet(F5, 2, (FMatrix.identity(F5, 2),)), 4)
        assert trace.dims == (1,) and trace.length == 0

    def test_all_four_units(self):
        units = tuple(
            FMatrix.from_rows(F5, [[int((i, j) == (r, c)) for c in range(2)] for r in range(2)])
            for i in range(2)
            for j in range(2)
        )
        trace = length_trace(GeneratorSet(F5, 2, units), 4)
        assert trace.dims == (1, 4) and trace.length == 1

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            length_trace(PAIR, 1)

    def test_non_positive_max_len(self):
        with pytest.raises(ValueError, match=r"^max_len must be >= 1$"):
            length_trace(PAIR, 0)

    def test_dims_strictly_increase(self):
        rng = random.Random(2)
        for _ in range(30):
            S = GeneratorSet(F5, 2, tuple(random_matrix(F5, 2, rng) for _ in range(2)))
            trace = length_trace(S, 8)
            assert all(b > a for a, b in zip(trace.dims, trace.dims[1:]))
            assert trace.dims[0] == 1
            assert trace.length <= trace.generated_dim - 1

    def test_no_insert_after_full_span(self, monkeypatch):
        # PAIR's span is full after E12 E21 = E11 at level 2; the walk must
        # not go on to multiply and insert E21 E12 and E21 E21.
        sets = [PAIR] + [S for S, _ in sample_generating_sets(
            20, dims=(2, 3, 4, 5, 6), primes=(5, 10007), seed=20)]
        late: list = []
        calls: list = []

        class CountingBasis(SpanBasis):
            # The walk inserts its products through insert_slots, and insert
            # calls it too, so this sees every insert.
            def insert_slots(self, slots):
                calls.append(slots)
                if self.dim == self.ambient_dim:
                    late.append(slots)
                return super().insert_slots(slots)

        monkeypatch.setattr(algebra, "SpanBasis", CountingBasis)
        for S in sets:
            trace = length_trace(S, S.n * S.n)
            assert trace.generated_dim == S.n * S.n
            assert len(calls) > S.n * S.n - 1  # the hook saw the walk
            assert late == []
            calls.clear()
            if S.n <= 3:
                assert trace == brute_length(S, cap=trace.length + 1)


class TestReducibility:
    def test_square_of_nilpotent(self):
        assert _reducible((0, 0), PAIR)  # product is zero, in every span

    def test_irreducible_product(self):
        assert not _reducible((0, 1), PAIR)  # E11 outside <I, E12, E21>

    def test_reducible_factor_spreads(self):
        # any word containing the reducible factor aa stays reducible
        for word in [(0, 0, 1), (1, 0, 0), (0, 0, 0), (1, 0, 0, 1)]:
            assert _reducible(word, PAIR)


class TestLiw:
    def test_minimal_words(self):
        words = length_trace(PAIR, 4).words
        assert words[0] == (0,) and _complexity_total(words[0], PAIR) == 2
        assert words[1] == (0, 1) and _complexity_total(words[1], PAIR) == 4

    def test_none_beyond_length(self):
        assert len(length_trace(PAIR, 4).words) == 2

    def test_identity_generator(self):
        assert length_trace(GeneratorSet(F5, 2, (FMatrix.identity(F5, 2),)), 4).words == ()

    def test_prefixes_of_liw_are_irreducible(self):
        for S, trace in sample_generating_sets(15, dims=(2, 3), seed=3):
            levels, _ = _brute_irreducible(S, trace.length)
            outside = dict(pair for level in levels for pair in level)
            assert len(trace.words) == trace.length
            for i, word in enumerate(trace.words, start=1):
                assert len(word) == i
                for cut in range(1, i):
                    assert outside[word[:cut]]

    def test_exists_iff_within_length(self):
        for S, trace in sample_generating_sets(10, dims=(2, 3), seed=4):
            assert [len(w) for w in trace.words] == list(range(1, trace.length + 1))


def _complexity_total(word, S):
    """Total complexity of a word over the generator alphabet of S."""
    return count_distinct_factors(Word(word, S.word_alphabet))


def _brute_irreducible(S, max_i):
    """For each length i in 1..max_i, every word of length i in lex order
    with whether its product lies outside the span of all products of
    length < i; and the rank of all products of length <= max_i.  Every
    product is multiplied out from scratch and spanned by the oracle's own
    elimination."""
    n, k = S.n, len(S.gens)
    span = _GaussRows(S.field.p)
    span.insert([int(r == c) for r in range(n) for c in range(n)])
    levels = []
    for i in range(1, max_i + 1):
        words = list(product(range(k), repeat=i))
        vecs = []
        for word in words:
            mat = S.gens[word[0]]
            for idx in word[1:]:
                mat = mat @ S.gens[idx]
            vecs.append(list(mat.entries))
        levels.append([(w, any(span._reduced(v))) for w, v in zip(words, vecs)])
        for v in vecs:
            span.insert(v)
    return levels, len(span.rows)


def _sparse_sets(count, seed):
    """Seeded sets over GF(2), GF(3), GF(5) and GF(7) with n in {2, 3} and
    1-3 generators, each entry non-zero with probability 1/3: many spans
    are not full, and many products coincide or vanish."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        field = PrimeField(rng.choice((2, 3, 5, 7)))
        n = rng.choice((2, 3))
        gens = tuple(
            FMatrix.from_rows(field, [[rng.randrange(1, field.p) if rng.random() < 1 / 3 else 0
                                       for _ in range(n)] for _ in range(n)])
            for _ in range(rng.choice((1, 2, 3)))
        )
        out.append(GeneratorSet(field, n, gens))
    return out


def _level_bases(S):
    """The span basis of every product of length <= i, for each level i =
    0..l(S): each level multiplies out every word of its length, and stops
    at full dimension or at the first length that adds nothing."""
    ambient = S.n * S.n
    basis = SpanBasis(ambient, S.field)
    ident = FMatrix.identity(S.field, S.n)
    basis.insert(ident.entries)
    bases = [basis.copy()]
    prods = [ident]  # every product of the current length, in lex order
    while basis.dim < ambient:
        prods = [mat @ g for mat in prods for g in S.gens]
        grew = [basis.insert(mat.entries) for mat in prods]
        if not any(grew):
            break
        bases.append(basis.copy())
    return bases


def _reducible(word, S, bases=None):
    """Whether the product of a non-empty word lies in the span of strictly
    shorter products: the basis at level len(word) - 1, or at the last
    level, past which the span no longer grows."""
    bases = _level_bases(S) if bases is None else bases
    prod = S.gens[word[0]]
    for idx in word[1:]:
        prod = prod @ S.gens[idx]
    return bases[min(len(word), len(bases)) - 1].contains(prod.entries)


def _dfs_liw_words(S):
    """The minimal irreducible word of each length 1..l(S), from a pre-order
    depth-first search over words, tested against the span of every product
    of each length below.

    A prefix whose product lies in the span of shorter products makes every
    extension reducible, so such subtrees are skipped.  Pre-order visits the
    words of each fixed length in lexicographic order, and skipping whole
    subtrees keeps that order, so the first word the search reaches at depth
    i is the minimal irreducible word of length i.
    """
    bases = _level_bases(S)
    depth = len(bases) - 1
    gens = S.gens
    k = len(gens)
    found = []
    word = []
    prods = []  # prods[j] is the product of word[:j + 1]
    letter = 0
    while len(found) < depth:
        if letter == k:  # every child of this node is done: backtrack
            if not word:
                break
            letter = word.pop() + 1
            prods.pop()
            continue
        prod = prods[-1] @ gens[letter] if prods else gens[letter]
        if bases[len(word)].contains(prod.entries):
            letter += 1
            continue
        word.append(letter)
        prods.append(prod)
        if len(word) > len(found):
            found.append(tuple(word))
        letter = 0
    return found


def _trace_or_cap(walk, S, cap):
    """walk(S, cap), or "cap" when it raises CapExceeded."""
    try:
        return walk(S, cap)
    except CapExceeded:
        return "cap"


def _oracle_sets():
    """Full sets with n in {2, 3}; Jordan-corner sets with n in {4, 5},
    whose l(S) = 2n - 2 gives long minimal words; then sets whose walk ends
    on an empty frontier below full dimension: diag(1, 2, 3) with a Jordan
    block spans the upper-triangular matrices, and a lone matrix unit spans
    <I, E12>."""
    return [S for S, _ in sample_generating_sets(12, dims=(2, 3), seed=5)] + [
        jordan_corner(PrimeField(11), 4),
        jordan_corner(PrimeField(11), 5),
        upper_triangular(PrimeField(7), 3),
        GeneratorSet(F5, 2, (E12,)),
    ]


class TestAgainstBruteForce:
    def test_liw_and_checks(self):
        for S in _oracle_sets():
            trace = length_trace(S, S.n * S.n)
            levels, rank = _brute_irreducible(S, trace.length + 3)
            ref = [next((w for w, outside in level if outside), None) for level in levels]
            length = sum(w is not None for w in ref)
            assert ref[length:] == [None] * 3
            assert (trace.length, trace.generated_dim) == (length, rank)
            assert list(trace.words) + [None] * 3 == ref
            comp = check_liw_complexity(S, trace)
            power = check_irreducible_power_free(S, S.n, trace)
            assert [e.word for e in comp.entries] == [e.word for e in power.entries]
            assert [e.word for e in comp.entries] == ref[:length]
            assert (comp.length, comp.generated_dim, power.length) == (length, rank, length)

    def test_walk_words_match_search(self):
        families = [
            family(PrimeField(p), n)
            for family in (diag_shift, jordan_corner, upper_triangular)
            for n, p in ((5, 11), (6, 13))
        ]
        sets = (
            _oracle_sets()
            + [S for S, _ in sample_generating_sets(200, seed=6)]
            + _sparse_sets(300, seed=7)
            + families
        )
        for S in sets:
            words = [e.word for e in check_liw_complexity(S).entries]
            assert words == _dfs_liw_words(S), S

    def test_matches_brute_length_at_every_slot_width(self):
        # Seeded sets over GF(2), GF(13), GF(10007) and GF(2^31 - 1) with
        # n = 1-3 and 1-3 generators, dense or sparse, each at caps 1, 2 and
        # n^2: the walk's span bases have 1-, 2-, 4-, 8- and 16-byte slots,
        # and each case ends full, below full or at the cap on both sides.
        rng = random.Random(22)
        widths, outcomes = set(), set()
        for p in (2, 13, 10007, 2147483647):
            field = PrimeField(p)
            for _ in range(16):
                n, dense = rng.randint(1, 3), rng.random() < 0.5

                def entry():
                    return rng.randrange(p) if dense or rng.random() < 1 / 3 else 0

                gens = tuple(
                    FMatrix.from_rows(field, [[entry() for _ in range(n)] for _ in range(n)])
                    for _ in range(rng.randint(1, 3))
                )
                S = GeneratorSet(field, n, gens)
                widths.add(SpanBasis(n * n, field).width)
                for cap in (1, 2, n * n):
                    fast, slow = _trace_or_cap(length_trace, S, cap), _trace_or_cap(brute_length, S, cap)
                    assert fast == slow, (S, cap)
                    outcomes.add(fast if fast == "cap" else fast.generated_dim == n * n)
        assert widths == {1, 2, 4, 8, 16}
        assert outcomes == {"cap", True, False}

    def test_matches_brute_length_on_wide_dependent_products(self):
        # Over GF(2^31 - 1), dependent products whose 16-byte slots use
        # their high halves, which must reduce to zero from those slots:
        # - random upper-triangular pairs conjugated by a random invertible
        #   q, n = 4-6: dense products in a span of n(n + 1)/2 < n^2
        #   dimensions;
        # - the all-(p - 1) matrix -J with the upper-triangular -(I + N + N^2
        #   + ...), n = 5, 6: (-J)^2 = nJ is dependent, and its every slot
        #   is n(p - 1)^2 > 2^64 before reduction.
        p = 2147483647
        field = PrimeField(p)
        rng = random.Random(2231)
        sets = []
        for n in (4, 5, 6):
            x = random_matrix(field, n, rng)
            shift = shift_to_invertible(x)
            q = x + FMatrix.identity(field, n).scale(shift.lam)
            upper = [FMatrix.from_rows(field, [[rng.randrange(p) if j >= i else 0 for j in range(n)]
                                               for i in range(n)]) for _ in range(2)]
            sets.append(GeneratorSet(field, n, tuple(q @ u @ shift.inverse for u in upper)))
        for n in (5, 6):
            minus_j = FMatrix.from_rows(field, [[p - 1] * n] * n)
            minus_upper = FMatrix.from_rows(field, [[p - 1 if j >= i else 0 for j in range(n)]
                                                    for i in range(n)])
            sets.append(GeneratorSet(field, n, (minus_j, minus_upper)))
        for S in sets[:3]:
            assert length_trace(S, 2 * S.n).generated_dim == S.n * (S.n + 1) // 2
        for S in sets:
            assert length_trace(S, 2 * S.n) == brute_length(S, 2 * S.n)

    def test_is_reducible(self):
        # the level bases decide reducibility for every word, also for words
        # longer than l(S)
        for S in _oracle_sets():
            bases = _level_bases(S)
            levels, _ = _brute_irreducible(S, len(bases) + 2)
            for level in levels:
                for word, outside in level:
                    assert _reducible(word, S, bases) == (not outside), word


def _unpruned_walk(S, max_len):
    """length_trace's walk with nothing skipped: insert_products reduces
    every candidate, frontier by frontier.  Returns the trace and the
    number of vectors reduced after the identity."""
    bases = []

    class UnprunedBasis(CountingBasis):
        def __init__(self, *args):
            super().__init__(*args)
            bases.append(self)

        def insert_products(self, stack, gens, skip):
            return super().insert_products(stack, gens, frozenset())

    # the patch restores whatever basis the caller has patched in
    with mock.patch.object(algebra, "SpanBasis", UnprunedBasis):
        trace = length_trace(S, max_len)
    return trace, bases[-1].reduced - 1


def _monomial_conjugate(S, rng):
    """S conjugated by a seeded monomial matrix M, a permutation matrix with
    non-zero weights: g -> M g M^-1, with M^-1 read off M."""
    n, p = S.n, S.field.p
    perm = rng.sample(range(n), n)
    weights = [rng.randrange(1, p) for _ in range(n)]
    m = FMatrix.from_rows(S.field, [[weights[i] if j == perm[i] else 0 for j in range(n)]
                                    for i in range(n)])
    m_inv = FMatrix.from_rows(S.field, [[pow(weights[j], p - 2, p) if i == perm[j] else 0
                                         for j in range(n)] for i in range(n)])
    assert m @ m_inv == FMatrix.identity(S.field, n)
    return GeneratorSet(S.field, n, tuple(m @ g @ m_inv for g in S.gens))


def _family_sets():
    """The diag-shift, Jordan-corner and upper-triangular families at
    n = 2-10 over GF(5), GF(19) and GF(10007), each conjugated by a seeded
    monomial matrix."""
    rng = random.Random(36)
    return [_monomial_conjugate(family(PrimeField(p), n), rng)
            for family in (diag_shift, jordan_corner, upper_triangular)
            for n in range(2, 11) for p in (5, 19, 10007)]


def _assert_skip_changes_nothing(sets):
    """length_trace equals the unpruned walk on every set, and brute_length
    at n <= 6."""
    for S in sets:
        trace = length_trace(S, S.n * S.n)
        assert trace == _unpruned_walk(S, S.n * S.n)[0], S
        if S.n <= 6:
            assert trace == brute_length(S, trace.length + 1), S


class TestClosureSkip:
    """length_trace skips every candidate whose suffix of one letter less
    is off the previous frontier, a product it proves dependent: the skip
    may change the number of vectors reduced, and nothing else."""

    def test_matches_unpruned_walk(self):
        # The families first: sample_generating_sets filters its sets with
        # length_trace, so a walk that never fills the span would keep it
        # sampling.
        _assert_skip_changes_nothing(_family_sets())
        _assert_skip_changes_nothing([S for S, _ in sample_generating_sets(
            30, dims=(2, 3, 4, 5, 6), primes=(5, 19, 10007), seed=36)])

    def test_reduction_counts(self, monkeypatch):
        bases = []

        class LoggedBasis(CountingBasis):
            def __init__(self, *args):
                super().__init__(*args)
                bases.append(self)

        monkeypatch.setattr(algebra, "SpanBasis", LoggedBasis)
        f19, f10007 = PrimeField(19), PrimeField(10007)
        rng = random.Random(36)
        pair = GeneratorSet(f10007, 8, tuple(random_matrix(f10007, 8, rng) for _ in range(2)))
        cases = [  # (set, reductions unpruned, reductions skipped), after the identity
            (jordan_corner(f19, 8), 123, 72),
            (diag_shift(f19, 8), 112, 77),
            (upper_triangular(f19, 8), 72, 45),
            (pair, 63, 63),  # a random dense pair: no candidate is skipped
        ]
        for S, unpruned, pruned in cases:
            trace, reductions = _unpruned_walk(S, S.n * S.n)
            assert length_trace(S, S.n * S.n) == trace
            assert (reductions, bases[-1].reduced - 1) == (unpruned, pruned)

    def test_wrong_rule_is_caught(self, monkeypatch):
        # A planted rule that also skips the first candidate of each level
        # that the closure keeps.
        class WrongRule(SpanBasis):
            def insert_products(self, stack, gens, skip):
                pairs = product(range(len(stack) // self.ambient_dim), range(len(gens)))
                first = next((pair for pair in pairs if pair not in skip), None)
                return super().insert_products(stack, gens, {*skip, first})

        monkeypatch.setattr(algebra, "SpanBasis", WrongRule)
        with pytest.raises(AssertionError):
            _assert_skip_changes_nothing(_family_sets())


def _product_frontier_walk(S, max_len):
    """The span walk with raw products on the frontier: each level multiplies
    the previous level's independent products by the generators with the
    schoolbook product, in length_trace's candidate order, and reduces every
    candidate with the oracle's elimination, skipping none."""
    n, p, d = S.n, S.field.p, S.n * S.n
    span = _GaussRows(p)
    ident = [int(i == j) for i in range(n) for j in range(n)]
    span.insert(ident)
    dims, words, frontier = [1], [], [((), ident)]
    while dims[-1] < d:
        if len(dims) > max_len:
            raise CapExceeded(max_len)
        level = []
        for u, mat in frontier:
            for i, g in enumerate(S.gens):
                prod = _schoolbook_product(mat, g.entries, n, p)
                if span.insert(prod):
                    level.append(((*u, i), prod))
        if not level:
            break
        frontier = level
        dims.append(len(span.rows))
        words.append(frontier[0][0])
    return LengthTrace(tuple(dims), len(dims) - 1, dims[-1], tuple(words))


def _small_families():
    """The diag-shift, Jordan-corner and upper-triangular families at n = 2-8
    over GF(5), GF(19) and GF(10007)."""
    return [family(PrimeField(p), n) for family in (jordan_corner, diag_shift, upper_triangular)
            for n in range(2, 9) for p in (5, 19, 10007)]


def _assert_matches_product_walk(sets):
    for S in sets:
        assert length_trace(S, S.n * S.n) == _product_frontier_walk(S, S.n * S.n), S


class TestNewRowFrontier:
    """length_trace multiplies each level's new basis rows, not its products:
    a new row is its product times a nonzero scalar plus an element of the
    span held before its insert, so every independence decision, and the
    trace, is that of the walk on raw products."""

    def test_matches_product_frontier_walk(self):
        _assert_matches_product_walk(_small_families())
        _assert_matches_product_walk([S for S, _ in sample_generating_sets(
            60, dims=(2, 3, 4, 5), primes=(2, 7, 10007, 2147483647), seed=38)])

    def test_row_off_its_coset_is_caught(self, monkeypatch):
        # A planted fault: each returned row gains 1 in its last entry, which
        # moves it off the coset of its product mod the span.
        class OffCoset(SpanBasis):
            def insert_slots(self, slots):
                row = super().insert_slots(slots)
                if row is not None:
                    row[-1] = (row[-1] + 1) % self.field.p
                return row

        monkeypatch.setattr(algebra, "SpanBasis", OffCoset)
        with pytest.raises(AssertionError):
            _assert_matches_product_walk(_small_families())


def _upper_triangular_mismatches(p: int) -> list[int]:
    """The n in 2..16 at which the walk on upper_triangular over GF(p) does
    not give the dims, l(S) and dim L(S) that its docstring proves."""
    out = []
    for n in range(2, 17):
        trace = length_trace(upper_triangular(PrimeField(p), n), n * n)
        dims = tuple((i + 1) * (i + 2) // 2 for i in range(n))
        if (trace.dims, trace.length, trace.generated_dim) != (dims, n - 1, dims[-1]):
            out.append(n)
    return out


class TestUpperTriangularDims:
    """dims[i] = (i + 1)(i + 2)/2 for the upper-triangular family, an exact
    check of the walk at every n past brute force.  The proof needs n <= p:
    over GF(5) at n = 6 the dims end at 20, not 21.  So both fields here
    have p >= 16, and nothing past n = p is checked."""

    @pytest.mark.parametrize("p", [17, 10007])
    def test_closed_form_at_every_n(self, p):
        assert _upper_triangular_mismatches(p) == []

    def test_residual_fault_is_caught(self, monkeypatch):
        # A planted fault that only d = n^2 >= 256 reaches: every residual
        # loses its last coordinate.
        class LastSlotLost(SpanBasis):
            def _residual(self, slots):
                res = list(super()._residual(slots))
                if self.ambient_dim >= 256:
                    res[-1] = 0
                return res

        monkeypatch.setattr(algebra, "SpanBasis", LastSlotLost)
        assert _upper_triangular_mismatches(17) == [16]
        assert length_trace(upper_triangular(PrimeField(17), 16), 256).generated_dim == 135


class TestChecks:
    def test_liw_complexity_example(self):
        report = check_liw_complexity(PAIR)
        assert report.length == 2 and report.generated_dim == 4
        assert [(e.i, e.complexity_total) for e in report.entries] == [(1, 2), (2, 4)]
        assert report.all_ok

    def test_liw_complexity_vacuous(self):
        report = check_liw_complexity(GeneratorSet(F5, 2, (FMatrix.identity(F5, 2),)))
        assert report.entries == () and report.all_ok

    def test_power_free_example(self):
        report = check_irreducible_power_free(PAIR, 2)
        assert report.all_ok
        assert all(e.exponent.value <= 1 for e in report.entries)

    def test_power_free_needs_big_field(self):
        f2 = PrimeField(2)
        gens = (FMatrix.from_rows(f2, [[0, 1], [0, 0]]),)
        with pytest.raises(ValueError):
            check_irreducible_power_free(GeneratorSet(f2, 2, gens), 2)

    def test_random_sets_satisfy_both(self):
        for S, _ in sample_generating_sets(25, dims=(2, 3), primes=(7,), seed=9):
            assert check_liw_complexity(S).all_ok
            assert check_irreducible_power_free(S, S.n).all_ok


def _reports(S, trace=None):
    """Both checks at m = n; on the oracle sets that includes the
    upper-triangular set at m = 3, the m the CLI certifies for it."""
    return check_liw_complexity(S, trace), check_irreducible_power_free(S, S.n, trace)


class TestWalkArgument:
    """Each check reads the walk its caller passes, and reports exactly what
    it reports when it walks on its own."""

    def test_given_walk_matches_own_walk(self):
        for S in _oracle_sets():
            assert _reports(S, length_trace(S, S.n * S.n)) == _reports(S), S

    def test_given_walk_is_not_repeated(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return length_trace(*args)

        monkeypatch.setattr(algebra, "length_trace", counted)
        for S in _oracle_sets():
            _reports(S, length_trace(S, S.n * S.n))
        assert calls == []

    def test_planted_walk_changes_the_report(self):
        # the same dims with the last word cut: each report loses its last row
        for S in _oracle_sets():
            trace = length_trace(S, S.n * S.n)
            comp, power = _reports(S, trace)
            assert comp.entries and power.entries, S
            planted = dataclasses.replace(trace, words=trace.words[:-1])
            assert _reports(S, planted) == (
                dataclasses.replace(comp, entries=comp.entries[:-1]),
                dataclasses.replace(power, entries=power.entries[:-1]),
            ), S


def _unpruned_m_star(S, cap):
    """Max minimal-polynomial degree over every word of length 1..cap,
    each multiplied out from scratch, with no dedup and no early stop."""
    best = 1
    for i in range(1, cap + 1):
        for word in product(S.gens, repeat=i):
            mat = word[0]
            for g in word[1:]:
                mat = mat @ g
            best = max(best, min_poly(mat).degree)
    return best


def _unit(field, n, r, c):
    return FMatrix.from_rows(field, [[int((i, j) == (r, c)) for j in range(n)] for i in range(n)])


class TestEstimateMStar:
    def test_matrix_unit_pair(self):
        assert estimate_m_star(PAIR, 2) == 2

    def test_against_unpruned_scan(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            field = PrimeField(rng.choice((2, 3, 5, 7)))
            # best below n: the identity, a nilpotent pair, matrix units
            low = [GeneratorSet(field, n, (FMatrix.identity(field, n),))] + [
                GeneratorSet(field, n, (_unit(field, n, 0, 1), _unit(field, n, 1, 2))),
                GeneratorSet(field, n, (_unit(field, n, 0, 2),)),
                GeneratorSet(field, n, (_unit(field, n, 0, 0), _unit(field, n, 2, 0))),
            ] * (n > 2)
            dense = [GeneratorSet(field, n, tuple(random_matrix(field, n, rng)
                                                  for _ in range(rng.choice((1, 2, 3)))))
                     for _ in range(8)]
            for S in low:
                assert estimate_m_star(S, 3) == _unpruned_m_star(S, 3) < n
            for S in dense:
                assert estimate_m_star(S, 3) == _unpruned_m_star(S, 3)

    def test_stops_at_matrix_size(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return min_poly(a)

        monkeypatch.setattr(algebra, "min_poly", counted)
        F7 = PrimeField(7)
        for n in (2, 3, 4, 5):
            diag = FMatrix.from_rows(F7, [[i + 1 if i == j else 0 for j in range(n)]
                                          for i in range(n)])
            S = GeneratorSet(F7, n, (diag, _unit(F7, n, 0, n - 1)))
            calls.clear()
            assert estimate_m_star(S, 4) == n
            assert calls == [diag]

    def test_identity(self):
        assert estimate_m_star(GeneratorSet(F5, 2, (FMatrix.identity(F5, 2),)), 3) == 1

    def test_non_positive_cap(self):
        with pytest.raises(ValueError, match=r"^word_len_cap must be >= 1$"):
            estimate_m_star(PAIR, 0)

    def test_bounded_by_matrix_size(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.choice((2, 3))
            S = GeneratorSet(F5, n, tuple(random_matrix(F5, n, rng) for _ in range(2)))
            assert 1 <= estimate_m_star(S, 3) <= n

    def test_budget(self, monkeypatch):
        # the products are diag(1, 1, 2^a 3^b) with 1 <= a + b <= 30: 495
        # distinct ones for 2^31 - 2 words, every one of degree 2 < n, so the
        # scan never stops early and keeps them all
        field = PrimeField(10007)
        S = GeneratorSet(field, 3, tuple(
            FMatrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, x]]) for x in (2, 3)
        ))
        for budget in (100, 494):
            monkeypatch.setattr(algebra, "DEFAULT_SEARCH_BUDGET", budget)
            msg = rf"^{budget + 1} distinct products exceed budget {budget}$"
            with pytest.raises(BudgetExceeded, match=msg):
                estimate_m_star(S, 30)
        for budget in (495, 10_000):
            monkeypatch.setattr(algebra, "DEFAULT_SEARCH_BUDGET", budget)
            assert estimate_m_star(S, 30) == 2


class TestMainTheoremSampling:
    def test_sampled_lengths_under_best_bound(self):
        for S, trace in sample_generating_sets(20, seed=21):
            bound = best_main_bound(S.n * S.n, S.n).integer_value
            assert trace.length <= bound


class TestInvariance:
    """Changes of generators that fix the algebra's filtration: no oracle is
    needed to see that the walk must not notice them."""

    @given(generator_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shift_by_identity(self, S, data):
        # g + lam*I differs from g by a product of length 0, so a product of
        # length i changes by an element of the span of the shorter ones
        ident = FMatrix.identity(S.field, S.n)
        lams = data.draw(st.lists(st.integers(0, S.field.p - 1),
                                  min_size=len(S.gens), max_size=len(S.gens)))
        shifted = tuple(g + ident.scale(lam) for g, lam in zip(S.gens, lams))
        assert (length_trace(GeneratorSet(S.field, S.n, shifted), S.n * S.n)
                == length_trace(S, S.n * S.n))

    @given(generator_sets(primes=(7, 11, 13)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_conjugation(self, S, data):
        # Q = y + lam*I with Q^-1 from shift_to_invertible (p > 5 >= deg mu_y)
        y = data.draw(matrices(S.field, S.n, data.draw(st.booleans())))
        shift = shift_to_invertible(y)
        ident = FMatrix.identity(S.field, S.n)
        q = y + ident.scale(shift.lam)
        assert q @ shift.inverse == ident
        conj = tuple(q @ g @ shift.inverse for g in S.gens)
        assert (length_trace(GeneratorSet(S.field, S.n, conj), S.n * S.n)
                == length_trace(S, S.n * S.n))

    @given(generator_sets(min_gens=2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_add_multiple_of_first(self, S, data):
        # g1 and g2 + c*g1 span what g1 and g2 span, so every level's span is
        # the same; the minimal words can change
        c = data.draw(st.integers(0, S.field.p - 1))
        g1, g2, *rest = S.gens
        mixed = GeneratorSet(S.field, S.n, (g1, g2 + g1.scale(c), *rest))
        assert length_trace(mixed, S.n * S.n).dims == length_trace(S, S.n * S.n).dims
