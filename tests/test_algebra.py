from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import sample_generating_sets
from wordlen import algebra
from wordlen.algebra import (
    BudgetExceeded,
    CapExceeded,
    GeneratorSet,
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
from wordlen.oracles import _GaussRows, brute_length
from wordlen.words import Word, count_distinct_factors

F5 = PrimeField(5)
E12 = FMatrix.from_rows(F5, [[0, 1], [0, 0]])
E21 = FMatrix.from_rows(F5, [[0, 0], [1, 0]])
PAIR = GeneratorSet(F5, 2, (E12, E21))


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
            vecs.append(list(mat.vectorize()))
        levels.append([(w, any(span._reduced(v))) for w, v in zip(words, vecs)])
        for v in vecs:
            span.insert(v)
    return levels, len(span.rows)


def _jordan_corner(field, n):
    """The n x n Jordan block with eigenvalue 1 and the corner unit E_n1;
    they generate the full matrix algebra with l(S) = 2n - 2."""
    jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    corner = [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
    return GeneratorSet(field, n, tuple(FMatrix.from_rows(field, g) for g in (jordan, corner)))


def _diag_shift(field, n):
    """diag(1..n) and the cyclic shift; they generate the full matrix
    algebra with l(S) = n."""
    diag = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    shift = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    return GeneratorSet(field, n, tuple(FMatrix.from_rows(field, g) for g in (diag, shift)))


def _upper_triangular(field, n):
    """diag(1..n) and the n x n Jordan block; they span only the
    upper-triangular matrices, with l(S) = n - 1."""
    diag = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    return GeneratorSet(field, n, tuple(FMatrix.from_rows(field, g) for g in (diag, jordan)))


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
    basis.insert(ident.vectorize())
    bases = [basis.copy()]
    prods = [ident]  # every product of the current length, in lex order
    while basis.dim < ambient:
        prods = [mat @ g for mat in prods for g in S.gens]
        grew = [basis.insert(mat.vectorize()) for mat in prods]
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
    return bases[min(len(word), len(bases)) - 1].contains(prod.vectorize())


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
        if bases[len(word)].contains(prod.vectorize()):
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
        _jordan_corner(PrimeField(11), 4),
        _jordan_corner(PrimeField(11), 5),
        _upper_triangular(PrimeField(7), 3),
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
            comp = check_liw_complexity(S)
            power = check_irreducible_power_free(S, S.n)
            assert [e.word for e in comp.entries] == [e.word for e in power.entries]
            assert [e.word for e in comp.entries] == ref[:length]
            assert (comp.length, comp.generated_dim, power.length) == (length, rank, length)

    def test_walk_words_match_search(self):
        families = [
            family(PrimeField(p), n)
            for family in (_diag_shift, _jordan_corner, _upper_triangular)
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
