from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word, wd, words_st
from wordlen.oracles import WordSpace, brute_min_qpt, enumerate_words, naive_profile
from wordlen.structure import (
    LengthMismatch,
    PreconditionUnmet,
    ProfileShape,
    QptDecomposition,
    RangeViolation,
    corollary_max_profile,
    decompose_check,
    mh_equivalence,
    mh_general_equivalence,
    minimal_qpt,
    profile_shape,
)
from wordlen.words import Alphabet, Word, factor_count

ternary_words = st.lists(st.integers(0, 2), min_size=1, max_size=30).map(
    lambda letters: Word(tuple(letters), Alphabet.letters(3))
)


class TestDecomposeCheck:
    def test_worked_example(self):
        # abbabbabaa = (abb)^{8/3} aa
        dec = QptDecomposition(0, 3, 2, 10)
        assert decompose_check(wd("abbabbabaa"), dec)
        assert dec.cost == 5
        assert dec.core_exponent.num == 8 and dec.core_exponent.den == 3

    def test_unary(self):
        assert decompose_check(wd("aaaa"), QptDecomposition(0, 1, 0, 4))

    def test_direct_letter_comparison(self):
        assert not decompose_check(wd("abab"), QptDecomposition(0, 3, 0, 4))

    def test_vacuous_when_core_shorter_than_period(self):
        # middle segment 'bcd' with p=3: empty comparison range, passes
        assert decompose_check(wd("abcd"), QptDecomposition(1, 3, 0, 4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            decompose_check(wd("abc"), QptDecomposition(0, 1, 0, 4))

    def test_validation(self):
        for bad in [(-1, 1, 0, 4), (0, 0, 0, 4), (0, 1, -1, 4), (3, 1, 2, 4)]:
            with pytest.raises(ValueError):
                QptDecomposition(*bad)


class TestMinimalQpt:
    def test_worked_example(self):
        assert minimal_qpt(wd("abbabbabaa")) == QptDecomposition(0, 3, 2, 10)

    def test_unary(self):
        assert minimal_qpt(wd("aaaa")) == QptDecomposition(0, 1, 0, 4)

    def test_all_distinct(self):
        assert minimal_qpt(wd("abcd")) == QptDecomposition(0, 4, 0, 4)

    def test_tie_break_prefers_small_q(self):
        # cost 3 achievable as (0,1,2) and (2,1,0); smallest q wins
        assert minimal_qpt(wd("aabb")) == QptDecomposition(0, 1, 2, 4)

    def test_tie_break_among_repeated_factors(self):
        # R = 2: cd (0, 8) and ab (2, 5) both repeat; the leftmost, cd, wins
        assert minimal_qpt(wd("cdabxabycd")) == QptDecomposition(0, 8, 0, 10)
        # ab repeats at 0, 3 and 6: the rightmost occurrence gives the smallest t
        assert minimal_qpt(wd("abxabyab")) == QptDecomposition(0, 6, 0, 8)
        # bc (1, 6) is the leftmost repeat; ab (5, 8) lies to its right
        assert minimal_qpt(wd("xbcyzabcab")) == QptDecomposition(1, 5, 2, 10)
        for text in ("cdabxabycd", "abxabyab", "xbcyzabcab"):
            assert minimal_qpt(wd(text)) == brute_min_qpt(wd(text)), text

    def test_cost_is_length_minus_longest_repeat(self):
        # R from substring sets: the largest n with f(n) <= l - n
        rng = random.Random(404)
        for _ in range(12):
            k = rng.choice((2, 3, 4))
            l = rng.randint(100, 1000)
            w = Word(tuple(rng.randrange(k) for _ in range(l)), Alphabet.letters(k))
            counts = naive_profile(w).counts
            r = max(n for n in range(l + 1) if counts[n] <= l - n)
            dec = minimal_qpt(w)
            assert dec.cost == l - r, (k, l)
            assert decompose_check(w, dec)

    @given(ternary_words)
    @settings(max_examples=150, deadline=None)
    def test_against_brute_force(self, w):
        assert minimal_qpt(w) == brute_min_qpt(w)

    def test_empty_rejected(self):
        from wordlen.words import Alphabet, parse_word

        with pytest.raises(ValueError):
            minimal_qpt(parse_word("", Alphabet.letters(2)))

    @given(words_st(min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_soundness_and_cost_bounds(self, w):
        dec = minimal_qpt(w)
        assert decompose_check(w, dec)
        assert dec.cost <= len(w)
        assert (dec.cost == 1) == (len(set(w.letters)) == 1)


class TestEquivalence:
    def test_worked_example(self):
        assert mh_equivalence(wd("abbabbabaa"), 5) == (True, True)

    def test_unary(self):
        assert mh_equivalence(wd("aaaa"), 1) == (True, True)

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            mh_equivalence(wd("abab"), 3)
        with pytest.raises(RangeViolation):
            mh_equivalence(wd("abab"), 0)

    def test_exhaustive_small(self):
        for space in (WordSpace(2, 12), WordSpace(3, 8)):
            for w in enumerate_words(space):
                for n in range(1, len(w) // 2 + 1):
                    lhs, rhs = mh_equivalence(w, n)
                    assert lhs == rhs, (w.render(), n)


class TestGeneralEquivalence:
    def test_reduces_to_basic_case(self):
        assert mh_general_equivalence(wd("abbabbabaa"), 5, 5) == (True, True)

    def test_unary_window(self):
        assert mh_general_equivalence(wd("aaaaaa"), 3, 1) == (True, True)

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            mh_general_equivalence(wd("abab"), 1, 2)
        with pytest.raises(RangeViolation):
            mh_general_equivalence(wd("abab"), 4, 1)
        with pytest.raises(RangeViolation):
            mh_general_equivalence(wd("abab"), 1, 0)

    def test_exhaustive_small(self):
        for w in enumerate_words(WordSpace(2, 10)):
            l = len(w)
            for m in range(1, l // 2 + 1):
                for n in range(m, l - m + 1):
                    lhs, rhs = mh_general_equivalence(w, n, m)
                    assert lhs == rhs, (w.render(), n, m)


class TestCorollaryMaxProfile:
    def test_worked_example(self):
        assert corollary_max_profile(wd("abbabbabaa"), 5)

    def test_unary(self):
        assert corollary_max_profile(wd("aaaa"), 1)

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            corollary_max_profile(wd("abab"), 3)  # n > l/2
        with pytest.raises(PreconditionUnmet):
            corollary_max_profile(wd("abcabd"), 2)  # f(2) = 4 > 2

    def test_exhaustive_small(self):
        for w in enumerate_words(WordSpace(2, 12)):
            for n in range(1, len(w) // 2 + 1):
                if factor_count(w, n) <= n:
                    assert corollary_max_profile(w, n)


class TestProfileShape:
    def test_worked_example(self):
        assert profile_shape(wd("abbabbabbb")) == ProfileShape(3, 7, 4)

    def test_unary(self):
        assert profile_shape(wd("aaaa")) == ProfileShape(0, 4, 1)

    def test_short_words(self):
        assert profile_shape(wd("ab")) == ProfileShape(1, 1, 2)
        assert profile_shape(wd("abcd")) == ProfileShape(1, 1, 4)
        assert profile_shape(wd("a")) == ProfileShape(0, 1, 1)

    def test_random_words_never_violate(self):
        rng = random.Random(31)
        for _ in range(2000):
            profile_shape(random_word(rng, 120))

    def test_exhaustive_small(self):
        for w in enumerate_words(WordSpace(3, 9)):
            shape = profile_shape(w)
            assert 0 <= shape.m_star <= shape.plateau_end <= len(w)
