from __future__ import annotations

import random

import pytest

from conftest import random_word, wd
from wordlen import oracles
from wordlen.algebra import BudgetExceeded, CapExceeded, GeneratorSet
from wordlen.linalg import FMatrix, PrimeField
from wordlen.powers import Exponent
from wordlen.oracles import (
    brute_length,
    brute_max_exponent,
    brute_min_qpt,
    enumerate_words,
    naive_profile,
)
from wordlen.structure import QptDecomposition, minimal_qpt
from wordlen.words import Alphabet, Word, parse_word

F5 = PrimeField(5)
E12 = FMatrix.from_rows(F5, [[0, 1], [0, 0]])
E21 = FMatrix.from_rows(F5, [[0, 0], [1, 0]])


class TestEnumerateWords:
    def test_small_binary(self):
        rendered = [w.render() for w in enumerate_words(2, 2)]
        assert rendered == ["a", "b", "aa", "ab", "ba", "bb"]

    def test_unary(self):
        rendered = [w.render() for w in enumerate_words(1, 3)]
        assert rendered == ["a", "aa", "aaa"]

    def test_counts_per_length(self):
        per_length: dict[int, int] = {}
        for w in enumerate_words(3, 4):
            per_length[len(w)] = per_length.get(len(w), 0) + 1
        assert per_length == {1: 3, 2: 9, 3: 27, 4: 81}
        assert sum(per_length.values()) == 120

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match=r"^2046 words exceed budget 100$"):
            list(enumerate_words(2, 10, budget=100))

    def test_shards_partition(self):
        for k, l in ((2, 6), (2, 14), (3, 9), (4, 5)):
            full = [w.letters for w in enumerate_words(k, l)]
            for of in (1, 3, 64, 1000):
                pieces = [
                    [w.letters for w in enumerate_words(k, l, shard=(i, of))]
                    for i in range(of)
                ]
                assert sorted(sum(pieces, [])) == sorted(full)
                assert sum(len(p) for p in pieces) == len(full)
                # Shard i holds the words of running index i mod of, in order.
                assert all(pieces[i % of][i // of] == w for i, w in enumerate(full))

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_words(2, 2, shard=(3, 3)))

    def test_checked_when_called(self):
        # not at the first word: a sweep rejects its space before running
        with pytest.raises(BudgetExceeded):
            enumerate_words(2, 10, budget=100)
        with pytest.raises(ValueError):
            enumerate_words(2, 2, shard=(3, 3))
        with pytest.raises(ValueError):
            enumerate_words(0, 2)
        # the alphabet before the budget: 27^6 + ... words exceed it
        with pytest.raises(ValueError, match=r"^alphabet size must be <= 26 \(letters a\.\.z\), got 27$"):
            enumerate_words(27, 6)


class TestNaiveProfile:
    def test_worked_example(self):
        prof = naive_profile(wd("abbabbabbb"))
        assert prof.total == 32
        assert prof.counts[0] == 1

    def test_empty(self):
        prof = naive_profile(parse_word("", Alphabet.letters(2)))
        assert prof.counts == (1,)

    def test_length_cap(self):
        w = Word((0,) * 1001, Alphabet.letters(2))
        with pytest.raises(ValueError, match=r"^naive_profile handles length <= 1000$"):
            naive_profile(w)


class TestBruteMinQpt:
    def test_worked_example(self):
        assert brute_min_qpt(wd("abbabbabaa")) == QptDecomposition(0, 3, 2, 10)

    def test_unary(self):
        assert brute_min_qpt(wd("aaaa")) == QptDecomposition(0, 1, 0, 4)

    def test_length_cap(self):
        with pytest.raises(ValueError, match=r"^brute_min_qpt handles length <= 30$"):
            brute_min_qpt(Word((0,) * 31, Alphabet.letters(2)))

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^brute_min_qpt requires a non-empty word$"):
            brute_min_qpt(parse_word("", Alphabet.letters(2)))

    def test_agreement_exhaustive_binary(self):
        for w in enumerate_words(2, 16):
            assert minimal_qpt(w) == brute_min_qpt(w), w.render()

    def test_agreement_random_longer(self):
        rng = random.Random(101)
        for _ in range(150):
            w = random_word(rng, 30, alphabet_sizes=(2, 3))
            assert minimal_qpt(w) == brute_min_qpt(w), w.render()


class TestBruteMaxExponent:
    def test_examples(self):
        assert brute_max_exponent(wd("abcdbcdef")) == (Exponent(6, 3), (1, 7))
        assert brute_max_exponent(wd("abbabbabbb")) == (Exponent(9, 3), (0, 9))
        assert brute_max_exponent(wd("abcacbabcbac")) == (Exponent(7, 4), (4, 11))
        assert brute_max_exponent(wd("abcdef")) == (Exponent(1, 1), (0, 1))

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^brute_max_exponent of the empty word$"):
            brute_max_exponent(parse_word("", Alphabet.letters(2)))

    def test_length_cap(self):
        with pytest.raises(ValueError, match=r"^brute_max_exponent handles length <= 2000$"):
            brute_max_exponent(Word((0,) * 2001, Alphabet.letters(2)))


class TestBruteLength:
    def test_matrix_unit_pair(self):
        trace = brute_length(GeneratorSet(F5, 2, (E12, E21)), cap=4)
        assert trace.dims == (1, 3, 4) and trace.length == 2
        assert trace.words == ((0,), (0, 1))

    def test_identity(self):
        trace = brute_length(GeneratorSet(F5, 2, (FMatrix.identity(F5, 2),)), cap=3)
        assert trace.length == 0 and trace.words == ()

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(oracles, "BRUTE_LENGTH_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match=r"^\|S\|\^cap = 16 exceeds budget 10$"):
            brute_length(GeneratorSet(F5, 2, (E12, E21)), cap=4)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            brute_length(GeneratorSet(F5, 2, (E12, E21)), cap=1)

    def test_non_positive_cap(self):
        with pytest.raises(ValueError, match=r"^cap must be >= 1$"):
            brute_length(GeneratorSet(F5, 2, (E12, E21)), cap=0)
