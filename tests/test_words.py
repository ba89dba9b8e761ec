from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_repeats, histogram_of, wd, words_st
from wordlen.oracles import enumerate_words, naive_profile
from wordlen.words import (
    ROW_LETTERS_MAX,
    Alphabet,
    SuffixAutomaton,
    Word,
    _build_dicts,
    _build_rows,
    complexity_profile,
    count_distinct_factors,
    factor_count,
    parse_word,
)


class TestAlphabet:
    def test_order_defines_ids(self):
        a = Alphabet(("a", "b", "c"))
        assert a.size == 3
        assert a.id_of("b") == 1
        assert a.id_of("z") is None

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", ""))

    def test_from_spec(self):
        assert Alphabet.from_spec("abc").symbols == ("a", "b", "c")
        assert Alphabet.from_spec("x1,x2").symbols == ("x1", "x2")

    def test_size_limits(self):
        with pytest.raises(ValueError, match=r"^letters\(\) supports sizes 1\.\.26$"):
            Alphabet.letters(27)
        with pytest.raises(ValueError, match=r"^alphabet size must be >= 1$"):
            Alphabet.indices(0)


class TestParse:
    def test_identity_mapping(self):
        w = parse_word("abc", Alphabet.letters(3))
        assert w.letters == (0, 1, 2)

    def test_empty_text_is_empty_word(self):
        w = parse_word("", Alphabet.letters(2))
        assert len(w) == 0 and w.letters == ()

    def test_unknown_token_position(self):
        with pytest.raises(ValueError, match=r"^unknown token 'd' at position 2$"):
            parse_word("abd", Alphabet(("a", "b", "c")))

    def test_comma_tokens_round_trip(self):
        a = Alphabet.from_spec("x1,x2")
        w = parse_word("x1,x2,x1", a)
        assert w.letters == (0, 1, 0)
        assert w.render() == "x1,x2,x1"

    def test_word_validates_letter_ids(self):
        with pytest.raises(ValueError):
            Word((0, 5), Alphabet.letters(2))

    def test_factor_out_of_range(self):
        w = wd("abc")
        assert w.factor(1, 3).letters == (1, 2)
        for start, end in ((2, 1), (-1, 2), (0, 4)):
            with pytest.raises(IndexError, match=rf"^factor span \[{start}, {end}\) out of range$"):
                w.factor(start, end)


class TestFactorCount:
    def test_length_three_factors(self):
        assert factor_count(wd("abbabbabbb"), 3) == 4

    def test_boundaries(self):
        w = wd("abbab")
        assert factor_count(w, 0) == 1
        assert factor_count(w, len(w)) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^factor length 3 outside \[0, 2\]$"):
            factor_count(wd("ab"), 3)
        with pytest.raises(ValueError, match=r"^factor length -1 outside \[0, 2\]$"):
            factor_count(wd("ab"), -1)


class TestComplexityProfile:
    def test_worked_example(self):
        prof = complexity_profile(wd("abbabbabbb"))
        assert prof.counts == (1, 2, 3, 4, 4, 4, 4, 4, 3, 2, 1)
        assert prof.total == 32

    def test_unary(self):
        prof = complexity_profile(wd("aaa"))
        assert prof.counts == (1, 1, 1, 1)
        assert prof.total == 4

    def test_empty(self):
        prof = complexity_profile(parse_word("", Alphabet.letters(2)))
        assert prof.counts == (1,) and prof.total == 1

    def test_random_length_12_matches_naive(self):
        rng = random.Random(12)
        for _ in range(100):
            w = Word(tuple(rng.randrange(2) for _ in range(12)), Alphabet.letters(2))
            assert complexity_profile(w) == naive_profile(w)

    def test_total_counts(self):
        assert count_distinct_factors(wd("abbabbabbb")) == 32
        assert count_distinct_factors(wd("ab")) == 4  # e, a, b, ab
        assert count_distinct_factors(wd("")) == 1  # the empty factor alone

    def test_1000_random_words_match_naive_total(self):
        rng = random.Random(200)
        for _ in range(1000):
            k = rng.choice((2, 3, 4))
            l = rng.randint(1, 200)
            w = Word(tuple(rng.randrange(k) for _ in range(l)), Alphabet.letters(k))
            assert count_distinct_factors(w) == naive_profile(w).total

    def test_total_equals_distinct_count_exhaustive_binary(self):
        for w in enumerate_words(2, 14):
            prof = complexity_profile(w)
            assert prof.total == count_distinct_factors(w)
            assert prof.total == sum(prof.counts)

    @given(words_st(min_size=1, max_size=50))
    @settings(max_examples=300)
    def test_step_down_by_at_most_one(self, w):
        counts = complexity_profile(w).counts
        for n in range(len(w)):
            assert counts[n + 1] >= counts[n] - 1

    @given(words_st(min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_count_bounds(self, w):
        counts = complexity_profile(w).counts
        l = len(w)
        k = w.alphabet.size
        assert counts[0] == 1
        assert counts[l] == 1
        assert counts[1] == len(set(w.letters))
        for n in range(l + 1):
            assert 1 <= counts[n] <= min(k**n, l - n + 1)
        assert sum(counts) >= l + 1

    @pytest.mark.parametrize("letters, alphabet", [
        ((), Alphabet.letters(2)),
        ((0,), Alphabet.letters(2)),
        ((0,) * 1_000, Alphabet.letters(1)),  # R = l - 1: the range tail is f(l) alone
        (tuple(range(300)), Alphabet(tuple(f"t{i}" for i in range(300)))),  # dicts
    ])
    def test_edge_cases_match_naive(self, letters, alphabet):
        w = Word(letters, alphabet)
        assert complexity_profile(w) == naive_profile(w)

    def test_histogram(self):
        # repeat lengths 0, 0, 1, 1, 2, 3, 4, 5, 6, 2: R = 6, and h[R + 1] = 0
        assert SuffixAutomaton(wd("abbabbabbb").letters).histogram == [2, 2, 2, 1, 1, 1, 1, 0]
        assert SuffixAutomaton(()).histogram == [0, 0]
        for w in enumerate_words(3, 7):
            expected = histogram_of(brute_repeats(w.letters))
            assert SuffixAutomaton(w.letters).histogram == expected, w.render()

    def test_large_word_fast_path(self):
        rng = random.Random(9)
        w = Word(tuple(rng.randrange(2) for _ in range(50_000)), Alphabet.letters(2))
        prof = complexity_profile(w)
        assert prof.total == count_distinct_factors(w)
        assert prof.counts[1] == 2


def words_with_exactly(rng: random.Random, alphabet: Alphabet, k: int, count: int) -> list[Word]:
    """Seeded words that use exactly k letters of the alphabet: random ones,
    and near-periodic ones (a base holding all k letters, repeated, a few
    letters changed), which force long repeats and many clones."""
    out = []
    for _ in range(count):
        used = rng.sample(range(alphabet.size), k)
        l = rng.randint(k, 2 * k + 100)
        if rng.random() < 0.5:
            letters = used + [rng.choice(used) for _ in range(l - k)]
            rng.shuffle(letters)
        else:
            base = used + [rng.choice(used) for _ in range(rng.randint(0, k // 4))]
            rng.shuffle(base)
            letters = [base[i % len(base)] for i in range(max(l, 2 * len(base)))]
            for _ in range(rng.randint(0, 3)):
                letters[rng.randrange(len(base), len(letters))] = rng.choice(used)
        out.append(Word(tuple(letters), alphabet))
    return out


class TestTransitionStores:
    """Words with at most ROW_LETTERS_MAX distinct letters build on per-letter
    rows, wider ones on per-state dicts; both must match the oracles."""

    @pytest.mark.parametrize("k", [ROW_LETTERS_MAX, ROW_LETTERS_MAX + 1])
    def test_both_sides_of_the_selection_match_naive(self, k):
        rng = random.Random(1600 + k)
        for w in words_with_exactly(rng, Alphabet.letters(26), k, 60):
            assert len(set(w.letters)) == k
            prof = complexity_profile(w)
            assert prof == naive_profile(w), w.render()
            assert count_distinct_factors(w) == prof.total

    def test_many_token_alphabet_matches_naive(self):
        rng = random.Random(300)
        alphabet = Alphabet(tuple(f"t{i}" for i in range(300)))
        for k in (2, 17, 50, 300):
            for w in words_with_exactly(rng, alphabet, k, 6):
                prof = complexity_profile(w)
                assert prof == naive_profile(w), (k, w.render())
                assert count_distinct_factors(w) == prof.total

    def test_repeats_exhaustive_binary(self):
        for w in enumerate_words(2, 10):
            expected = histogram_of(brute_repeats(w.letters))
            assert SuffixAutomaton(w.letters).histogram == expected, w.render()

    def test_builds_agree_state_for_state(self):
        # both builds number the prefix state of letters[:e] as e and the
        # clones l + 1, l + 2, ... in the order they are made
        for k, max_len in ((2, 11), (3, 7)):
            for w in enumerate_words(k, max_len):
                letters = w.letters
                built = _build_dicts(letters)
                assert _build_rows(letters, set(letters)) == built, w.render()
                maxlen, _, h = built
                assert maxlen[: len(letters) + 1] == list(range(len(letters) + 1))
                assert h == histogram_of(brute_repeats(letters)), w.render()

    def test_histogram_lemma(self):
        # L_0 = 0 and L_e <= L_(e-1) + 1, so both builds trim h to exactly
        # h[0..R + 1]: h[n] >= 1 up to R, then one 0, and the ends sum to l.
        # R is the largest n with a repeated length-n factor, read off the
        # substring-set profile as f(n) <= l - n (0 for the empty word).
        for k, max_len in ((2, 12), (3, 8)):
            for w in enumerate_words(k, max_len):
                letters, l = w.letters, len(w)
                counts = naive_profile(w).counts
                r = max((n for n in range(l + 1) if counts[n] <= l - n), default=0)
                for _, _, h in (_build_rows(letters, set(letters)), _build_dicts(letters)):
                    assert len(h) == r + 2 and h[-1] == 0 and sum(h) == l, w.render()
                    assert l == 0 or min(h[: r + 1]) >= 1, w.render()

    def test_wide_alphabet_memory(self):
        # 2,000 distinct letters, each used twice: per-state dicts stay small,
        # where per-letter rows would preallocate about 128 MB
        rng = random.Random(2000)
        letters = list(range(2000)) * 2
        rng.shuffle(letters)
        w = Word(tuple(letters), Alphabet.indices(2000))
        tracemalloc.start()
        try:
            prof = complexity_profile(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prof.counts[1] == 2000
        assert peak < 16 * 2**20

