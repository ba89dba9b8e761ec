from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fibonacci_letters,
    random_word,
    square_free_ternary_letters,
    thue_morse_letters,
    wd,
    words_st,
)
from wordlen import powers
from wordlen.oracles import brute_max_exponent, enumerate_words
from wordlen.powers import Exponent, avoids, max_factor_exponent, verify_tc
from wordlen.verify import _check_tc
from wordlen.words import Alphabet, Word, border_array, complexity_profile, parse_word


def dumb_max_exponent(w: Word) -> tuple[Fraction, tuple[int, int]]:
    """All-factors oracle: direct period scan per factor, no border arrays."""
    letters = w.letters
    l = len(letters)
    best = Fraction(1)
    span = (0, 1)
    for i in range(l):
        for j in range(i + 1, l + 1):
            seg = letters[i:j]
            length = j - i
            period = length
            for p in range(1, length):
                if all(seg[x] == seg[x + p] for x in range(length - p)):
                    period = p
                    break
            value = Fraction(length, period)
            if value > best:
                best = value
                span = (i, j)
    return best, span


def near_periodic_letters(rng: random.Random, length: int) -> tuple[int, ...]:
    k = rng.choice((2, 3))
    base = [rng.randrange(k) for _ in range(rng.randint(2, 15))]
    letters = [base[i % len(base)] for i in range(length)]
    for _ in range(rng.randint(0, 4)):
        letters[rng.randrange(length)] = rng.randrange(k)
    return tuple(letters)


class TestMinimalPeriod:
    """The minimal period of a word is its length minus its longest border,
    read off the last entry of `border_array`, the building block of the
    `brute_max_exponent` oracle."""

    @staticmethod
    def period(w: Word) -> int:
        return len(w) - border_array(w.letters)[-1]

    def test_examples(self):
        assert self.period(wd("abcabca")) == 3
        assert self.period(wd("aaaa")) == 1
        assert self.period(wd("abcd")) == 4

    def test_empty(self):
        assert border_array(()) == []

    @given(words_st(min_size=1, max_size=12, max_alphabet=3), st.integers(1, 4))
    @settings(max_examples=200)
    def test_period_of_whole_powers(self, base, reps):
        p = self.period(Word(base.letters * reps, base.alphabet))
        assert p <= len(base)
        if reps >= 2:
            assert len(base) % p == 0


class TestExponentType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Exponent(1, 2)
        with pytest.raises(ValueError):
            Exponent(0, 0)

    def test_value_and_str(self):
        e = Exponent(6, 3)
        assert e.value == 2
        assert str(e) == "6/3"


class TestMaxFactorExponent:
    def test_square_witness(self):
        exp, span = max_factor_exponent(wd("abcdbcdef"))
        assert (exp.num, exp.den) == (6, 3)
        assert exp.value == 2
        assert span == (1, 7)

    def test_distinct_letters(self):
        exp, span = max_factor_exponent(wd("abcdef"))
        assert exp.value == 1
        assert span == (0, 1)

    def test_worked_example_word(self):
        # the length-9 prefix is a cube; leftmost witness beats bbb
        exp, span = max_factor_exponent(wd("abbabbabbb"))
        assert (exp.num, exp.den) == (9, 3)
        assert exp.value == 3
        assert span == (0, 9)

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^max_factor_exponent of the empty word$"):
            max_factor_exponent(parse_word("", Alphabet.letters(2)))

    def test_below_two_witnesses(self):
        # no factor is a square, so no run of exponent >= 2 sees the witness
        exp, span = max_factor_exponent(wd("abcab"))
        assert (exp.num, exp.den) == (5, 3) and span == (0, 5)
        exp, span = max_factor_exponent(wd("abcacbabcbac"))
        assert (exp.num, exp.den) == (7, 4) and span == (4, 11)

    def test_equal_values_keep_the_leftmost_witness(self):
        # a later square of period 1 is found first; the leftmost one wins
        exp, span = max_factor_exponent(wd("abcbcaa"))
        assert (exp.num, exp.den) == (4, 2) and span == (1, 5)
        # the whole word, at the largest period the scan reaches, ties aa
        exp, span = max_factor_exponent(wd("abaaba"))
        assert (exp.num, exp.den) == (6, 3) and span == (0, 6)

    def test_against_brute_oracle_long_words(self):
        rng = random.Random(2024)
        cases = [
            (tuple(rng.randrange(k) for _ in range(length)), k)
            for k, length in ((2, 1000), (2, 613), (3, 1000), (3, 257), (4, 1000),
                              (4, 480), (2, 90), (3, 750), (5, 333), (4, 1000))
        ]
        cases += [(fibonacci_letters(n), 2) for n in (100, 377, 610, 987, 1000)]
        cases += [(thue_morse_letters(n), 2) for n in (64, 200, 511, 512, 1000)]
        cases += [(square_free_ternary_letters(n), 3) for n in (50, 300, 700, 1000)]
        cases += [(near_periodic_letters(rng, n), 3) for n in (120, 400, 800, 999, 1000)]
        for letters, k in cases:
            w = Word(letters, Alphabet.letters(k))
            assert max_factor_exponent(w) == brute_max_exponent(w), (k, len(w))
        sqfree = Word(square_free_ternary_letters(1000), Alphabet.letters(3))
        assert max_factor_exponent(sqfree)[0].value < 2

    def test_against_dumb_oracle_exhaustive(self):
        for k, l in ((2, 10), (3, 7)):
            for w in enumerate_words(k, l):
                exp, span = max_factor_exponent(w)
                value, dumb_span = dumb_max_exponent(w)
                assert exp.value == value, w.render()
                assert span == dumb_span, w.render()

    def test_against_dumb_oracle_random(self):
        rng = random.Random(77)
        for _ in range(100):
            w = random_word(rng, 30, alphabet_sizes=(2, 3))
            exp, span = max_factor_exponent(w)
            value, dumb_span = dumb_max_exponent(w)
            assert exp.value == value and span == dumb_span


class TestWideSlots:
    """Letter ids past 255 take s > 1 bytes per mask slot."""

    @pytest.mark.parametrize("k, same_low_byte", [
        (257, (0, 256)),
        (1000, (1, 257, 513, 769)),
        (65538, (1, 257, 65537)),
    ])
    def test_letters_equal_in_the_low_byte_differ(self, k, same_low_byte):
        alphabet = Alphabet.indices(k)
        a, b = same_low_byte[:2]
        # abababa has exponent 7/2; with a == b it would read 7/1
        w = Word((a, b) * 3 + (a,), alphabet)
        assert max_factor_exponent(w) == (Exponent(7, 2), (0, 7))
        rng = random.Random(k)
        for _ in range(60):
            letters = tuple(rng.choice(same_low_byte) for _ in range(rng.randint(1, 60)))
            w = Word(letters, alphabet)
            assert max_factor_exponent(w) == brute_max_exponent(w), letters

    def test_letters_equal_in_the_high_byte_differ(self):
        alphabet = Alphabet.indices(1000)
        w = Word((256, 257, 256, 257, 256, 300, 300, 256), alphabet)
        assert max_factor_exponent(w) == brute_max_exponent(w) == (Exponent(5, 2), (0, 5))

    @pytest.mark.parametrize("k", [2, 257, 300, 1000])
    def test_random_words_against_brute_oracle(self, k):
        rng = random.Random(7 * k)
        alphabet = Alphabet.indices(k)
        for length in (1, 2, 50, 333, 1000):
            for used in (2, 5, k):
                pool = rng.sample(range(k), min(used, k))
                w = Word(tuple(rng.choice(pool) for _ in range(length)), alphabet)
                assert max_factor_exponent(w) == brute_max_exponent(w), (k, length, used)


def errata_letters(rng: random.Random, length: int, pool: list[int]) -> tuple[int, ...]:
    """A random block over pool repeated to length, with 0-3 letters changed."""
    block = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    letters = [block[i % len(block)] for i in range(length)]
    for _ in range(rng.randint(0, 3)):
        letters[rng.randrange(length)] = rng.choice(pool)
    return tuple(letters)


def band_hits(args: tuple) -> list[tuple[int, int, int]]:
    """The (j, g, byte distance) of every hit of the block search of one
    `powers._band_runs` call, misaligned ones and ones inside known runs
    included."""
    packed, s, l, lo, hi, g = args[:6]
    hits = []
    for a in range(0, s * (l - lo - g + 1), s * g):
        block, stop = packed[a : a + s * g], a + s * (hi - 1 + g)
        k = packed.find(block, a + s * lo, stop)
        while k >= 0:
            hits.append((a // s, g, k - a))
            k = packed.find(block, k + 1, stop)
    return hits


def byte_periodic_letters(rng: random.Random, length: int, q: int) -> tuple[int, ...]:
    """Two-byte letters whose bytes repeat a random block of q bytes, odd q,
    with 2 letters changed: a block of letters recurs q bytes later, half a
    letter slot off."""
    raw = bytes(rng.choice(b"\x01\x02\x03") for _ in range(q)) * (2 * length // q + 1)
    letters = [raw[2 * i] + 256 * raw[2 * i + 1] for i in range(length)]
    for _ in range(2):
        letters[rng.randrange(length)] = rng.choice(letters)
    return tuple(letters)


def sparse_errata_letters(rng: random.Random, length: int, q: int, gap: int) -> tuple[int, ...]:
    """A random binary block of q letters repeated to length, with one letter
    flipped every gap // 2 to gap letters."""
    base = [rng.randrange(2) for _ in range(q)]
    letters = [base[i % q] for i in range(length)]
    x = rng.randrange(gap // 2, gap)
    while x < length:
        letters[x] ^= 1
        x += rng.randrange(gap // 2, gap)
    return tuple(letters)


class TestSampledWindows:
    """Periods whose run threshold gives blocks of at least
    WINDOW_LETTERS_MIN letters are scanned by a block search over doubling
    bands of periods; both modes must give the oracle's exponent, num/den
    and witness exactly."""

    @pytest.mark.parametrize("window_min", [1, 2, 3])
    def test_small_windows_against_brute_oracle(self, monkeypatch, window_periods,
                                                window_min):
        monkeypatch.setattr(powers, "WINDOW_LETTERS_MIN", window_min)
        for w in enumerate_words(2, 12):
            assert max_factor_exponent(w) == brute_max_exponent(w), w.render()
        rng = random.Random(window_min)
        for _ in range(300):
            k = rng.choice((2, 3, 4))
            w = Word(errata_letters(rng, rng.randint(1, 80), list(range(k))),
                     Alphabet.letters(k))
            assert max_factor_exponent(w) == brute_max_exponent(w), w.letters
        # letters equal in one byte of their two-byte slots: the low byte,
        # then the high byte, so a bit is mapped to its letter, not its byte
        for pool in ([1, 257, 513, 769], [256, 257, 258, 259]):
            for _ in range(100):
                w = Word(errata_letters(rng, rng.randint(1, 80), pool), Alphabet.indices(1000))
                assert max_factor_exponent(w) == brute_max_exponent(w), w.letters
        assert window_periods

    def test_long_words_against_brute_oracle(self, window_periods):
        rng = random.Random(2026)
        cases = [
            Word(tuple(rng.randrange(k) for _ in range(length)), Alphabet.letters(k))
            for k, length in ((2, 1000), (4, 2000))
        ]
        cases += [Word(fibonacci_letters(n)[n // 3 :], Alphabet.letters(2)) for n in (1500, 2600)]
        cases += [Word(near_periodic_letters(rng, n), Alphabet.letters(3)) for n in (1200, 2000)]
        for w in cases:
            assert max_factor_exponent(w) == brute_max_exponent(w), len(w)
        assert {args[2] for args in window_periods} == {len(w) for w in cases}

    @pytest.mark.parametrize("window_min", [None, 1, 2, 3])
    def test_misaligned_hits_are_skipped(self, monkeypatch, window_periods, window_min):
        if window_min:
            monkeypatch.setattr(powers, "WINDOW_LETTERS_MIN", window_min)
        for seed in range(2):
            w = Word(byte_periodic_letters(random.Random(seed), 1200, 101),
                     Alphabet.indices(1024))
            assert max_factor_exponent(w) == brute_max_exponent(w), seed
        assert window_periods and all(args[1] == 2 for args in window_periods)
        assert any(d % 2 for args in window_periods for _, _, d in band_hits(args))

    @pytest.mark.parametrize("window_min", [None, 1, 2, 3])
    def test_scans_cross_bands(self, monkeypatch, window_periods, window_min):
        if window_min:
            monkeypatch.setattr(powers, "WINDOW_LETTERS_MIN", window_min)
        rng = random.Random(29)
        cases = [Word(fibonacci_letters(1500 + 321)[321:], Alphabet.letters(2)),
                 Word(tuple(rng.randrange(4) for _ in range(1500)), Alphabet.letters(4)),
                 Word(thue_morse_letters(1500), Alphabet.letters(2))]
        for w in cases:
            window_periods.clear()
            assert max_factor_exponent(w) == brute_max_exponent(w), len(w)
            # each band starts where the one before ended, at twice its start
            # unless the end was capped
            bands = [args[3:5] for args in window_periods]
            assert len(bands) >= 2, bands
            assert all(hi == lo2 for (_, hi), (lo2, _) in zip(bands, bands[1:])), bands
            assert all(hi <= 2 * lo for lo, hi in bands), bands

    @pytest.mark.parametrize("window_min", [None, 1, 2, 3])
    def test_hits_inside_known_runs_are_skipped(self, monkeypatch, window_periods, window_min):
        if window_min:
            monkeypatch.setattr(powers, "WINDOW_LETTERS_MIN", window_min)
        for seed in range(2):
            w = Word(sparse_errata_letters(random.Random(seed), 2000, 40, 300),
                     Alphabet.letters(2))
            assert max_factor_exponent(w) == brute_max_exponent(w), seed
        # a block that recurs at the same distance as the block g before it
        # lies inside the run widened from that one
        inside = 0
        for args in window_periods:
            hits = band_hits(args)
            found = {(j, d) for j, _, d in hits}
            inside += sum((j - g, d) in found for j, g, d in hits)
        assert inside >= 3

    def test_band_tie_keeps_the_leftmost_witness(self, window_periods):
        # x is square-free, so xx and dd are the squares that matter: the
        # mask finds dd at period 1, then the band [64, 102) finds xx, of the
        # same value 2 and further left, which must replace it
        x = square_free_ternary_letters(100)
        w = Word(x + x + (3, 3), Alphabet.letters(4))
        assert max_factor_exponent(w) == brute_max_exponent(w) == (Exponent(200, 100), (0, 200))
        assert [args[3:5] for args in window_periods] == [(64, 102)]

    def test_short_words_keep_the_mask(self, window_periods):
        # need <= l - p, so a word of at most 2 * WINDOW_LETTERS_MIN letters
        # never reaches the windows
        l = 2 * powers.WINDOW_LETTERS_MIN
        for letters in ((0,) * l, fibonacci_letters(l), thue_morse_letters(l)):
            max_factor_exponent(Word(letters, Alphabet.letters(2)))
        assert not window_periods


class TestAvoids:
    def test_worked_example(self):
        w = wd("abcdbcdef")
        assert avoids(w, 2, strict_plus=True)
        assert not avoids(w, 2, strict_plus=False)

    def test_distinct_letters(self):
        assert avoids(wd("ab"), 1, strict_plus=True)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match=r"^exponent must be >= 1, got 1/2$"):
            avoids(wd("ab"), Fraction(1, 2), strict_plus=True)

    def test_empty_word_vacuous(self):
        assert avoids(parse_word("", Alphabet.letters(2)), 1, strict_plus=True)

    def test_float_and_bool_exponents_rejected(self):
        # The maximal exponent is 21/10, and Fraction(2.1) lies just above
        # it, so a float bound would call the word 21/10-power-free.
        w = wd("abcdefghij" * 2 + "a")
        assert max_factor_exponent(w)[0].value == Fraction(21, 10)
        assert not avoids(w, Fraction(21, 10), strict_plus=False)
        assert avoids(w, Fraction(21, 10), strict_plus=True)
        for d in (2.1, 2.0, True, False):
            with pytest.raises(ValueError, match=r"^exponent must be an int or a Fraction, got "):
                avoids(w, d, strict_plus=False)

    def test_one_plus_free_iff_distinct_letters(self):
        for k, l in ((2, 10), (3, 7)):
            for w in enumerate_words(k, l):
                assert avoids(w, 1, strict_plus=True) == (
                    len(set(w.letters)) == len(w)
                )
        rng = random.Random(5)
        for _ in range(2000):
            w = random_word(rng, 10, alphabet_sizes=tuple(range(2, 11)))
            assert avoids(w, 1, strict_plus=True) == (len(set(w.letters)) == len(w))

    @given(words_st(min_size=1, max_size=25), st.fractions(min_value=1, max_value=6))
    @settings(max_examples=300)
    def test_monotone_in_d(self, w, d):
        if avoids(w, d, strict_plus=True):
            assert avoids(w, d + Fraction(1, 3), strict_plus=True)
            assert avoids(w, d + 2, strict_plus=True)


class TestVerifyTc:
    def test_worked_example_equality(self):
        r = verify_tc(wd("abbabbabbb"), 3)
        assert (r.c, r.bound) == (32, 32)
        assert r.lemma1_ok and r.lemma2_ok and r.lemma3_ok and r.theorem_ok
        assert (r.d.num, r.d.den) == (9, 3)

    def test_distinct_letters(self):
        r = verify_tc(wd("abcdefgh"), 4)
        assert r.c == 37  # l(l+1)/2 + 1
        assert r.bound == 25
        assert r.all_ok

    def test_empty_word(self):
        with pytest.raises(ValueError, match=r"^verify_tc of the empty word$"):
            verify_tc(parse_word("", Alphabet.letters(2)), 1)

    def test_hypothesis_errors(self):
        with pytest.raises(ValueError, match=r"^hypothesis not satisfied: k >= 1$"):
            verify_tc(wd("abab"), 0)
        with pytest.raises(ValueError, match=r"^hypothesis not satisfied: k <= l/2$"):
            verify_tc(wd("abab"), 3)
        with pytest.raises(ValueError, match=r"^hypothesis not satisfied: l > k\*d$"):
            verify_tc(wd("aaaa"), 2)  # max exponent 4, l = 4 <= 8

    def test_exhaustive_small(self):
        for w in enumerate_words(2, 10):
            l = len(w)
            exp, _ = max_factor_exponent(w)
            for k in range(1, l // 2 + 1):
                if l * exp.den > k * exp.num:
                    assert verify_tc(w, k).all_ok, (w.render(), k)


class TestVerifyTcInteger:
    """The integer-d variant of the bound, which verify.sweep_tc checks once
    per word, at k* = min(l // 2, (l - 1) // ceil(e)), by its Lemma B."""

    def test_worked_example(self):
        # e = 9/3, so k* = 3, and c = 32 meets (k* + 1)(l - k* + 1) = 32 exactly
        w = wd("abbabbabbb")
        assert complexity_profile(w).total == 32
        assert list(_check_tc(w)) == []

    def test_exhaustive_ternary(self):
        # every admissible k, also above l/2, not only the k* that Lemma B
        # reduces them to; the bound does not depend on d, and d = ceil(e)
        # admits the most k, those with l > k*d
        for w in enumerate_words(3, 9):
            l = len(w)
            exp, _ = max_factor_exponent(w)
            c = complexity_profile(w).total
            d = -(-exp.num // exp.den)
            for k in range(1, (l - 1) // d + 1):
                assert c >= (k + 1) * (l - k + 1), (w.render(), k, d)
