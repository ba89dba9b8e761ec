from __future__ import annotations

import json
import random
import tracemalloc
from string import ascii_lowercase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_repeats,
    fibonacci_letters,
    histogram_of,
    random_word,
    run_main,
    wd,
    words_st,
)
from wordlen import verify, words
from wordlen.oracles import (
    BRUTE_QPT_CAP,
    brute_min_qpt,
    enumerate_words,
    naive_profile,
)
from wordlen.powers import Exponent, max_factor_exponent
from wordlen.structure import (
    ProfileShape,
    QptDecomposition,
    ShapeViolation,
    decompose_check,
    minimal_qpt,
    profile_shape,
)
from wordlen.verify import _check_mh, _check_mhgen, sweep_mh, sweep_mh_general
from wordlen.words import (
    ROW_LETTERS_MAX,
    Alphabet,
    SuffixAutomaton,
    Word,
    complexity_profile,
    factor_count,
)

ternary_words = st.lists(st.integers(0, 2), min_size=1, max_size=30).map(
    lambda letters: Word(tuple(letters), Alphabet.letters(3))
)

TOKENS_300 = Alphabet(tuple(f"t{i}" for i in range(300)))


@st.composite
def renamed_pairs(draw) -> tuple[Word, Word]:
    """A word over up to 20 letters, a block repeated up to 3 times and a
    tail, and its image under a random injection of its letters into the
    300 ids of a token alphabet, ids >= 16 and two-byte ids included.  Half
    the injections pair the letters up as x and x + 256, which differ only
    in their high byte."""
    k = draw(st.integers(1, 20))
    letter = st.integers(0, k - 1)
    block = draw(st.lists(letter, min_size=1, max_size=30))
    letters = block * draw(st.integers(1, 3)) + draw(st.lists(letter, max_size=10))
    used = sorted(set(letters))
    n = len(used)
    if draw(st.booleans()):
        image = draw(st.lists(st.integers(0, 299), min_size=n, max_size=n, unique=True))
    else:
        half = (n + 1) // 2
        lows = draw(st.lists(st.integers(0, 43), min_size=half, max_size=half, unique=True))
        image = draw(st.permutations([x + 256 * i for x in lows for i in (0, 1)][:n]))
    rename = dict(zip(used, image))
    return (Word(tuple(letters), TOKENS_300),
            Word(tuple(map(rename.__getitem__, letters)), TOKENS_300))


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
        # p past the word's end: l - t - p < 0 is an empty range too
        assert decompose_check(wd("abcd"), QptDecomposition(1, 5, 0, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^decomposition is for length 4, word has 3$"):
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
        # R = 0: the root is the only link target, so q = 0 and j = l; up to
        # ROW_LETTERS_MAX letters on per-letter rows, above it on dicts
        for l in range(1, 27):
            w = wd(ascii_lowercase[:l])
            assert minimal_qpt(w) == brute_min_qpt(w) == QptDecomposition(0, l, 0, l), l

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

    def test_cost_is_profile_max(self):
        # `decompose` reports max_n f(n) as the cost l - R: f(R + 1) = l - R
        # starts the decreasing phase, which cannot start earlier
        # the core is p + R >= p, so its exponent is a `powers.Exponent`
        for w in enumerate_words(2, 12):
            dec = minimal_qpt(w)
            assert max(naive_profile(w).counts) == dec.cost, w.render()
            assert dec.core_exponent == Exponent(dec.l - dec.q - dec.t, dec.p)

    @given(ternary_words)
    @settings(max_examples=150, deadline=None)
    def test_against_brute_force(self, w):
        assert minimal_qpt(w) == brute_min_qpt(w)

    @pytest.mark.parametrize("alphabet, k", [
        (Alphabet.letters(26), ROW_LETTERS_MAX),
        (Alphabet.letters(26), ROW_LETTERS_MAX + 1),
        (Alphabet(tuple(f"t{i}" for i in range(300))), 20),
    ])
    def test_both_transition_stores_against_brute_force(self, alphabet, k):
        # k <= ROW_LETTERS_MAX builds on per-letter rows, k > it on dicts
        rng = random.Random(30 * k + alphabet.size)
        for _ in range(150):
            letters = rng.sample(range(alphabet.size), k)
            extra = rng.randint(0, BRUTE_QPT_CAP - k)
            if rng.random() < 0.5:
                # a copied block makes the longest repeat long
                start = rng.randrange(k - extra + 1)
                block = letters[start : start + extra]
            else:
                block = [rng.choice(letters) for _ in range(extra)]
            at = rng.randrange(k + 1)
            letters[at:at] = block
            w = Word(tuple(letters), alphabet)
            assert len(set(letters)) == k
            assert minimal_qpt(w) == brute_min_qpt(w), w.render()

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


def _shifted_cost(monkeypatch):
    """Make every decomposition cost 99, so each n or window a check examines
    on a short unary word (f(n) = 1 <= m, cost > m) is reported."""
    monkeypatch.setattr(verify, "minimal_qpt", lambda w: QptDecomposition(0, 99, 0, len(w)))


class TestEquivalence:
    def test_worked_example(self):
        w = wd("abbabbabaa")
        assert (factor_count(w, 5) <= 5, minimal_qpt(w).cost <= 5) == (True, True)
        assert list(_check_mh(w)) == []

    def test_unary(self):
        w = wd("aaaa")
        assert (factor_count(w, 1) <= 1, minimal_qpt(w).cost <= 1) == (True, True)
        assert list(_check_mh(w)) == []

    def test_range_violation(self, capsys, monkeypatch):
        # n outside [1, l/2] is a usage error on the CLI ...
        for n in ("3", "0"):
            assert run_main(["decompose", "abab", "--n", n]) == 2
            assert capsys.readouterr().err == f"error: need 1 <= n <= l/2, got n={n}, l=4\n"
        # ... and the sweep check examines exactly n = 1 .. l/2
        _shifted_cost(monkeypatch)
        assert [ce["n"] for ce in _check_mh(wd("aaaa"))] == [1, 2]

    def test_exhaustive_small(self):
        assert sweep_mh(2, 12).ok
        assert sweep_mh(3, 8).ok


class TestGeneralEquivalence:
    def test_reduces_to_basic_case(self):
        w = wd("abbabbabaa")
        assert (factor_count(w, 5) <= 5, minimal_qpt(w).cost <= 5) == (True, True)
        assert list(_check_mhgen(w)) == []

    def test_unary_window(self):
        w = wd("aaaaaa")
        assert (factor_count(w, 3) <= 1, minimal_qpt(w).cost <= 1) == (True, True)
        assert list(_check_mhgen(w)) == []

    def test_range_violation(self, monkeypatch):
        # the check examines exactly the windows 1 <= m <= n <= l - m, so
        # (n, m) = (1, 2), (4, 1) and (1, 0) are never claimed for l = 4
        _shifted_cost(monkeypatch)
        windows = [(ce["n"], ce["m"]) for ce in _check_mhgen(wd("aaaa"))]
        assert windows == [(1, 1), (2, 1), (3, 1), (2, 2)]
        assert not {(1, 2), (4, 1), (1, 0)} & set(windows)

    def test_exhaustive_small(self):
        assert sweep_mh_general(2, 10).ok


class TestCorollaryMaxProfile:
    # the mhgen check's m = n windows are the corollary: f(n) <= n with
    # n <= l/2 forces max_i f(i) <= n
    def test_worked_example(self):
        w = wd("abbabbabaa")
        assert factor_count(w, 5) <= 5 and max(complexity_profile(w).counts) <= 5
        assert list(_check_mhgen(w)) == []

    def test_unary(self):
        w = wd("aaaa")
        assert factor_count(w, 1) <= 1 and max(complexity_profile(w).counts) <= 1
        assert list(_check_mhgen(w)) == []

    def test_precondition(self, capsys):
        assert run_main(["decompose", "abab", "--n", "3"]) == 2  # n > l/2
        capsys.readouterr()
        # f(2) = 4 > 2: the hypothesis fails, so nothing is claimed at n = 2
        assert run_main(["decompose", "abcabd", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lhs"], payload["agree"]) == (False, True)
        assert list(_check_mhgen(wd("abcabd"))) == []

    def test_exhaustive_small(self):
        assert sweep_mh_general(2, 12).ok


class TestProfileShape:
    def test_worked_example(self):
        assert profile_shape(wd("abbabbabbb")) == ProfileShape(3, 7, 4)

    def test_unary(self):
        assert profile_shape(wd("aaaa")) == ProfileShape(0, 4, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^profile_shape requires a non-empty word$"):
            profile_shape(Word((), Alphabet.letters(2)))

    def test_short_words(self):
        assert profile_shape(wd("ab")) == ProfileShape(1, 1, 2)
        assert profile_shape(wd("abcd")) == ProfileShape(1, 1, 4)
        assert profile_shape(wd("a")) == ProfileShape(0, 1, 1)

    def test_random_words_never_violate(self):
        rng = random.Random(31)
        for _ in range(2000):
            profile_shape(random_word(rng, 120))

    def test_exhaustive_small(self):
        for w in enumerate_words(3, 9):
            shape = profile_shape(w)
            assert 0 <= shape.m_star <= shape.plateau_end <= len(w)


def scan_shape(l: int, counts: tuple[int, ...]) -> ProfileShape:
    """The reference for profile_shape: an O(l) scan of the count list
    f(0..l), raising ShapeViolation at the first offending index."""
    m_star = next(n for n in range(l) if counts[n + 1] <= counts[n])
    peak = counts[m_star]
    plateau_end = l - peak + 1
    for n in range(m_star, plateau_end + 1):
        if counts[n] != peak:
            raise ShapeViolation(n, counts)
    for n in range(plateau_end, l):
        if counts[n + 1] != counts[n] - 1:
            raise ShapeViolation(n + 1, counts)
    return ProfileShape(m_star, plateau_end, peak)


def counts_from_repeats(repeats: list[int]) -> tuple[int, ...]:
    """f(0..len(repeats)) = 1, then #{e : L_e < n} - (n - 1), term by term."""
    return (1, *(sum(r < n for r in repeats) - n + 1 for n in range(1, len(repeats) + 1)))


def plant_histogram(monkeypatch, fault):
    """Replace the histogram of every automaton built on per-letter rows by
    fault(letters, histogram) before any count is read."""
    build = words._build_rows

    def planted(letters, used):
        maxlen, link, h = build(letters, used)
        return maxlen, link, fault(letters, h)

    monkeypatch.setattr(words, "_build_rows", planted)


def plant_repeats(monkeypatch, fault):
    """Plant the histogram of fault(repeat lengths) (a list -> list
    function), the per-end lengths taken from the brute_repeats oracle."""
    plant_histogram(monkeypatch, lambda letters, h: histogram_of(fault(brute_repeats(letters))))


def move_repeat(src: int, dst: int):
    """A fault that turns the first repeat length src into dst."""
    def fault(repeats):
        repeats[repeats.index(src)] = dst
        return repeats

    return fault


def near_periodic_word(rng: random.Random, length: int, k: int, period: int) -> Word:
    """A random block repeated, between random edges of 2 % of the length each."""
    edge = length // 50
    block = [rng.randrange(k) for _ in range(period)]
    core = [block[i % period] for i in range(length - 2 * edge)]
    edges = [[rng.randrange(k) for _ in range(edge)] for _ in range(2)]
    return Word(tuple(edges[0] + core + edges[1]), Alphabet.letters(k))


def large_binary_word() -> Word:
    rng = random.Random(9)
    return Word(tuple(rng.randrange(2) for _ in range(100_000)), Alphabet.letters(2))


def traced_peak(f, w: Word) -> int:
    """The tracemalloc peak of f(w), in bytes."""
    tracemalloc.start()
    try:
        f(w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestShapeFromHistogram:
    """profile_shape reads the phases off the repeat-length histogram; the
    count scan above is its reference, on real words and planted faults."""

    def test_matches_scan_exhaustive(self):
        for k, max_len in ((2, 14), (3, 9)):
            for w in enumerate_words(k, max_len):
                counts = naive_profile(w).counts
                assert profile_shape(w) == scan_shape(len(w), counts), w.render()

    def test_matches_scan_on_long_words(self):
        rng = random.Random(2404)
        cases = []
        for length in (1_000, 3_000, 10_000):
            offset = rng.randrange(1000)
            cases.append(Word(fibonacci_letters(offset + length)[offset:], Alphabet.letters(2)))
            cases.append(near_periodic_word(rng, length, 3, 11))
            for k in (2, 4):
                cases.append(Word(tuple(rng.randrange(k) for _ in range(length)),
                                  Alphabet.letters(k)))
        for w in cases:
            counts = complexity_profile(w).counts
            assert profile_shape(w) == scan_shape(len(w), counts)

    def test_large_word_memory(self):
        # a prefix state's id is its maxlen, one int object for both: about
        # 12.6 MB on CPython 3.11, against 16.0 MB with two per state; the
        # histogram counted during the build peaks as the per-end list of
        # repeat lengths did here, and 10.3 MB against 13.3 MB on the
        # Fibonacci word of 10^5 letters, whose list held 10^5 large ints
        assert traced_peak(profile_shape, large_binary_word()) < 13.5 * 2**20

    def test_large_word_profile_memory(self):
        # only the histogram outlives the automaton, so its maxlen and link
        # lists are freed before the counts are built: 12.6 MB on CPython
        # 3.11, against 14.1 MB with them alive
        assert traced_peak(complexity_profile, large_binary_word()) < 13.5 * 2**20

    # "abbabbabbb": f = 1, 2, 3, 4, 4, 4, 4, 4, 3, 2, 1, repeat lengths
    # 0, 0, 1, 1, 2, 3, 4, 5, 6, 2, so h = 2, 2, 2, 1, 1, 1, 1, 0 and the
    # shape is (3, 7, 4).  Each fault breaks one phase:
    # - rise: one L_e from 2 to 3, so f stalls at n = 3 and rises again;
    # - plateau: one L_e from 4 to 5, so f dips at n = 5;
    # - fall: one more repeat length, 8.  With l repeat lengths h sums to
    #   l, which an intact rise and plateau already use up, so only a
    #   surplus length can break the fall.
    @pytest.mark.parametrize("phase, fault, n", [
        ("rise", move_repeat(2, 3), 4),
        ("plateau", move_repeat(4, 5), 5),
        ("fall", lambda repeats: repeats + [8], 9),
    ])
    def test_planted_fault_matches_scan(self, monkeypatch, phase, fault, n):
        w = wd("abbabbabbb")
        counts = counts_from_repeats(fault(brute_repeats(w.letters)))
        with pytest.raises(ShapeViolation) as ref:
            scan_shape(len(w), counts)
        plant_repeats(monkeypatch, fault)
        with pytest.raises(ShapeViolation) as exc:
            profile_shape(w)
        assert (exc.value.n, exc.value.counts) == (ref.value.n, ref.value.counts)
        assert exc.value.n == n, phase

    def test_random_faults_match_scan(self, monkeypatch):
        # any repeat lengths in [0, l): l of them, or l + 1 to reach the fall;
        # their histogram is planted as it is, with no call to the oracle
        rng = random.Random(2405)
        for _ in range(500):
            w = random_word(rng, 40)
            l = len(w)
            planted = [rng.randrange(l) for _ in range(l + rng.randint(0, 1) * (l > 1))]
            plant_histogram(monkeypatch, lambda letters, h, planted=planted: histogram_of(planted))
            try:
                expected = scan_shape(l, counts_from_repeats(planted))
            except ShapeViolation as ref:
                with pytest.raises(ShapeViolation) as exc:
                    profile_shape(w)
                assert (exc.value.n, exc.value.counts) == (ref.n, ref.counts), planted
            else:
                assert profile_shape(w) == expected, planted

    def test_cli_reports_planted_fault(self, capsys, monkeypatch):
        fault = move_repeat(0, 1)  # one more 1 and one fewer 0: f(1) falls short
        plant_repeats(monkeypatch, fault)
        code = run_main(["verify", "shape", "--count", "20", "--maxlen", "12", "--seed", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        records = [json.loads(line) for line in lines[:-1]]
        assert records and json.loads(lines[-1])["counterexamples"] == len(records)
        monkeypatch.undo()
        for record in records:
            w = wd(record["word"])
            counts = counts_from_repeats(fault(brute_repeats(w.letters)))
            with pytest.raises(ShapeViolation) as ref:
                scan_shape(len(w), counts)
            assert (record["n"], record["counts"]) == (ref.value.n, list(ref.value.counts))


def planted_split(rng: random.Random, l: int) -> tuple[Word, int, int, int]:
    """A word of l >= 2 letters over k in {2, 3, 4} with a planted run: for
    m in [1, min(l // 2, 40)] and p in [1, m], a primitive root of length p
    (unequal to its rotation by every proper divisor of p) repeated over
    [i, j), of length L in [l - m + p, l], free letters elsewhere, and the
    letters just outside the run chosen to break its period.  Returns
    (w, i, p, j)."""
    k = rng.choice((2, 3, 4))
    m = rng.randint(1, min(l // 2, 40))
    p = rng.randint(1, m)
    while True:
        root = [rng.randrange(k) for _ in range(p)]
        if all(root != root[d:] + root[:d] for d in range(1, p) if p % d == 0):
            break
    length = rng.randint(l - m + p, l)
    i = rng.randint(0, l - length)
    j = i + length
    letters = [rng.randrange(k) for _ in range(l)]
    letters[i:j] = (root[t % p] for t in range(length))
    if i > 0:
        letters[i - 1] = rng.choice([a for a in range(k) if a != letters[i - 1 + p]])
    if j < l:
        letters[j] = rng.choice([a for a in range(k) if a != letters[j - p]])
    return Word(tuple(letters), Alphabet.letters(k)), i, p, j


PLANTED_SPLITS = ((40, 200), (1_000, 200), (10_000, 20))  # (length, words)


def assert_planted_answers(sizes) -> None:
    """On planted_split words, seeded by their length: minimal_qpt is
    exactly (i, p, l - j), and the first n with f(n) = l - n + 1 is
    R + 1 = j - i - p + 1."""
    for l, count in sizes:
        rng = random.Random(l)
        for _ in range(count):
            w, i, p, j = planted_split(rng, l)
            assert minimal_qpt(w) == QptDecomposition(i, p, l - j, l), (l, i, p, j)
            counts = complexity_profile(w).counts
            first = next(n for n in range(l + 1) if counts[n] == l - n + 1)
            assert first == j - i - p + 1, (l, i, p, j)


class TestPlantedSplits:
    """Words whose minimal split and longest repeat are known at any length.
    Let m <= l/2 and let [i, j) be a run of primitive period p <= m and
    length at least l - m + p that cannot be extended.  Two occurrences of a
    factor of length >= l - m start p' <= m apart, so they lie in a run of
    period p' and length >= l - m + p'.  Two such runs would overlap in at
    least p + p' letters, and Fine and Wilf would give a shorter period, so
    [i, j) is the only one.  Hence R = j - i - p, the leftmost length-R
    factor that occurs twice starts at i and recurs only at i + p, and the
    minimal split is (i, p, l - j)."""

    def test_minimal_qpt_and_profile(self):
        assert_planted_answers(PLANTED_SPLITS)

    def test_long_repeat_fault_is_caught(self, monkeypatch):
        # longest_repeat one short only past R = 5,000: no shorter word sees it
        real = SuffixAutomaton.longest_repeat

        def short(self):
            r, q, j = real(self)
            return (r - 1, q, j) if r > 5_000 else (r, q, j)

        monkeypatch.setattr(SuffixAutomaton, "longest_repeat", short)
        with pytest.raises(AssertionError):
            assert_planted_answers(PLANTED_SPLITS)

    def test_histogram_fault_is_caught(self, monkeypatch):
        # the build's top count moved from R to R - 1 only past R = 5,000
        def lowered(letters, h):
            r = len(h) - 2
            if r > 5_000:
                h[r] -= 1
                h[r - 1] += 1
            return h

        plant_histogram(monkeypatch, lowered)
        with pytest.raises(AssertionError):
            assert_planted_answers(PLANTED_SPLITS)


class TestInvariance:
    """Renaming the letters by an injection or reversing the word changes no
    count, so these checks reach alphabets and lengths no oracle covers."""

    @given(renamed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_renaming(self, pair):
        w, v = pair
        assert complexity_profile(v) == complexity_profile(w)
        assert profile_shape(v) == profile_shape(w)
        assert minimal_qpt(v) == minimal_qpt(w)
        assert max_factor_exponent(v) == max_factor_exponent(w)

    @given(renamed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_reversal(self, pair):
        # minimal_qpt breaks ties by position and the witness is leftmost,
        # so only the cost l - R and the exponent's value are invariant
        for w in pair:
            r = Word(w.letters[::-1], w.alphabet)
            assert complexity_profile(r) == complexity_profile(w)
            assert minimal_qpt(r).cost == minimal_qpt(w).cost
            assert max_factor_exponent(r)[0].value == max_factor_exponent(w)[0].value

    @given(renamed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_factor_count(self, pair):
        # the substring-set count, the independent side of the mh sweep,
        # at every length
        w, v = pair
        r = Word(w.letters[::-1], w.alphabet)
        for n in range(len(w) + 1):
            assert factor_count(v, n) == factor_count(r, n) == factor_count(w, n), n
