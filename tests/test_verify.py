from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

import conftest
from conftest import fail_every_word, sample_generating_sets
from wordlen import powers, verify
from wordlen.algebra import LengthTrace
from wordlen.oracles import brute_min_qpt, enumerate_words, naive_profile
from wordlen.powers import _tc_report, max_factor_exponent
from wordlen.verify import (
    SweepReport,
    cross_validate_exponent,
    cross_validate_length,
    cross_validate_profiles,
    cross_validate_qpt,
    merge_reports,
    sweep_mh,
    sweep_mh_general,
    sweep_profile_shape,
    sweep_tc,
)
from wordlen.words import ComplexityProfile, factor_count


class TestSweeps:
    def test_mh_small(self):
        report = sweep_mh(2, 9)
        assert report.ok
        assert report.words_checked == 1022
        assert report.summary()["alphabet_size"] == 2

    def test_mhgen_small(self):
        assert sweep_mh_general(2, 9).ok

    def test_tc_small(self):
        assert sweep_tc(2, 10).ok
        assert sweep_tc(3, 7).ok

    def test_shape_random(self):
        report = sweep_profile_shape(500, 60, seed=8)
        assert report.ok and report.words_checked == 500


def reference_tc_flags(counts, k) -> tuple[bool, bool, bool, bool]:
    """Lemmas 1-3 and the bound at k for the counts f(0..l), by per-n loops."""
    l = len(counts) - 1
    return (
        all(counts[n] >= n + 1 for n in range(k + 1)),
        all(counts[n] >= k + 1 for n in range(k, l - k + 1)),
        all(counts[n] == l - n + 1 for n in range(l - k, l + 1)),
        sum(counts) >= (k + 1) * (l - k + 1),
    )


def reference_tc_kinds(w, counts) -> set[str]:
    """The kinds of total-complexity failure of w under the counts f(0..l),
    by the loops over every admissible k and every admissible (k, d) that
    sweep_tc's two nesting lemmas replace."""
    l = len(w)
    exp, _ = max_factor_exponent(w)
    c = sum(counts)
    kinds = set()
    for k in range(1, l // 2 + 1):
        if l * exp.den <= k * exp.num:
            continue
        if not all(reference_tc_flags(counts, k)):
            kinds.add("theorem")
    for d in range(-(-exp.num // exp.den), l):
        for k in range(1, (l - 1) // d + 1):
            if c < (k + 1) * (l - k + 1):
                kinds.add("integer")
    return kinds


def zero_last(w, counts):
    counts[-1] = 0  # breaks lemma 3 wherever some k is admissible


def lower_f1(w, counts):
    counts[1] -= len(w)  # c falls below the bound for part of the words


def perturb(w, counts):
    rng = random.Random(w.render())
    for _ in range(2):
        counts[rng.randrange(len(counts))] += rng.choice((-1, 1))


class TestTcPlantedFaults:
    @pytest.mark.parametrize("fault", [zero_last, lower_f1, perturb])
    def test_matches_reference_loops(self, monkeypatch, fault):
        def planted(w):
            counts = list(naive_profile(w).counts)
            fault(w, counts)
            return ComplexityProfile(tuple(counts), sum(counts))

        monkeypatch.setattr(verify, "naive_profile", planted)
        report = sweep_tc(2, 10)
        per_word = Counter((ce["word"], ce["kind"]) for ce in report.counterexamples)
        assert max(per_word.values()) == 1
        expected = {
            (w.render(), kind)
            for w in enumerate_words(2, 10)
            for kind in reference_tc_kinds(w, planted(w).counts)
        }
        assert set(per_word) == expected
        assert {kind for _, kind in expected} == {"theorem", "integer"}


class TestTcReportSlices:
    def test_flags_match_loops(self):
        # every 1 <= k <= l/2, admissible or not: the slices must read each
        # lemma's range exactly, on true counts and on damaged ones
        seen = set()
        for fault in (None, zero_last, lower_f1, perturb):
            for w in enumerate_words(2, 10):
                counts = list(naive_profile(w).counts)
                if fault is not None:
                    fault(w, counts)
                counts = tuple(counts)
                exp, _ = max_factor_exponent(w)
                for k in range(1, len(w) // 2 + 1):
                    r = _tc_report(counts, k, exp)
                    flags = (r.lemma1_ok, r.lemma2_ok, r.lemma3_ok, r.theorem_ok)
                    assert flags == reference_tc_flags(counts, k), (fault, w.render(), k)
                    seen.add(flags)
        # each flag reads both ways somewhere, so none is vacuous
        assert all({f[i] for f in seen} == {True, False} for i in range(4))


class TestMhPlantedFaults:
    @pytest.mark.parametrize("at", [1, 3, 5])
    def test_matches_reference_loop(self, monkeypatch, at):
        # f(at) raised by 1: exactly the (word, at) pairs where f(at) = at
        # and the cost is at most at turn into counterexamples
        def planted(w):
            counts = list(naive_profile(w).counts)
            if at < len(counts):
                counts[at] += 1
            return ComplexityProfile(tuple(counts), sum(counts))

        monkeypatch.setattr(verify, "naive_profile", planted)
        report = sweep_mh(2, 10)
        got = Counter((ce["word"], ce["n"]) for ce in report.counterexamples)
        assert max(got.values()) == 1
        expected = {}
        for w in enumerate_words(2, 10):
            cost = brute_min_qpt(w).cost
            for n in range(1, len(w) // 2 + 1):
                f = factor_count(w, n) + (n == at)
                if (f <= n) != (cost <= n):
                    expected[w.render(), n] = f
        assert {(ce["word"], ce["n"]): ce["f"] for ce in report.counterexamples} == expected
        assert {n for _, n in expected} == {at}


class TestSharding:
    def test_sharded_equals_serial(self):
        serial = sweep_mh(2, 9)
        parts = [sweep_mh(2, 9, shard=(i, 3)) for i in range(3)]
        merged = merge_reports(parts)
        assert merged.words_checked == serial.words_checked
        assert merged.counterexamples == serial.counterexamples == []

    def test_merge_with_counterexamples(self, monkeypatch):
        monkeypatch.setattr(verify, "_check_mh", fail_every_word)
        serial = sweep_mh(2, 8)
        merged = merge_reports([sweep_mh(2, 8, shard=(i, 3)) for i in range(3)])
        assert merged.words_checked == serial.words_checked == 510
        assert len(serial.counterexamples) == 510
        # the merge lists counterexamples in canonical order, the serial
        # sweep in enumeration order: the same list once both are canonical
        assert merged.counterexamples == merge_reports([serial]).counterexamples
        assert merged.summary() == serial.summary()

    def test_merge_nothing(self):
        with pytest.raises(ValueError, match=r"^nothing to merge$"):
            merge_reports([])

    def test_merge_orders_counterexamples(self):
        a = SweepReport("x", 2, 4, 1, [{"word": "bb", "n": 1}])
        b = SweepReport("x", 2, 4, 2, [{"word": "ab", "n": 2}])
        left = merge_reports([a, b])
        right = merge_reports([b, a])
        assert left.counterexamples == right.counterexamples
        assert left.words_checked == 3


class TestCrossValidation:
    def test_profiles(self):
        assert cross_validate_profiles(300, 120, seed=6).ok

    def test_qpt(self):
        assert cross_validate_qpt(10, seed=6).ok

    def test_length(self):
        report = cross_validate_length(50, seed=7)
        assert report.ok and report.words_checked == 50

    def test_length_checks_words(self, monkeypatch):
        # right dims with the minimal irreducible words out of order are a
        # mismatch: the oracle's words are compared, not only its dims
        real = verify.length_trace
        reversed_sets = []

        def reversed_words(S, max_len):
            trace = real(S, max_len=max_len)
            if len(trace.words) < 2:
                return trace
            reversed_sets.append(S)
            return dataclasses.replace(trace, words=trace.words[::-1])

        monkeypatch.setattr(verify, "length_trace", reversed_words)
        report = cross_validate_length(40)
        assert reversed_sets and not report.ok
        assert len(report.counterexamples) == len(reversed_sets)


class TestExponentCrossValidation:
    def test_long_words_reach_the_windows(self, window_periods):
        report = cross_validate_exponent(seed=6)
        assert report.ok and report.words_checked == 312
        assert window_periods

    def test_dropped_window_runs_are_mismatches(self, monkeypatch):
        monkeypatch.setattr(powers, "_band_runs", lambda *args: [])
        report = cross_validate_exponent(seed=6)
        assert not report.ok
        assert all(len(ce["word"]) >= 600 for ce in report.counterexamples)


class TestSampling:
    def test_sampled_sets_generate_everything(self):
        sets = sample_generating_sets(10, seed=1)
        assert len(sets) == 10
        for S, trace in sets:
            assert trace.generated_dim == S.n * S.n

    def test_deterministic(self):
        a = sample_generating_sets(5, seed=2)
        b = sample_generating_sets(5, seed=2)
        assert [S.gens for S, _ in a] == [S.gens for S, _ in b]

    def test_stops_when_no_draw_generates(self, monkeypatch):
        # a fault that keeps every span below full must fail the sampling
        # tests, not hang them
        monkeypatch.setattr(conftest, "length_trace",
                            lambda S, max_len: LengthTrace((1,), 0, 1, ()))
        with pytest.raises(pytest.fail.Exception, match="^60 draws gave 0 of 10 generating sets$"):
            sample_generating_sets(10)
