from __future__ import annotations

from conftest import fail_every_word
from wordlen import verify
from wordlen.verify import (
    SweepReport,
    cross_validate_length,
    cross_validate_profiles,
    cross_validate_qpt,
    merge_reports,
    sample_generating_sets,
    sweep_mh,
    sweep_mh_general,
    sweep_profile_shape,
    sweep_tc,
)


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
        assert cross_validate_qpt(2, 10, random_count=50, seed=6).ok

    def test_length(self):
        report = cross_validate_length(50, seed=7)
        assert report.ok and report.words_checked == 50


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
