from __future__ import annotations

import dataclasses
import importlib
import json
import multiprocessing
import os
import pkgutil
import random

import pytest

import wordlen
from conftest import (
    diagonal_set,
    dump_matrix_set,
    fail_every_word,
    jordan_corner,
    run_main,
    upper_triangular,
    write_set,
)
from wordlen import algebra, bounds, cli, structure, verify, words
from wordlen.cli import EXIT_INTERNAL
from wordlen.linalg import FMatrix, PrimeField
from wordlen.powers import Exponent


def run(capsys, *argv):
    code = run_main(argv)
    out = capsys.readouterr().out
    return code, out


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def unit_pair_file(tmp_path):
    field = PrimeField(5)
    mats = [
        FMatrix.from_rows(field, [[0, 1], [0, 0]]),
        FMatrix.from_rows(field, [[0, 0], [1, 0]]),
    ]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dump_matrix_set(field, 2, mats)))
    return str(path)


@pytest.fixture
def upper_triangular_file(tmp_path):
    """diag(1, 2, 3) and a Jordan block over GF(7): they span only the
    upper-triangular matrices (dim 6, l(S) = 2), so `alg liw` scans products
    for m, and diag(1, 2, 3) reaches the certified maximum min(n, 6) = 3."""
    S = upper_triangular(PrimeField(7), 3)
    return write_set(tmp_path / "upper.json", S)


class TestComplexity:
    def test_worked_example_json(self, capsys):
        code, out = run(capsys, "complexity", "abbabbabbb", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 32
        assert payload["counts"] == [1, 2, 3, 4, 4, 4, 4, 4, 3, 2, 1]
        assert payload["alphabet_inferred"] is True

    def test_explicit_alphabet(self, capsys):
        code, out = run(capsys, "complexity", "ab", "--alphabet", "abc", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["alphabet_inferred"] is False
        assert payload["alphabet"] == ["a", "b", "c"]

    def test_table_output(self, capsys):
        code, out = run(capsys, "complexity", "aaa")
        assert code == 0 and "total c(W) = 4" in out

    def test_unknown_token_is_usage_error(self, capsys):
        code, _ = run(capsys, "complexity", "abd", "--alphabet", "abc")
        assert code == 2


@pytest.mark.parametrize("command", ["complexity", "decompose", "powers"])
def test_empty_word_needs_alphabet(capsys, command):
    # no letter to infer an alphabet from: a usage error that says so
    assert run_main([command, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot infer an alphabet from an empty word; give --alphabet\n"


class TestDecompose:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "decompose", "abbabbabaa", "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["q"], payload["p"], payload["t"]) == (0, 3, 2)
        assert payload["cost"] == 5
        assert payload["core_exponent"] == "8/3"
        assert payload["profile_max"] <= 5

    def test_with_equivalence_check(self, capsys):
        code, out = run(capsys, "decompose", "abbabbabaa", "--n", "5", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["agree"] is True
        assert payload["lhs"] is True and payload["rhs"] is True

    def test_text_output(self, capsys):
        line = "q=0 p=3 t=1 cost=4 exponent=9/3 max_f=4\n"
        assert run(capsys, "decompose", "abbabbabbb") == (0, line)
        assert run(capsys, "decompose", "abbabbabbb", "--n", "4") == (
            0, line + "n=4: f(n)<=n is True, cost<=n is True\n")

    def test_disagreement_at_n_is_counterexample(self, capsys, monkeypatch):
        # a substring-set count one too high makes f(4) <= 4 false while
        # cost 4 <= 4 holds
        monkeypatch.setattr(words, "factor_count", lambda w, n: n + 1)
        code, out = run(capsys, "decompose", "abbabbabbb", "--n", "4", "--json")
        payload = json.loads(out)
        assert code == 1
        assert (payload["n"], payload["lhs"], payload["rhs"], payload["agree"]) == (
            4, False, True, False)

    def test_bad_n_is_usage_error(self, capsys):
        code, _ = run(capsys, "decompose", "abab", "--n", "3", "--json")
        assert code == 2
        code, _ = run(capsys, "decompose", "abab", "--n", "0", "--json")
        assert code == 2

    def test_one_automaton_with_n(self, capsys, monkeypatch):
        built = []
        real_init = words.SuffixAutomaton.__init__

        def counted(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(words.SuffixAutomaton, "__init__", counted)
        code, out = run(capsys, "decompose", "abbabbabaa", "--n", "5", "--json")
        assert code == 0 and json.loads(out)["agree"] is True
        assert len(built) == 1

    def test_matches_library_calls(self, capsys):
        # One automaton serves both fields; each must equal its own library call.
        rng = random.Random(5)
        texts = ["a", "ab", "abcacbabcbac", "ab" * 40 + "b"]
        texts += ["".join(rng.choice("abc") for _ in range(rng.randint(1, 300))) for _ in range(8)]
        for text in texts:
            code, out = run(capsys, "decompose", text, "--json")
            payload = json.loads(out)
            w = words.parse_word(text, words.Alphabet(tuple(dict.fromkeys(text))))
            dec = structure.minimal_qpt(w)
            assert code == 0
            assert (payload["q"], payload["p"], payload["t"], payload["l"]) == (
                dec.q, dec.p, dec.t, dec.l)
            assert payload["profile_max"] == max(words.complexity_profile(w).counts)

    def test_empty_word_is_usage_error(self, capsys):
        code, _ = run(capsys, "decompose", "", "--alphabet", "ab", "--json")
        assert code == 2

    def test_distinct_tokens(self, capsys):
        # 300 letters build the automaton on per-state dicts, and with no
        # repeated letter the split is the whole word
        tokens = ",".join(f"t{i}" for i in range(300))
        code, out = run(capsys, "decompose", tokens, "--json")
        assert code == 0
        assert '"q": 0' in out and '"p": 300' in out and '"t": 0' in out


class TestPowers:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "powers", "abcdbcdef")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_exponent"] == "6/3"
        assert payload["witness"] == [1, 7]
        assert payload["witness_factor"] == "bcdbcd"
        assert payload["value"] == "2"


class TestVerify:
    def test_mh_summary(self, capsys):
        code, out = run(capsys, "verify", "mh", "--alphabet", "2", "--maxlen", "8")
        assert code == 0
        summary = last_json(out)
        assert summary["words_checked"] == 510
        assert summary["counterexamples"] == 0
        assert summary["max_length"] == 8 and summary["alphabet_size"] == 2

    def test_parallel_matches_serial(self, capsys):
        code1, out1 = run(capsys, "verify", "mh", "--maxlen", "8", "--jobs", "2")
        code2, out2 = run(capsys, "verify", "mh", "--maxlen", "8")
        assert code1 == code2 == 0
        assert last_json(out1) == last_json(out2)

    def test_tc_small(self, capsys):
        code, out = run(capsys, "verify", "tc", "--maxlen", "7")
        assert code == 0 and last_json(out)["counterexamples"] == 0

    def test_shape(self, capsys):
        code, out = run(capsys, "verify", "shape", "--count", "200", "--maxlen", "50")
        # The record names the random words' alphabets; the old keys stay.
        assert code == 0 and last_json(out) == {
            "theorem": "shape", "words_checked": 200, "max_length": 50,
            "alphabet_size": 4, "counterexamples": 0,
            "space": {"random": {"words": 200, "max_length": 50,
                                 "alphabet_sizes": [2, 3, 4]}},
        }

    def test_budget_flag(self, capsys):
        code, _ = run(capsys, "verify", "mh", "--maxlen", "8", "--budget", "5")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("mh", "--alphabet", "27", "--maxlen", "6"),
        ("mh", "--alphabet", "27", "--maxlen", "5"),
        ("tc", "--alphabet", "30", "--maxlen", "6", "--jobs", "2"),
    ])
    def test_alphabet_above_26_is_usage_error(self, capsys, argv):
        # checked before the budget, so --maxlen 6 (over budget) and 5 (not)
        # fail alike, and at the call, so before any output, under --jobs too
        code = run_main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "alphabet size must be <= 26" in captured.err

    def test_unknown_theorem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main(["verify", "nope"])
        assert exc.value.code == 2

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs in ("5", "100000"):
            made = _fake_pool(monkeypatch)
            code1, out1 = run(capsys, "verify", "mh", "--maxlen", "8", "--jobs", jobs)
            code2, out2 = run(capsys, "verify", "mh", "--maxlen", "8")
            assert made == [(2, 2)]  # two processes, one shard each
            assert code1 == code2 == 0
            assert out1 == out2

    def test_corollary_counterexample(self, capsys, monkeypatch):
        # f(0) raised to l + 1 changes only the peak, so every window with
        # f(n) <= m reports the corollary, never the equivalence
        real = verify.naive_profile

        def raised(w):
            counts = (len(w) + 1,) + real(w).counts[1:]
            return words.ComplexityProfile(counts, sum(counts))

        monkeypatch.setattr(verify, "naive_profile", raised)
        code, out = run(capsys, "verify", "mhgen", "--maxlen", "4")
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        assert code == 1
        assert records and len(records) == last_json(out)["counterexamples"]
        assert {"kind": "corollary", "word": "aa", "n": 1, "m": 1, "peak": 3} in records
        for ce in records:
            assert set(ce) == {"kind", "word", "n", "m", "peak"}
            assert ce["kind"] == "corollary" and ce["peak"] == len(ce["word"]) + 1

    def test_sharded_counterexamples(self, capsys, monkeypatch):
        _fake_pool(monkeypatch)
        monkeypatch.setattr(verify, "_check_mh", fail_every_word)
        outs = {}
        for jobs in ("1", "3", "5"):
            code, outs[jobs] = run(capsys, "verify", "mh", "--maxlen", "8", "--jobs", jobs)
            assert code == 1
            assert last_json(outs[jobs])["counterexamples"] == 510
        # every report, serial or merged, lists its counterexamples in one
        # canonical order, so the output does not depend on --jobs
        assert outs["1"] == outs["3"] == outs["5"]


def _fake_pool(monkeypatch) -> list:
    """Run the pool's shards in this process; return the (processes, shards)
    record of each map."""
    made = []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            made.append((self.processes, len(shards)))
            return [fn(shard) for shard in shards]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return made


class TestAlg:
    def test_length(self, capsys, unit_pair_file):
        code, out = run(capsys, "alg", "length", unit_pair_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["dims"] == [1, 3, 4]
        assert payload["length"] == 2
        assert payload["generated_dim"] == 4

    def test_liw(self, capsys, unit_pair_file):
        code, out = run(capsys, "alg", "liw", unit_pair_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["m"] == 2 and payload["m_estimated"] is False
        assert payload["power_checked"] is True
        rows = payload["liw"]
        assert [r["word"] for r in rows] == ["0", "01"]
        assert [r["c"] for r in rows] == [2, 4]
        assert all(r["c_ok"] and r["power_ok"] for r in rows)

    def test_text_output(self, capsys, unit_pair_file):
        assert run(capsys, "alg", "length", unit_pair_file) == (
            0, "dims: [1, 3, 4]\nl(S) = 2, dim L(S) = 4\n")
        assert run(capsys, "alg", "liw", unit_pair_file) == (0, (
            "l(S) = 2, dim = 4, m = 2\n"
            "  i=1 word=0 c=2 ok=True exp=1/1 power_ok=True\n"
            "  i=2 word=01 c=4 ok=True exp=1/1 power_ok=True\n"))

    @pytest.mark.parametrize("p, n, matrices, text", [
        # E11, E22, E33 over GF(7): no product has degree 3, but diag(1, 2, 3)
        # in their span does, so m = 2 is only an estimate
        (7, 3, [[int(i == j == k) for i in range(3) for j in range(3)] for k in range(3)],
         "l(S) = 1, dim = 3, m = 2 (estimated)\n"
         "  i=1 word=0 c=2 ok=True exp=1/1 power_ok=True\n"),
        # the unit pair over GF(2): p <= m, so no power row is checked
        (2, 2, [[0, 1, 0, 0], [0, 0, 1, 0]],
         "l(S) = 2, dim = 4, m = 2\n"
         "  i=1 word=0 c=2 ok=True\n"
         "  i=2 word=01 c=4 ok=True\n"),
    ])
    def test_liw_text_rows(self, capsys, tmp_path, p, n, matrices, text):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"p": p, "n": n, "matrices": matrices}))
        assert run(capsys, "alg", "liw", str(path)) == (0, text)

    def test_liw_walks_once(self, capsys, monkeypatch, upper_triangular_file):
        calls = []
        real = algebra.length_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(algebra, "length_trace", counted)
        code, out = run(capsys, "alg", "liw", upper_triangular_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["length"], payload["generated_dim"], payload["m"]) == (2, 6, 3)
        assert payload["m_estimated"] is False and len(payload["liw"]) == 2
        assert len(calls) == 1
        assert not hasattr(algebra, "_liw_dfs")

    def test_liw_power_failure_under_estimated_m_is_not_fatal(
        self, capsys, monkeypatch, upper_triangular_file
    ):
        # m = 1 sets the power limit to 0, which every word exceeds; an
        # estimated m is only a lower bound, so the rows do not fail the run
        monkeypatch.setattr(algebra, "estimate_m_star", lambda S, word_len_cap: 1)
        code, out = run(capsys, "alg", "liw", upper_triangular_file, "--json")
        payload = json.loads(out)
        assert payload["m"] == 1 and payload["m_estimated"] is True
        assert payload["liw"] and not any(r["power_ok"] for r in payload["liw"])
        assert code == 0

    def test_liw_power_failure_under_certified_m_is_fatal(
        self, capsys, monkeypatch, upper_triangular_file
    ):
        # the scan certifies m = 3 on a non-full span, so a planted 9th power
        # in every minimal irreducible word is a counterexample
        monkeypatch.setattr(algebra, "max_factor_exponent", lambda w: (Exponent(9, 1), (0, 1)))
        code, out = run(capsys, "alg", "liw", upper_triangular_file, "--json")
        payload = json.loads(out)
        assert (payload["m"], payload["m_estimated"]) == (3, False)
        assert payload["liw"] and not any(r["power_ok"] for r in payload["liw"])
        assert code == 1

    @pytest.mark.parametrize(
        "diagonals, dim, m, estimated",
        [
            # dim L(S) = 2 < n, and diag(1, 1, 2) has degree 2: m is exact
            ([(1, 1, 2)], 2, 2, False),
            # every product of E11, E22, E33 has degree <= 2, but
            # diag(1, 2, 3) in L(S) has degree 3: m stays an estimate
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 2, True),
        ],
    )
    def test_liw_m_certified_at_min_of_n_and_dim(
        self, capsys, tmp_path, diagonals, dim, m, estimated
    ):
        S = diagonal_set(PrimeField(7), diagonals)
        path = write_set(tmp_path / "diagonal.json", S)
        code, out = run(capsys, "alg", "liw", path, "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["generated_dim"], payload["m"], payload["m_estimated"]) == (
            dim, m, estimated)

    def test_liw_cap_reached_by_non_full_span(self, capsys, upper_triangular_file):
        # the span last grows at step 2, but with --cap 2 the walk must still
        # try step 3 to see that, so it stops there
        for action in ("length", "liw"):
            code = run_main(["alg", action, upper_triangular_file, "--cap", "2"])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert captured.err == "error: still growing after 2 steps\n"
        assert run_main(["alg", "liw", upper_triangular_file, "--cap", "3", "--json"]) == 0

    def test_liw_has_no_word_budget(self, capsys, tmp_path):
        # the 12 x 12 Jordan block and corner unit over GF(13): l(S) = 22,
        # so there are 2^22 > 2 * 10^6 words of length l(S), yet the walk
        # reads every minimal irreducible word off 22 levels
        S = jordan_corner(PrimeField(13), 12)
        path = write_set(tmp_path / "jordan12.json", S)
        code, out = run(capsys, "alg", "liw", path, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["length"] == 22 and payload["generated_dim"] == 144
        assert len(payload["liw"]) == 22

    def test_liw_m_scan_charges_kept_products(self, capsys, tmp_path):
        # diag(1..21) and the 21 x 21 Jordan block over GF(23) span only the
        # upper-triangular matrices, so m comes from the scan; 2^1 + ... + 2^21
        # words exceed its budget, but diag(1..21) alone ends it at m = n
        S = upper_triangular(PrimeField(23), 21)
        path = write_set(tmp_path / "upper21.json", S)
        code, out = run(capsys, "alg", "liw", path, "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["length"], payload["m"], payload["m_estimated"]) == (20, 21, False)

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(capsys, "alg", "length", "/nonexistent.json")
        assert code == 2

    def test_top_level_list_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([[0, 1, 0, 0]]))
        code = run_main(["alg", "length", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: matrix set must be an object")
        assert "Traceback" not in err

    def test_short_matrix_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"p": 5, "n": 2, "matrices": [[0, 1, 0]]}))
        code = run_main(["alg", "length", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: expected 4 entries, got 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "shape", "--count", "-5"],
        ["verify", "mh", "--jobs", "0"],
        ["verify", "mh", "--jobs", "-3"],
        ["verify", "mh", "--maxlen", "0"],
        ["verify", "mh", "--budget", "0"],
        ["alg", "length", "FILE", "--cap", "0"],
        ["oracle", "--words", "0"],
        ["oracle", "--maxlen", "-1"],
        ["oracle", "--qpt-maxlen", "0"],
        ["oracle", "--sets", "0"],
    ],
)
def test_non_positive_count_is_usage_error(capsys, unit_pair_file, argv):
    argv = [unit_pair_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "tc", "--alphabet", "1", "--maxlen", "1001"],
        ["verify", "tc", "--alphabet", "1", "--maxlen", "1001", "--jobs", "2"],
        ["verify", "mhgen", "--alphabet", "1", "--maxlen", "1001"],
        ["verify", "mhgen", "--alphabet", "1", "--maxlen", "1001", "--jobs", "2"],
        # past the enumeration budget too: the length is checked first
        ["verify", "tc", "--alphabet", "2", "--maxlen", "1001"],
        ["oracle", "--maxlen", "1001", "--words", "3", "--sets", "1", "--qpt-maxlen", "3"],
        ["verify", "mh", "--alphabet", "1", "--maxlen", "1001"],
        ["verify", "mh", "--alphabet", "1", "--maxlen", "1001", "--jobs", "2"],
    ],
)
def test_maxlen_past_naive_profile_cap_is_usage_error(capsys, monkeypatch, argv):
    # The sweeps that call naive_profile reject the length before any word:
    # a check run on a word would end in exit 4, not 2.
    def no_word(w):
        raise RuntimeError(f"checked {w.render()}")

    for check in ("_check_tc", "_check_mhgen", "_check_mh", "_check_profiles"):
        monkeypatch.setattr(verify, check, no_word)
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "qpt_maxlen, code, err",
    [
        # brute_min_qpt takes at most BRUTE_QPT_CAP = 30 letters
        ("31", 2, "error: brute_min_qpt handles length <= 30\n"),
        ("26", 3, "error: 134217726 words exceed budget 100000000\n"),
    ],
)
def test_qpt_maxlen_limits_are_checked_before_any_case(capsys, monkeypatch, qpt_maxlen,
                                                       code, err):
    def no_case(case):
        raise RuntimeError("checked a case")

    for check in ("_check_profiles", "_check_qpt", "_check_length", "_check_exponent"):
        monkeypatch.setattr(verify, check, no_case)
    assert run_main(["oracle", "--words", "3", "--sets", "1", "--maxlen", "10",
                 "--qpt-maxlen", qpt_maxlen]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_maxlen_at_naive_profile_cap_is_accepted(capsys):
    code, out = run(capsys, "oracle", "--maxlen", "1000", "--words", "3", "--sets", "1",
                    "--qpt-maxlen", "3", "--json")
    assert code == 0
    assert json.loads(out.splitlines()[0])["max_length"] == 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "shape", "--alphabet", "7"],
        ["verify", "shape", "--jobs", "2"],
        ["verify", "shape", "--budget", "5"],
        ["verify", "mh", "--count", "5"],
        ["verify", "mh", "--seed", "3"],
        ["bounds", "--grid", "--dim", "16", "--m", "4", "--n", "4",
         "--m-max", "3", "--d-max", "5"],
        ["bounds", "--dim", "16", "--m", "4", "--m-max", "1", "--d-max", "-3", "--json"],
    ],
)
def test_flag_the_mode_does_not_read_is_usage_error(capsys, argv):
    # argparse rejects a flag the theorem's sub-parser lacks; bounds checks
    # its two modes' flags itself
    try:
        code = run_main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


class TestInternalError:
    def _assert_internal(self, capsys, code, name):
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL == 4
        assert err.startswith(f"internal error: {name}: ")
        assert len(err.strip().splitlines()) == 1

    def test_bound_invariant(self, capsys, monkeypatch):
        # the search, not the check, is substituted: the true minimum for
        # (9, 3) is 4 at k = 2, not 9/2 at k = 1
        monkeypatch.setattr(bounds, "_search_k", lambda d, m: 1)
        code = run_main(["bounds", "--dim", "9", "--m", "3", "--json"])
        self._assert_internal(capsys, code, "BoundInvariantError")

    def test_key_error_is_internal(self, capsys, monkeypatch):
        # no input path raises KeyError, so one is a bug, not a usage error
        def broken(w):
            raise KeyError("internal")

        monkeypatch.setattr(words, "complexity_profile", broken)
        code = run_main(["complexity", "abba"])
        self._assert_internal(capsys, code, "KeyError")

    def test_liw_internal_error(self, capsys, monkeypatch, unit_pair_file):
        def broken(S, trace):
            raise RuntimeError("report invariant broken")

        monkeypatch.setattr(algebra, "_complexity_report", broken)
        code = run_main(["alg", "liw", unit_pair_file, "--json"])
        self._assert_internal(capsys, code, "RuntimeError")


def test_error_types_are_the_ones_a_caller_tells_apart():
    # main sends every ValueError to exit 2, so a ValueError subclass tells
    # no caller anything; each class left is caught by name (the two budget
    # types for exit 3, ShapeViolation by the shape sweep) or names the
    # exit-4 line
    found = {}
    for info in pkgutil.iter_modules(wordlen.__path__):
        if info.name.startswith("__"):
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"wordlen.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[name] = obj
    assert sorted(found) == ["BoundInvariantError", "BudgetExceeded", "CapExceeded",
                             "NoShiftFound", "ShapeViolation"]
    assert not any(issubclass(cls, ValueError) for cls in found.values())


_BOUNDS_TEXT = {
    ("--dim", "16", "--m", "4", "--n", "4"): (
        "bound                          value\n"
        "trivial (d-1)                     15\n"
        "half-dimension                     8\n"
        "matrix ceil bound                  6\n"
        "sqrt-form (approx)         13.216152\n"
        "best max-form                   19/3  (k=2, floor=6)\n"
    ),
    ("--dim", "9", "--m", "3"): (
        "bound                          value\n"
        "trivial (d-1)                      8\n"
        "half-dimension                   9/2\n"
        "sqrt-form (approx)          8.624144\n"
        "best max-form                      4  (k=2, floor=4)\n"
    ),
    ("--dim", "10", "--m", "3"): (
        "bound                          value\n"
        "trivial (d-1)                      9\n"
        "half-dimension                     5\n"
        "sqrt-form (approx)          9.104686\n"
        "best max-form                   13/3  (k=2, floor=4)\n"
    ),
}
_BOUNDS_JSON = {
    ("--dim", "16", "--m", "4", "--n", "4"):
        '{"best_main": {"integer_value": 6, "k": 2, "value": "19/3"}, "d": 16, '
        '"halfdim": "8", "m": 4, "n": 4, "pappacena_approx": 13.216152, '
        '"pappacena_exceeds_main": true, "paz": 6, "trivial": 15}\n',
    ("--dim", "9", "--m", "3"):
        '{"best_main": {"integer_value": 4, "k": 2, "value": "4"}, "d": 9, '
        '"halfdim": "9/2", "m": 3, "n": null, "pappacena_approx": 8.624144, '
        '"pappacena_exceeds_main": true, "paz": null, "trivial": 8}\n',
    ("--dim", "10", "--m", "3"):
        '{"best_main": {"integer_value": 4, "k": 2, "value": "13/3"}, "d": 10, '
        '"halfdim": "5", "m": 3, "n": null, "pappacena_approx": 9.104686, '
        '"pappacena_exceeds_main": true, "paz": null, "trivial": 9}\n',
}


class TestBounds:
    @pytest.mark.parametrize("argv", list(_BOUNDS_TEXT))
    def test_full_output(self, capsys, argv):
        code, out = run(capsys, "bounds", *argv)
        assert code == 0 and out == _BOUNDS_TEXT[argv]
        code, out = run(capsys, "bounds", *argv, "--json")
        assert code == 0 and out == _BOUNDS_JSON[argv]

    def test_table(self, capsys):
        code, out = run(capsys, "bounds", "--dim", "4", "--m", "2", "--n", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["trivial"] == 3
        assert payload["halfdim"] == "2"
        assert payload["paz"] == 2
        assert payload["best_main"]["integer_value"] == 2
        assert payload["pappacena_exceeds_main"] is True

    def test_grid(self, capsys):
        code, out = run(capsys, "bounds", "--grid", "--m-max", "5", "--d-max", "60")
        assert code == 0
        summary = last_json(out)
        assert summary["counterexamples"] == 0

    def test_grid_counterexample(self, capsys, monkeypatch):
        real = bounds.pappacena_exceeds_main
        monkeypatch.setattr(bounds, "pappacena_exceeds_main",
                            lambda d, m: (d, m) != (7, 3) and real(d, m))
        code, out = run(capsys, "bounds", "--grid", "--m-max", "10", "--d-max", "10")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert lines == [{"d": 7, "m": 3}, {"cells": 45, "counterexamples": 1,
                                            "d_max": 10, "m_max": 10}]

    def test_grid_cell_budget(self, capsys, monkeypatch):
        # the cell count is checked in closed form, before the first cell
        checked = []
        real = bounds.pappacena_exceeds_main
        monkeypatch.setattr(bounds, "pappacena_exceeds_main",
                            lambda d, m: checked.append((d, m)) or real(d, m))
        monkeypatch.setattr(cli, "GRID_CELL_BUDGET", 45)
        code, out = run(capsys, "bounds", "--grid", "--m-max", "10", "--d-max", "10")
        assert code == 0 and last_json(out)["cells"] == len(checked) == 45
        checked.clear()
        code = run_main(["bounds", "--grid", "--m-max", "10", "--d-max", "11"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and checked == []
        assert captured.err == "error: 54 grid cells exceed budget 45\n"
        monkeypatch.undo()
        code = run_main(["bounds", "--grid", "--m-max", "2", "--d-max", str(10**12)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {10**12 - 1} grid cells exceed budget 1000000\n"

    def test_missing_args(self, capsys):
        code, _ = run(capsys, "bounds")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--m-max", "1"), ("--m-max", "-3"), ("--d-max", "1"), ("--d-max", "-4")],
    )
    def test_empty_grid_rejected(self, capsys, flag, value):
        code = run_main(["bounds", "--grid", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert flag in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("fmt", [["--json"], []])
    def test_float_range_of_sqrt_form(self, capsys, fmt):
        code, out = run(capsys, "bounds", "--dim", str(10**300), "--m", "4", *fmt)
        assert code == 0 and out
        code = run_main(["bounds", "--dim", str(10**400), "--m", "4", *fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --dim ")
        assert "Traceback" not in captured.err


class TestOracle:
    def test_small_run(self, capsys):
        code, out = run(
            capsys,
            "oracle",
            "--words", "50",
            "--maxlen", "60",
            "--qpt-maxlen", "8",
            "--sets", "5",
        )
        assert code == 0
        assert out.count("PASS") == 4

    def test_profile_mismatch(self, capsys, monkeypatch):
        # the automaton profile one too high at n = 1
        real = verify.complexity_profile

        def off_by_one(w):
            counts = list(real(w).counts)
            counts[1] += 1
            return words.ComplexityProfile(tuple(counts), sum(counts))

        monkeypatch.setattr(verify, "complexity_profile", off_by_one)
        code, out = run(capsys, "oracle", "--words", "5", "--maxlen", "20",
                        "--qpt-maxlen", "4", "--sets", "2")
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "FAIL profiles: 5 cases, 5 mismatches"
        records = [json.loads(line) for line in lines[1:6]]
        for ce in records:
            assert set(ce) == {"word", "fast", "naive"}
            assert ce["fast"][1] == ce["naive"][1] + 1
            assert ce["fast"][:1] + ce["fast"][2:] == ce["naive"][:1] + ce["naive"][2:]
        assert [line.split(":")[0] for line in lines[6:]] == [
            "PASS qpt", "PASS length", "PASS exponent"]

    def test_qpt_mismatch(self, capsys, monkeypatch):
        # the longest-repeat decomposition one letter too long in its period
        real = verify.minimal_qpt
        monkeypatch.setattr(verify, "minimal_qpt",
                            lambda w: dataclasses.replace(real(w), p=real(w).p + 1))
        code, out = run(capsys, "oracle", "--words", "5", "--maxlen", "20",
                        "--qpt-maxlen", "2", "--sets", "2", "--json")
        summaries = [json.loads(line) for line in out.splitlines() if "theorem" in line]
        records = [json.loads(line) for line in out.splitlines() if "theorem" not in line]
        assert code == 1
        assert [(r["theorem"], r["status"]) for r in summaries] == [
            ("profiles", "PASS"), ("qpt", "FAIL"), ("length", "PASS"), ("exponent", "PASS")]
        assert len(records) == summaries[1]["counterexamples"] == 206
        assert {"word": "a", "fast": "QptDecomposition(q=0, p=2, t=0, l=1)",
                "brute": "QptDecomposition(q=0, p=1, t=0, l=1)"} in records

    def test_json_summaries_name_the_space_checked(self, capsys):
        # Each cross-check's record names every part of its case space; the
        # old alphabet_size / max_length keys stay as they were.
        code, out = run(capsys, "oracle", "--words", "50", "--qpt-maxlen", "6",
                        "--sets", "5", "--json")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"theorem": "profiles", "words_checked": 50, "max_length": 300,
             "alphabet_size": 4, "counterexamples": 0, "status": "PASS",
             "space": {"random": {"words": 50, "max_length": 300,
                                  "alphabet_sizes": [2, 3, 4]}}},
            {"theorem": "qpt", "words_checked": 326, "max_length": 6,
             "alphabet_size": 2, "counterexamples": 0, "status": "PASS",
             "space": {"exhaustive": {"alphabet_size": 2, "max_length": 6},
                       "random": {"words": 200, "max_length": 30,
                                  "alphabet_sizes": [2, 3]}}},
            {"theorem": "length", "words_checked": 5, "max_length": 8,
             "alphabet_size": 2, "counterexamples": 0, "status": "PASS",
             "space": {"n": 2, "p": 5, "generators": 2, "cap": 8, "sets": 5}},
            {"theorem": "exponent", "words_checked": 312, "max_length": 1000,
             "alphabet_size": 4, "counterexamples": 0, "status": "PASS",
             "space": {"random": {"words": 300, "max_length": 60,
                                  "alphabet_sizes": [2, 3, 4]},
                       "long": {"fibonacci_factors": 4, "near_periodic": 4,
                                "random_4_letters": 4, "min_length": 600,
                                "max_length": 1000}}},
        ]
        # under sort_keys, space sorts before theorem, as CI's grep needs
        assert out.splitlines()[2].endswith('"theorem": "length", "words_checked": 5}')
