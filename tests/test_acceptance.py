"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The exhaustive sweeps and the large random cross-validations live here; the
per-module test files cover the same machinery at smaller sizes.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from conftest import dump_matrix_set, sample_generating_sets, wd
from wordlen.algebra import DEFAULT_SEARCH_BUDGET, check_irreducible_power_free, check_liw_complexity
from wordlen.bounds import (
    best_main_bound,
    main_bound,
    pappacena_exceeds_main,
    paz_bound,
)
from wordlen.cli import main as cli_main
from wordlen.linalg import (
    FMatrix,
    PrimeField,
    _poly_at,
    min_poly,
    random_matrix,
    shift_to_invertible,
)
from wordlen.oracles import brute_length, brute_min_qpt
from wordlen.powers import avoids, max_factor_exponent, verify_tc
from wordlen.structure import QptDecomposition
from wordlen.verify import (
    cross_validate_profiles,
    sweep_mh,
    sweep_mh_general,
    sweep_profile_shape,
    sweep_tc,
)
from wordlen.words import complexity_profile


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_01_worked_example_total_complexity(capsys):
    code, out = run_cli(capsys, "complexity", "abbabbabbb", "--json")
    payload = json.loads(out)
    counts_ok = payload["counts"] == [1, 2, 3, 4, 4, 4, 4, 4, 3, 2, 1]
    # 31 listed non-empty factors plus the empty one
    sum_ok = sum(payload["counts"]) == 31 + 1 == payload["total"]
    w = wd("abbabbabbb")
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        complexity_profile(w)
        times.append(time.perf_counter() - t0)
    elapsed = min(times)
    report(
        1,
        code == 0 and payload["total"] == 32 and counts_ok and sum_ok and elapsed < 1e-3,
        f"c(W)={payload['total']}, profile time {elapsed * 1e6:.0f} us",
    )


def test_02_worked_example_decomposition(capsys):
    code, out = run_cli(capsys, "decompose", "abbabbabaa", "--json")
    payload = json.loads(out)
    w = wd("abbabbabaa")
    brute = brute_min_qpt(w)
    ok = (
        code == 0
        and (payload["q"], payload["p"], payload["t"]) == (0, 3, 2)
        and payload["cost"] == 5
        and payload["profile_max"] <= 5
        and brute == QptDecomposition(0, 3, 2, 10)
    )
    report(2, ok, f"(q,p,t)=(0,3,2) cost 5, max_f={payload['profile_max']}, brute agrees")


def test_03_equivalence_exhaustive():
    t0 = time.perf_counter()
    r2 = sweep_mh(2, 16)
    r3 = sweep_mh(3, 12)
    elapsed = time.perf_counter() - t0
    ok = r2.ok and r3.ok and elapsed < 300
    report(
        3,
        ok,
        f"{r2.words_checked + r3.words_checked} words, "
        f"{len(r2.counterexamples) + len(r3.counterexamples)} counterexamples, {elapsed:.0f}s",
    )


def test_04_general_equivalence_exhaustive():
    r = sweep_mh_general(2, 14)
    report(4, r.ok, f"{r.words_checked} words, {len(r.counterexamples)} counterexamples")


def test_05_profile_shape_random():
    r = sweep_profile_shape(10_000, 200, seed=1405)
    report(5, r.ok, f"{r.words_checked} words, {len(r.counterexamples)} shape violations")


def test_06_total_complexity_exhaustive():
    r2 = sweep_tc(2, 16)
    r3 = sweep_tc(3, 12)
    example = verify_tc(wd("abbabbabbb"), 3)
    equality = example.c == example.bound == 32
    ok = r2.ok and r3.ok and equality
    report(
        6,
        ok,
        f"{r2.words_checked + r3.words_checked} words, "
        f"{len(r2.counterexamples) + len(r3.counterexamples)} counterexamples, "
        f"example equality {example.c}={example.bound}",
    )


def test_07_power_avoidance_example():
    w = wd("abcdbcdef")
    exp, span = max_factor_exponent(w)
    ok = (
        avoids(w, 2, strict_plus=True)
        and not avoids(w, 2, strict_plus=False)
        and span == (1, 7)
        and w.factor(*span).render() == "bcdbcd"
        and exp.value == 2
    )
    report(7, ok, f"avoids 2+ / not 2, witness {w.factor(*span).render()} at {span}")


def test_08_generating_set_length_example(capsys, tmp_path):
    field = PrimeField(5)
    gens = [
        FMatrix.from_rows(field, [[0, 1], [0, 0]]),
        FMatrix.from_rows(field, [[0, 0], [1, 0]]),
    ]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dump_matrix_set(field, 2, gens)))
    code, out = run_cli(capsys, "alg", "length", str(path), "--json")
    payload = json.loads(out)
    from wordlen.algebra import GeneratorSet

    brute = brute_length(GeneratorSet(field, 2, tuple(gens)), cap=4)
    ok = (
        code == 0
        and payload["length"] == 2
        and payload["dims"] == [1, 3, 4]
        and brute.length == 2
        and brute.dims == (1, 3, 4)
    )
    report(8, ok, f"l(S)={payload['length']}, dims={payload['dims']}, brute agrees")


_SAMPLED_SETS: list | None = None


def sampled_sets() -> list:
    global _SAMPLED_SETS
    if _SAMPLED_SETS is None:
        _SAMPLED_SETS = sample_generating_sets(
            200, dims=(2, 3, 4), primes=(5, 7, 11), seed=909
        )
    return _SAMPLED_SETS


def test_09_main_theorem_sampling():
    t0 = time.perf_counter()
    violations = [
        (S.n, S.field.p, trace.length)
        for S, trace in sampled_sets()
        if trace.length > best_main_bound(S.n * S.n, S.n).integer_value
    ]
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120
    report(9, ok, f"200 generating sets, {len(violations)} violations, {elapsed:.1f}s")


def test_10_irreducible_word_checks():
    checked = 0
    bad = 0
    for S, trace in sampled_sets():
        if trace.length > 10 or len(S.gens) ** trace.length > DEFAULT_SEARCH_BUDGET:
            continue
        checked += 1
        if not check_liw_complexity(S).all_ok:
            bad += 1
        if not check_irreducible_power_free(S, S.n).all_ok:
            bad += 1
    report(10, checked > 0 and bad == 0, f"{checked} sets checked, {bad} violations")


def test_11_bound_algebra():
    identity_ok = True
    for m in range(2, 21):
        for d in range(m, 401):
            halfdim = max(Fraction(m - 1), Fraction(d, 2))
            if main_bound(d, m, 0) != d - 1 or main_bound(d, m, 1) != halfdim:
                identity_ok = False
    paz_ok = all(
        main_bound(n * n, n, 2).numerator // main_bound(n * n, n, 2).denominator
        == paz_bound(n)
        for n in range(2, 51)
    )
    grid_bad = sum(
        1
        for m in range(2, 21)
        for d in range(m, 401)
        if not pappacena_exceeds_main(d, m)
    )
    ok = identity_ok and paz_ok and grid_bad == 0
    report(
        11,
        ok,
        f"k=0/k=1 identities {identity_ok}, matrix-ceil match {paz_ok}, "
        f"{grid_bad} dominance failures",
    )


def test_12_shift_to_invertible_random():
    import random as _random

    rng = _random.Random(1212)
    failures = 0
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        p = (5, 7, 11)[(i // 3) % 3]
        field = PrimeField(p)
        x = random_matrix(field, n, rng)
        res = shift_to_invertible(x)
        shifted = x + FMatrix.identity(field, n).scale(res.lam)
        ident = FMatrix.identity(field, n)
        if (
            shifted @ res.inverse != ident
            or res.inverse @ shifted != ident
            or res.cert_degree > min_poly(x).degree - 1
            or _poly_at(res.cert_coeffs, x) != res.inverse
        ):
            failures += 1
    report(12, failures == 0, f"500 matrices, {failures} failures")


def test_13_oracle_equivalence():
    r = cross_validate_profiles(10_000, 500, seed=1313)
    report(13, r.ok, f"{r.words_checked} words <= 500, {len(r.counterexamples)} mismatches")
