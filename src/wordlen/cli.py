"""Command-line front door.

One binary, subcommand style.  Human tables go to stdout; --json switches
them to machine-readable output with stable keys, and `verify`, `powers` and
`bounds --grid` always print JSON lines.  Exit codes: 0 success, 1 a
verifier found a counterexample, 2 usage or input error (any ValueError or
OSError), 3 budget exceeded (algebra.BudgetExceeded or CapExceeded), 4
internal error (a bug, never a verdict).  An `alg liw` power row fails only
under a certified m: n for a full span, else a product scan that reaches
min(n, dim L(S)), the most any element of L(S) can have.  A scan below that
is only a lower bound, reported as estimated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from . import algebra, bounds, oracles, powers, structure, verify, words

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# The most (d, m) cells `bounds --grid` checks: 20-35 s at the 22-33 us a
# cell measured on a 2-core Xeon (CPython 3.11).
GRID_CELL_BUDGET = 1_000_000

_SWEEPS = {
    "mh": verify.sweep_mh,
    "mhgen": verify.sweep_mh_general,
    "tc": verify.sweep_tc,
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_word_arg(text: str, alphabet_spec: str | None) -> tuple[words.Word, bool]:
    if alphabet_spec is not None:
        return words.parse_word(text, words.Alphabet.from_spec(alphabet_spec)), False
    tokens = words.tokenize(text)
    if not tokens:
        raise ValueError("cannot infer an alphabet from an empty word; give --alphabet")
    first_seen = list(dict.fromkeys(tokens))
    alphabet = words.Alphabet(tuple(first_seen))
    return words.parse_word(text, alphabet), True


def _cmd_complexity(args: argparse.Namespace) -> int:
    w, inferred = _parse_word_arg(args.word, args.alphabet)
    prof = words.complexity_profile(w)
    payload = {
        "word": w.render(),
        "alphabet": list(w.alphabet.symbols),
        "alphabet_inferred": inferred,
        "counts": list(prof.counts),
        "total": prof.total,
    }
    if args.json:
        _emit(payload)
    else:
        if inferred:
            print(f"alphabet (inferred): {' '.join(w.alphabet.symbols)}")
        for n, f in enumerate(prof.counts):
            print(f"f({n}) = {f}")
        print(f"total c(W) = {prof.total}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    w, inferred = _parse_word_arg(args.word, args.alphabet)
    dec = structure.minimal_qpt(w)
    payload = {
        "word": w.render(),
        "alphabet_inferred": inferred,
        "q": dec.q,
        "p": dec.p,
        "t": dec.t,
        "l": dec.l,
        "cost": dec.cost,
        "core_exponent": str(dec.core_exponent),
        # max f = f(R + 1) = l - R: from R + 1 on no factor repeats, so f falls
        "profile_max": dec.cost,
    }
    if args.n is not None:
        n, l = args.n, len(w)
        if n < 1 or 2 * n > l:
            raise ValueError(f"need 1 <= n <= l/2, got n={n}, l={l}")
        # left side from substring sets, right side from the automaton
        lhs = words.factor_count(w, n) <= n
        rhs = dec.cost <= n
        payload.update({"n": n, "lhs": lhs, "rhs": rhs, "agree": lhs == rhs})
    if args.json:
        _emit(payload)
    else:
        print(
            f"q={dec.q} p={dec.p} t={dec.t} cost={dec.cost} "
            f"exponent={payload['core_exponent']} max_f={payload['profile_max']}"
        )
        if args.n is not None:
            print(f"n={args.n}: f(n)<=n is {payload['lhs']}, cost<=n is {payload['rhs']}")
    if args.n is not None and not payload["agree"]:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_powers(args: argparse.Namespace) -> int:
    w, _ = _parse_word_arg(args.word, args.alphabet)
    exp, span = powers.max_factor_exponent(w)
    _emit(
        {
            "max_exponent": str(exp),
            "value": str(exp.value),
            "witness": [span[0], span[1]],
            "witness_factor": w.factor(span[0], span[1]).render(),
        }
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.theorem == "shape":
        report = verify.sweep_profile_shape(args.count, args.maxlen, seed=args.seed)
    else:
        # one shard per process; the merged report is the same for any count
        of = min(args.jobs, os.cpu_count() or 1)
        sweep = functools.partial(_SWEEPS[args.theorem], args.alphabet, args.maxlen, args.budget)
        shards = [(i, of) for i in range(of)]
        if of == 1:
            parts = [sweep(shards[0])]
        else:
            import multiprocessing

            with multiprocessing.Pool(of) as pool:
                parts = pool.map(sweep, shards)
        report = verify.merge_reports(parts)
    for ce in report.counterexamples:
        _emit(ce)
    _emit(report.summary())
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _cmd_alg(args: argparse.Namespace) -> int:
    S = algebra.GeneratorSet.from_file(args.file)
    cap = S.n * S.n if args.cap is None else args.cap
    # one walk serves the trace, the words and both reports
    trace = algebra.length_trace(S, max_len=cap)
    if args.action == "length":
        payload = {
            "dims": list(trace.dims),
            "length": trace.length,
            "generated_dim": trace.generated_dim,
        }
        if args.json:
            _emit(payload)
        else:
            print(f"dims: {list(trace.dims)}")
            print(f"l(S) = {trace.length}, dim L(S) = {trace.generated_dim}")
        return EXIT_OK

    if trace.generated_dim == S.n * S.n:
        m = S.n
    else:
        m = algebra.estimate_m_star(S, word_len_cap=max(trace.length, 1) + 1)
    # no x in L(S) has deg mu_x above n (Cayley-Hamilton) or above dim L(S)
    # (1, x, ..., x^dim are dependent), so a scan that reaches both is exact
    estimated = m < min(S.n, trace.generated_dim)
    comp = algebra._complexity_report(S, trace)
    power_report = algebra._power_free_report(S, m, trace) if S.field.p > m else None
    alphabet = S.word_alphabet
    rows = [
        {
            "i": entry.i,
            "word": words.Word(entry.word, alphabet).render(),
            "c": entry.complexity_total,
            "c_ok": entry.ok,
        }
        for entry in comp.entries
    ]
    if power_report is not None:
        for row, pentry in zip(rows, power_report.entries):
            row["max_exponent"] = str(pentry.exponent)
            row["power_ok"] = pentry.ok
    payload = {
        "length": trace.length,
        "generated_dim": trace.generated_dim,
        "m": m,
        "m_estimated": estimated,
        "power_checked": power_report is not None,
        "liw": rows,
    }
    if args.json:
        _emit(payload)
    else:
        print(f"l(S) = {trace.length}, dim = {trace.generated_dim}, m = {m}"
              + (" (estimated)" if estimated else ""))
        for row in rows:
            print(f"  i={row['i']} word={row['word']} c={row['c']} ok={row['c_ok']}"
                  + (f" exp={row['max_exponent']} power_ok={row['power_ok']}"
                     if "max_exponent" in row else ""))
    ok = comp.all_ok and (power_report is None or estimated or power_report.all_ok)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _cmd_bounds(args: argparse.Namespace) -> int:
    point = {"--dim": args.dim, "--m": args.m, "--n": args.n}
    grid = {"--m-max": args.m_max, "--d-max": args.d_max}
    stray = [flag for flag, value in (point if args.grid else grid).items() if value is not None]
    if stray:
        rule = "cannot be combined with" if args.grid else "apply only with"
        raise ValueError(f"{', '.join(stray)} {rule} --grid")
    if args.grid:
        m_max = 20 if args.m_max is None else args.m_max
        d_max = 400 if args.d_max is None else args.d_max
        for flag, value in (("--m-max", m_max), ("--d-max", d_max)):
            if value < 2:
                raise ValueError(f"{flag} must be >= 2 for a non-empty grid, got {value}")
        # d >= m, so no row past d_max has a cell: rows m = 2..M hold
        # d_max - m + 1 cells each
        top = min(m_max, d_max)
        cells = (top - 1) * (d_max + 1) - top * (top + 1) // 2 + 1
        if cells > GRID_CELL_BUDGET:
            raise algebra.BudgetExceeded(f"{cells} grid cells exceed budget {GRID_CELL_BUDGET}")
        bad = [
            {"d": d, "m": m}
            for m in range(2, top + 1)
            for d in range(m, d_max + 1)
            if not bounds.pappacena_exceeds_main(d, m)
        ]
        for ce in bad:
            _emit(ce)
        _emit({"cells": cells, "counterexamples": len(bad), "d_max": d_max, "m_max": m_max})
        return EXIT_OK if not bad else EXIT_COUNTEREXAMPLE

    d, m, n = args.dim, args.m, args.n
    if d is None or m is None:
        raise ValueError("bounds requires --dim and --m (or --grid)")
    # in this order a bad (d, m) is reported before a bad n, and both before
    # the float overflow of the sqrt form
    best = bounds.best_main_bound(d, m)
    paz = bounds.paz_bound(n) if n is not None else None
    halfdim = bounds.main_bound(d, m, 1)
    try:
        approx = bounds.pappacena_approx(d, m)
    except OverflowError:
        raise ValueError(f"--dim {d} is too large for the float sqrt-form bound") from None
    payload = {
        "d": d,
        "m": m,
        "n": n,
        "trivial": d - 1,
        "halfdim": str(halfdim),
        "paz": paz,
        "pappacena_approx": round(approx, 6),
        "best_main": {
            "k": best.k_star,
            "value": str(best.value),
            "integer_value": best.integer_value,
        },
        "pappacena_exceeds_main": bounds.pappacena_exceeds_main(d, m),
    }
    if args.json:
        _emit(payload)
    else:
        print(f"{'bound':<22}{'value':>14}")
        print(f"{'trivial (d-1)':<22}{d - 1:>14}")
        print(f"{'half-dimension':<22}{str(halfdim):>14}")
        if paz is not None:
            print(f"{'matrix ceil bound':<22}{paz:>14}")
        print(f"{'sqrt-form (approx)':<22}{payload['pappacena_approx']:>14}")
        print(f"{'best max-form':<22}{str(best.value):>14}"
              f"  (k={best.k_star}, floor={best.integer_value})")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    # No case may run before every limit is tested.  Each cross-check tests
    # its own when called, so --maxlen is tested here and the qpt check runs
    # first; the reports print in the order below.
    oracles.check_naive_length(args.maxlen)
    qpt = verify.cross_validate_qpt(args.qpt_maxlen, seed=args.seed)
    checks = [
        verify.cross_validate_profiles(args.words, args.maxlen, seed=args.seed),
        qpt,
        verify.cross_validate_length(args.sets, seed=args.seed),
        verify.cross_validate_exponent(seed=args.seed),
    ]
    failed = False
    for report in checks:
        status = "PASS" if report.ok else "FAIL"
        if args.json:
            _emit(report.summary() | {"status": status})
        else:
            print(f"{status} {report.name}: {report.words_checked} cases, "
                  f"{len(report.counterexamples)} mismatches")
        for ce in report.counterexamples:
            _emit(ce)
        failed = failed or not report.ok
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordlen",
        description="Subword complexity, periodic decompositions, power "
        "avoidance, and length bounds for matrix algebras over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("complexity", help="factor counts and total complexity")
    c.add_argument("word")
    c.add_argument("--alphabet", help="explicit alphabet (chars or comma tokens)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_complexity)

    d = sub.add_parser("decompose", help="minimal (q, p, t) decomposition")
    d.add_argument("word")
    d.add_argument("--n", type=int, help="also check the equivalence at this n")
    d.add_argument("--alphabet")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("powers", help="max factor exponent and witness (JSON)")
    p.add_argument("word")
    p.add_argument("--alphabet")
    p.set_defaults(func=_cmd_powers)

    v = sub.add_parser("verify", help="theorem sweeps (JSON lines)")
    theorems = v.add_subparsers(dest="theorem", required=True)
    for name in _SWEEPS:
        t = theorems.add_parser(name, help="exhaustive sweep over every word")
        t.add_argument("--alphabet", type=int, default=2, help="alphabet size")
        t.add_argument("--maxlen", type=positive_int, default=12)
        t.add_argument("--jobs", type=positive_int, default=1,
                       help="processes, at most one per CPU, one shard each")
        t.add_argument("--budget", type=positive_int, default=oracles.DEFAULT_ENUMERATION_BUDGET,
                       help="enumeration budget (words)")
    t = theorems.add_parser("shape", help="profile shape on seeded random words")
    t.add_argument("--count", type=positive_int, default=10_000, help="random words")
    t.add_argument("--maxlen", type=positive_int, default=12)
    t.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify)

    a = sub.add_parser("alg", help="generating-set length and irreducible words")
    a.add_argument("action", choices=["length", "liw"])
    a.add_argument("file", help="matrix JSON {p, n, matrices}")
    a.add_argument("--cap", type=positive_int, help="step cap (default n^2)")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=_cmd_alg)

    b = sub.add_parser("bounds", help="closed-form length bounds")
    b.add_argument("--dim", type=int, help="algebra dimension d")
    b.add_argument("--m", type=int, help="max minimal-polynomial degree")
    b.add_argument("--n", type=int, help="matrix size (enables the ceil bound)")
    b.add_argument("--grid", action="store_true", help="dominance sweep (JSON lines)")
    b.add_argument("--m-max", type=int, help="largest m of the grid (default 20)")
    b.add_argument("--d-max", type=int, help="largest d of the grid (default 400)")
    b.add_argument("--json", action="store_true", help="table as JSON; --grid prints JSON anyway")
    b.set_defaults(func=_cmd_bounds)

    o = sub.add_parser("oracle", help="fast-path versus brute-force cross checks")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--words", type=positive_int, default=2000, help="random profile checks")
    o.add_argument("--maxlen", type=positive_int, default=300)
    o.add_argument("--qpt-maxlen", type=positive_int, default=12,
                   help="exhaustive qpt length")
    o.add_argument("--sets", type=positive_int, default=50, help="random generator sets")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (algebra.BudgetExceeded, algebra.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # exit 1 is reserved for counterexamples, so a bug must not end in
        # Python's default status for an uncaught exception
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"({Path(where.filename).name}:{where.lineno})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
