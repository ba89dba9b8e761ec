"""The benchmark's workloads: seeded inputs, the public wordlen calls each
item makes, and the checks each output must pass.

Every workload is a list of batches of items.  An item is one public call
(or, on ``alg_liw``, the call sequence of one ``wordlen alg liw`` command)
on inputs already built into library objects.  Inputs keep the same shape
for every seed (same sizes, word classes and matrix families); the seed only
fills in their content, so runs with different seeds measure the same
amount of work.

Checks run outside the timed region.  They use a brute-force oracle where
its domain allows and structural invariants everywhere else; a check
returns the number of failed items in one output (0 when it is correct).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from wordlen import algebra, linalg, oracles, powers, structure, verify, words


@dataclass(eq=False)
class Item:
    label: str
    weight: int  # items this call counts for: words checked on sweep, else 1
    call: Callable[[], object]
    check: Callable[[object], int]  # failed items in the output, 0..weight


@dataclass
class Workload:
    batches: list[list[Item]]
    info: dict
    plant: Callable[[], None]  # makes one public call return a wrong output

    @property
    def items_per_pass(self) -> int:
        return sum(item.weight for batch in self.batches for item in batch)


def _patch(module, attr: str, corrupt: Callable) -> None:
    original = getattr(module, attr)
    setattr(module, attr, lambda *args, **kwargs: corrupt(original(*args, **kwargs)))


# ---------------------------------------------------------------- sweep

# (theorem, alphabet size, max length): every binary word up to length 14 and
# every ternary word up to length 9, 62,289 words, each checked by both sweeps.
SWEEP_SPACES = (("mh", 2, 14), ("tc", 2, 14), ("mh", 3, 9), ("tc", 3, 9))
SWEEP_SHARDS = 64


def _sweep_item(theorem: str, k: int, max_len: int, shard: int) -> Item:
    total = sum(k**j for j in range(1, max_len + 1))
    expected = len(range(shard, total, SWEEP_SHARDS))

    def call():
        return getattr(verify, f"sweep_{theorem}")(k, max_len, shard=(shard, SWEEP_SHARDS))

    def check(report) -> int:
        header = (report.name, report.alphabet_size, report.max_length, report.words_checked)
        if header != (theorem, k, max_len, expected):
            return expected
        return len({ce["word"] for ce in report.counterexamples})

    return Item(f"sweep_{theorem}({k},{max_len}) shard {shard}/{SWEEP_SHARDS}",
                expected, call, check)


def build_sweep(seed: int) -> Workload:
    shards = list(range(SWEEP_SHARDS))
    random.Random(seed).shuffle(shards)
    batches = [[_sweep_item(t, k, l, s) for t, k, l in SWEEP_SPACES] for s in shards]

    def plant():
        _patch(verify, "sweep_tc",
               lambda r: dataclasses.replace(r, words_checked=r.words_checked - 1))

    words_per_pass = sum(k**j for t, k, l in SWEEP_SPACES if t == "mh" for j in range(1, l + 1))
    info = {
        "spaces": [f"sweep_{t}({k},{l})" for t, k, l in SWEEP_SPACES],
        "words": words_per_pass,
        "word_checks_per_pass": 2 * words_per_pass,
        "shards": SWEEP_SHARDS,
    }
    return Workload(batches, info, plant)


# ------------------------------------------------------------- longword

# (query, word class, length, alphabet size).  The classes change the cost
# of the same call: early pruning in minimal_qpt and short automaton chains
# make repetitive words cheap, so an O(l) rewrite must win on random words
# without regressing on repetitive ones.
LONGWORD_QUERIES = (
    ("profile_shape", "random", 100_000, 2),
    ("profile_shape", "fibonacci", 100_000, 2),
    ("profile_shape", "near_periodic", 30_000, 3),
    ("complexity_profile", "random", 10_000, 4),
    ("complexity_profile", "random", 30_000, 3),
    ("complexity_profile", "fibonacci", 50_000, 2),
    ("minimal_qpt", "random", 1_000, 2),
    ("minimal_qpt", "random", 1_500, 3),
    ("minimal_qpt", "fibonacci", 2_000, 2),
    ("minimal_qpt", "near_periodic", 1_000, 3),
    ("max_factor_exponent", "random", 1_000, 2),
    ("max_factor_exponent", "random", 2_000, 4),
    ("max_factor_exponent", "fibonacci", 1_500, 2),
    ("max_factor_exponent", "near_periodic", 2_000, 2),
)
NEAR_PERIODIC_PERIOD = 11
NEAR_PERIODIC_EDGE = 0.02  # random prefix and suffix, each this share of l
SPOT_LENGTHS = (1, 2, 3, 5, 8, 13, 21, 34, 55)


def _random_letters(rng: random.Random, length: int, k: int) -> bytes:
    return rng.randbytes(length).translate(bytes(i % k for i in range(256)))


def _fibonacci_letters(rng: random.Random, length: int) -> bytes:
    """A factor of the Fibonacci word at a seeded offset."""
    offset = rng.randrange(1000)
    a, b = b"\x00", b"\x00\x01"
    while len(b) < offset + length:
        a, b = b, b + a
    return b[offset : offset + length]


def _near_periodic_letters(rng: random.Random, length: int, k: int) -> bytes:
    edge = int(length * NEAR_PERIODIC_EDGE)
    core_len = length - 2 * edge
    base = _random_letters(rng, NEAR_PERIODIC_PERIOD, k)
    core = (base * (core_len // NEAR_PERIODIC_PERIOD + 1))[:core_len]
    return _random_letters(rng, edge, k) + core + _random_letters(rng, edge, k)


def _factor_count(seq: bytes, n: int) -> int:
    """Distinct factors of length n, from a substring set (bench-side oracle)."""
    if n == 0:
        return 1
    return len({seq[i : i + n] for i in range(len(seq) - n + 1)})


def _has_period(seq: bytes, start: int, end: int, p: int) -> bool:
    return all(seq[i] == seq[i + p] for i in range(start, end - p))


def _shape(counts: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(m_star, plateau_end, peak) if the profile is strictly increasing up
    to m_star, constant through l - peak + 1 and then falls by one per step;
    None otherwise."""
    l = len(counts) - 1
    ms = 0
    while ms < l and counts[ms + 1] > counts[ms]:
        ms += 1
    peak = counts[ms]
    end = l - peak + 1
    if (all(counts[j] == peak for j in range(ms, end + 1))
            and all(counts[j + 1] == counts[j] - 1 for j in range(end, l))):
        return ms, end, peak
    return None


def _profile_ok(seq: bytes, counts: tuple[int, ...]) -> bool:
    """Length and f(0), and f(n) against substring sets at short and
    near-full lengths (where the sets stay small)."""
    l = len(seq)
    spots = {n for n in SPOT_LENGTHS if n <= l} | {l - n for n in SPOT_LENGTHS if n <= l}
    return (len(counts) == l + 1 and counts[0] == 1
            and all(counts[n] == _factor_count(seq, n) for n in spots))


def _longest_repeat(counts: tuple[int, ...]) -> int:
    """Length of the longest factor occurring at two positions."""
    l = len(counts) - 1
    return max(n for n in range(l + 1) if counts[n] <= l - n)


def _check_profile_shape(w, seq):
    def check(shape) -> int:
        counts = words.complexity_profile(w).counts
        ok = (_profile_ok(seq, counts)
              and _shape(counts) == (shape.m_star, shape.plateau_end, shape.peak))
        return 0 if ok else 1

    return check


def _check_complexity_profile(w, seq):
    def check(profile) -> int:
        c = profile.counts
        ok = _profile_ok(seq, c) and profile.total == sum(c) and _shape(c) is not None
        return 0 if ok else 1

    return check


def _check_minimal_qpt(w, seq):
    l = len(seq)

    def check(dec) -> int:
        # min cost = l - R, R the longest repeated factor; R comes from the
        # substring-set oracle where its domain allows, else the automaton.
        if l <= oracles.NAIVE_PROFILE_CAP:
            counts = oracles.naive_profile(w).counts
        else:
            counts = words.complexity_profile(w).counts
        ok = (dec.l == l and structure.decompose_check(w, dec)
              and _has_period(seq, dec.q, l - dec.t, dec.p)
              and dec.cost == l - _longest_repeat(counts))
        return 0 if ok else 1

    return check


def _check_max_exponent(w, seq):
    l = len(seq)

    def check(result) -> int:
        exp, (start, end) = result
        ok = (0 <= start < end <= l and end - start == exp.num
              and 1 <= exp.den <= exp.num and _has_period(seq, start, end, exp.den))
        return 0 if ok else 1

    return check


# query -> (module it is looked up in at call time, output check)
_LONGWORD_CALLS = {
    "profile_shape": (structure, _check_profile_shape),
    "complexity_profile": (words, _check_complexity_profile),
    "minimal_qpt": (structure, _check_minimal_qpt),
    "max_factor_exponent": (powers, _check_max_exponent),
}


def build_longword(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for query, cls, length, k in LONGWORD_QUERIES:
        if cls == "random":
            seq = _random_letters(rng, length, k)
        elif cls == "fibonacci":
            seq = _fibonacci_letters(rng, length)
        else:
            seq = _near_periodic_letters(rng, length, k)
        w = words.Word(tuple(seq), words.Alphabet.letters(k))
        module, check = _LONGWORD_CALLS[query]
        items.append(Item(f"{query}/{cls}/l={length}/k={k}", 1,
                          lambda module=module, query=query, w=w: getattr(module, query)(w),
                          check(w, seq)))
    rng.shuffle(items)

    def plant():
        _patch(structure, "minimal_qpt", lambda d: dataclasses.replace(d, p=d.p + 1))

    repetitive = sum(cls != "random" for _, cls, _, _ in LONGWORD_QUERIES)
    info = {
        "queries": len(items),
        "random_share": 1 - repetitive / len(items),
        "repetitive_share": repetitive / len(items),
        "profile_lengths": sorted({l for q, _, l, _ in LONGWORD_QUERIES if "profile" in q}),
        "qpt_exponent_lengths": sorted({l for q, _, l, _ in LONGWORD_QUERIES if "profile" not in q}),
    }
    return Workload([items], info, plant)


# ------------------------------------------------------------- alg_span

ALG_SPAN_P = 10007
ALG_SPAN_DIMS = (8, 9, 10, 11, 12)
ALG_SPAN_BATCHES = 2  # each batch holds one set of every size
BRUTE_LENGTH_MAX_N = 9  # brute_length re-multiplies every word; cheap up to here


def _check_dims(trace, S: algebra.GeneratorSet) -> bool:
    """Span-growth invariants: dims start at the identity, strictly increase,
    stay within n^2, and a level grows by at most |S| times the growth of
    the level before (only new independent products are extended)."""
    dims = trace.dims
    growth = [1] + [b - a for a, b in zip(dims, dims[1:])]
    return (dims[0] == 1 and all(g >= 1 for g in growth)
            and trace.length == len(dims) - 1
            and trace.generated_dim == dims[-1] <= S.n * S.n
            and all(b <= len(S.gens) * a for a, b in zip(growth, growth[1:])))


def _check_trace(S: algebra.GeneratorSet, oracle_max_n: int):
    def check(trace) -> int:
        ok = _check_dims(trace, S)
        if ok and S.n <= oracle_max_n:
            try:
                ok = oracles.brute_length(S, cap=trace.length + 1) == trace
            except algebra.CapExceeded:
                ok = False
        return 0 if ok else 1

    return check


def build_alg_span(seed: int) -> Workload:
    rng = random.Random(seed)
    field = linalg.PrimeField(ALG_SPAN_P)
    batches = []
    for _ in range(ALG_SPAN_BATCHES):
        batch = []
        for n in ALG_SPAN_DIMS:
            S = algebra.GeneratorSet(field, n, (linalg.random_matrix(field, n, rng),
                                                linalg.random_matrix(field, n, rng)))
            batch.append(Item(f"length_trace/random/n={n}", 1,
                              lambda S=S: algebra.length_trace(S, max_len=S.n * S.n),
                              _check_trace(S, BRUTE_LENGTH_MAX_N)))
        rng.shuffle(batch)
        batches.append(batch)

    def plant():
        _patch(algebra, "length_trace",
               lambda t: algebra.LengthTrace(t.dims[:-1], t.length - 1, t.dims[-2]))

    info = {
        "sets": ALG_SPAN_BATCHES * len(ALG_SPAN_DIMS),
        "p": ALG_SPAN_P,
        "n_range": [min(ALG_SPAN_DIMS), max(ALG_SPAN_DIMS)],
        "d_range": [min(ALG_SPAN_DIMS) ** 2, max(ALG_SPAN_DIMS) ** 2],
    }
    return Workload(batches, info, plant)


# -------------------------------------------------------------- alg_liw

# (family, n, p): diag(1..n) with the cyclic shift has l(S) = n, a Jordan
# block with a corner unit has l(S) = 2n - 2, and diag(1..n) with a Jordan
# block generates only the upper-triangular matrices (dimension n(n+1)/2,
# l(S) = n - 1), which sends `alg liw` through estimate_m_star.  The prime is
# fixed per set because it changes the work: small p gives more zero
# coefficients for elimination to skip, and more coinciding products.
ALG_LIW_SETS = (
    ("diag_shift", 5, 11), ("diag_shift", 6, 13), ("diag_shift", 7, 17), ("diag_shift", 8, 19),
    ("jordan_corner", 5, 11), ("jordan_corner", 6, 13), ("jordan_corner", 7, 17),
    ("jordan_corner", 8, 19), ("upper_triangular", 6, 13), ("upper_triangular", 7, 17),
)
ALG_LIW_ORACLE_MAX_N = 6


def _family(name: str, n: int) -> tuple[list[list[int]], list[list[int]], int, int]:
    """Generator pair, l(S) and dim L(S) of a structured family."""
    def mat(entry: Callable[[int, int], int]) -> list[list[int]]:
        return [[entry(i, j) for j in range(n)] for i in range(n)]

    diag = mat(lambda i, j: i + 1 if i == j else 0)
    jordan = mat(lambda i, j: 1 if j in (i, i + 1) else 0)
    if name == "diag_shift":
        return diag, mat(lambda i, j: 1 if j == (i + 1) % n else 0), n, n * n
    if name == "jordan_corner":
        return jordan, mat(lambda i, j: 1 if (i, j) == (n - 1, 0) else 0), 2 * n - 2, n * n
    return diag, jordan, n - 1, n * (n + 1) // 2


def _conjugate(rows: list[list[int]], perm: list[int], scale: list[int], p: int) -> list[list[int]]:
    """Q^-1 M Q for the monomial matrix Q e_j = scale[j] e_perm[j]; similarity
    keeps every span dimension, so l(S) and the liw words are unchanged."""
    inv = [pow(s, p - 2, p) for s in scale]
    n = len(rows)
    return [[inv[i] * rows[perm[i]][perm[j]] * scale[j] % p for j in range(n)] for i in range(n)]


def _liw_command(S: algebra.GeneratorSet):
    """The public calls `wordlen alg liw` makes, in its order."""
    trace = algebra.length_trace(S, max_len=S.n * S.n)
    if trace.generated_dim == S.n * S.n:
        m = S.n
    else:
        m = algebra.estimate_m_star(S, word_len_cap=max(trace.length, 1) + 1)
    comp = algebra.check_liw_complexity(S)
    power = algebra.check_irreducible_power_free(S, m) if S.field.p > m else None
    return trace, m, comp, power


def _distinct_factors(word: tuple[int, ...]) -> int:
    return 1 + sum(len({word[i : i + n] for i in range(len(word) - n + 1)})
                   for n in range(1, len(word) + 1))


def _max_exponent(word: tuple[int, ...]) -> Fraction:
    best = Fraction(1)
    for s in range(len(word)):
        for e in range(s + 1, len(word) + 1):
            p = next(p for p in range(1, e - s + 1)
                     if all(word[i] == word[i + p] for i in range(s, e - p)))
            best = max(best, Fraction(e - s, p))
    return best


def _check_liw(S: algebra.GeneratorSet, length: int, dim: int):
    check_trace = _check_trace(S, ALG_LIW_ORACLE_MAX_N)
    k = len(S.gens)

    def check(out) -> int:
        trace, m, comp, power = out
        if check_trace(trace) or (trace.length, trace.generated_dim, m) != (length, dim, S.n):
            return 1
        if power is None or not (comp.all_ok and power.all_ok):
            return 1
        if ((comp.length, comp.generated_dim, len(comp.entries)) != (length, dim, length)
                or (power.length, power.limit, len(power.entries)) != (length, m - 1, length)):
            return 1
        for i, (e, pe) in enumerate(zip(comp.entries, power.entries), start=1):
            c, exp = _distinct_factors(e.word), _max_exponent(e.word)
            if not (e.i == pe.i == i and len(e.word) == i and pe.word == e.word
                    and all(0 <= a < k for a in e.word)
                    and e.complexity_total == c and e.dim_bound == dim and e.ok == (c <= dim)
                    and pe.exponent.value == exp and pe.ok == (exp <= m - 1)):
                return 1
        return 0

    return check


def build_alg_liw(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for family, n, p in ALG_LIW_SETS:
        field = linalg.PrimeField(p)
        perm = list(range(n))
        rng.shuffle(perm)
        scale = [rng.randrange(1, p) for _ in range(n)]
        a, b, length, dim = _family(family, n)
        gens = tuple(linalg.FMatrix.from_rows(field, _conjugate(g, perm, scale, p)) for g in (a, b))
        S = algebra.GeneratorSet(field, n, gens)
        items.append(Item(f"alg_liw/{family}/n={n}/p={p}", 1,
                          lambda S=S: _liw_command(S), _check_liw(S, length, dim)))
    rng.shuffle(items)

    def plant():
        def bump(report):
            last = report.entries[-1]
            wrong = dataclasses.replace(last, complexity_total=last.complexity_total + 1)
            return dataclasses.replace(report, entries=report.entries[:-1] + (wrong,))
        _patch(algebra, "check_liw_complexity", bump)

    ns = [n for _, n, _ in ALG_LIW_SETS]
    info = {
        "sets": len(items),
        "families": sorted({f for f, _, _ in ALG_LIW_SETS}),
        "full_sets": sum(f != "upper_triangular" for f, _, _ in ALG_LIW_SETS),
        "n_range": [min(ns), max(ns)],
        "d_range": [min(ns) ** 2, max(ns) ** 2],
        "primes": sorted({p for _, _, p in ALG_LIW_SETS}),
    }
    return Workload([items], info, plant)


BUILDERS = {
    "sweep": build_sweep,
    "longword": build_longword,
    "alg_span": build_alg_span,
    "alg_liw": build_alg_liw,
}
