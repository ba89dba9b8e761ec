"""Shared test helpers and hypothesis strategies."""

from __future__ import annotations

import json
import random
import signal

import pytest
from hypothesis import strategies as st

from wordlen import cli, powers
from wordlen.algebra import GeneratorSet, LengthTrace, length_trace
from wordlen.linalg import FMatrix, PrimeField, SpanBasis, random_matrix
from wordlen.words import Alphabet, Word, parse_word

_FULL = Alphabet.letters(26)
MAIN_SECONDS = 60


def wd(text: str) -> Word:
    """Shorthand: parse single-char text over the full a..z alphabet."""
    return parse_word(text, _FULL)


def random_word(rng: random.Random, max_len: int, alphabet_sizes=(2, 3, 4)) -> Word:
    k = rng.choice(alphabet_sizes)
    l = rng.randint(1, max_len)
    return Word(tuple(rng.randrange(k) for _ in range(l)), Alphabet.letters(k))


def fibonacci_letters(length: int) -> tuple[int, ...]:
    """The length-letter prefix of the Fibonacci word 0100101001001..."""
    a, b = (0,), (0, 1)
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def thue_morse_letters(length: int) -> tuple[int, ...]:
    return tuple(bin(i).count("1") % 2 for i in range(length))


def square_free_ternary_letters(length: int) -> tuple[int, ...]:
    """The square-free fixed point abcacbabcbac... of a -> abc, b -> ac,
    c -> b: letter i is 2 minus the number of 1s between the i-th and the
    (i + 1)-th 0 of the Thue-Morse word."""
    zeros = [i for i, x in enumerate(thue_morse_letters(4 * length + 4)) if x == 0]
    return tuple(2 - (b - a - 1) for a, b in zip(zeros, zeros[1:]))[:length]


def seeded_letters(k: int, length: int) -> tuple[int, ...]:
    """length letters, each one rng.randrange(k) of rng = random.Random(1):
    the same draws as rng.choice over a k-letter string."""
    rng = random.Random(1)
    return tuple(rng.randrange(k) for _ in range(length))


def brute_repeats(letters: tuple[int, ...]) -> list[int]:
    """For each end e, the longest suffix of letters[:e+1] that also ends
    earlier, by comparing slices."""
    out = []
    for e in range(len(letters)):
        prefix = letters[: e + 1]
        earlier = [n for n in range(1, e + 1)
                   if any(prefix[i : i + n] == prefix[e + 1 - n :] for i in range(e + 1 - n))]
        out.append(max(earlier, default=0))
    return out


def histogram_of(repeats: list[int]) -> list[int]:
    """h[n] = #{e : L_e = n} for n = 0..R + 1, where R = max(L_e), so
    the last entry is 0."""
    h = [0] * (max(repeats, default=0) + 2)
    for n in repeats:
        h[n] += 1
    return h


def two_byte_word(length: int) -> Word:
    """298 distinct letters U+0100..U+0229, then the (length / 2)-letter
    Fibonacci prefix over U+022A, U+022B: letters 298 and 299, whose ids
    differ only in their low byte."""
    letters = tuple(range(298)) + tuple(298 + x for x in fibonacci_letters(length // 2))
    return Word(letters, Alphabet(tuple(map(chr, range(0x100, 0x22C)))))


@st.composite
def words_st(draw, min_size: int = 0, max_size: int = 40, max_alphabet: int = 4) -> Word:
    k = draw(st.integers(1, max_alphabet))
    letters = draw(st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size))
    return Word(tuple(letters), Alphabet.letters(k))


@pytest.fixture
def window_periods(monkeypatch) -> list[tuple]:
    """The arguments of every call the test makes to powers._band_runs,
    the block search of one band of periods."""
    calls = []
    real = powers._band_runs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(powers, "_band_runs", counted)
    return calls


def run_main(argv) -> int:
    """cli.main(argv) in process under a SIGALRM bound of MAIN_SECONDS: a
    call still running then fails its test, naming argv, rather than stall
    the suite.  Exit codes, SystemExit and exceptions pass through."""
    def expire(signum, frame):
        pytest.fail(f"main({list(argv)!r}) ran past {MAIN_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(MAIN_SECONDS)
    try:
        return cli.main(list(argv))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class CountingBasis(SpanBasis):
    """A span basis that counts the vectors it reduces."""

    reduced = 0

    def insert_slots(self, slots):
        self.reduced += 1
        return super().insert_slots(slots)


def fail_every_word(w: Word):
    """A per-word sweep check that reports one counterexample for every word,
    in the mh check's format."""
    yield {"word": w.render(), "n": 1, "f": len(set(w.letters)), "cost": len(w)}


def dump_matrix_set(field: PrimeField, n: int, matrices: list[FMatrix]) -> dict:
    """The matrix JSON schema {"p", "n", "matrices"} that load_matrix_set reads."""
    return {
        "p": field.p,
        "n": n,
        "matrices": [list(m.entries) for m in matrices],
    }


def write_set(path, S: GeneratorSet) -> str:
    """Write S to path as a matrix JSON file and return the path."""
    path.write_text(json.dumps(dump_matrix_set(S.field, S.n, S.gens)))
    return str(path)


def sample_generating_sets(
    count: int,
    dims: tuple[int, ...] = (2, 3, 4),
    primes: tuple[int, ...] = (5, 7, 11),
    seed: int = 0,
) -> list[tuple[GeneratorSet, LengthTrace]]:
    """Seeded random pairs that generate the full matrix algebra, with their
    traces; candidates that fail to generate everything are resampled, up to
    4 * count + 20 draws in all."""
    rng = random.Random(seed)
    out: list[tuple[GeneratorSet, LengthTrace]] = []
    for _ in range(4 * count + 20):
        n = rng.choice(dims)
        field = PrimeField(rng.choice(primes))
        S = GeneratorSet(field, n, (random_matrix(field, n, rng), random_matrix(field, n, rng)))
        trace = length_trace(S, max_len=n * n)
        if trace.generated_dim == n * n:
            out.append((S, trace))
            if len(out) == count:
                return out
    pytest.fail(f"{4 * count + 20} draws gave {len(out)} of {count} generating sets")


def _generators(field: PrimeField, n: int, *rows) -> GeneratorSet:
    return GeneratorSet(field, n, tuple(FMatrix.from_rows(field, g) for g in rows))


def jordan_corner(field: PrimeField, n: int) -> GeneratorSet:
    """The n x n Jordan block with eigenvalue 1 and the corner unit E_n1;
    they generate the full matrix algebra with l(S) = 2n - 2."""
    jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    corner = [[int((i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
    return _generators(field, n, jordan, corner)


def diag_shift(field: PrimeField, n: int) -> GeneratorSet:
    """diag(1..n) and the cyclic shift; they generate the full matrix
    algebra with l(S) = n."""
    diag = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    shift = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    return _generators(field, n, diag, shift)


def upper_triangular(field: PrimeField, n: int) -> GeneratorSet:
    """diag(1..n) and the n x n Jordan block; they span only the
    upper-triangular matrices, with l(S) = n - 1 when n <= p.

    Proof, for D = diag(1..n) and J = I + N, N the nilpotent shift.  The
    products of length <= i over {D, J} and over {D, N} span the same
    space, since J = I + N, N = J - I and I is the empty product.  As
    N D = (D + I) N, every product over {D, N} with b letters N and at
    most i - b letters D is a combination of D^a N^b with a <= i - b, and
    D^a N^b is such a product: so the span is that of {D^a N^b : a + b <= i}.
    D^a N^b lies on the b-th superdiagonal, with the entries k^a for
    k = 1..n - b.  If n <= p then 1..n are distinct mod p, so for each b
    the vectors (k^a) for k = 1..n - b and a = 0..i - b are independent
    (Vandermonde) while i - b + 1 <= n - b, that is i <= n - 1, and
    matrices on distinct diagonals are independent.  So
    dims[i] = (i + 1)(i + 2)/2, the number of pairs a + b <= i, for
    i <= n - 1.  At i = n - 1 that is n(n + 1)/2, every
    upper-triangular matrix, so l(S) = n - 1 and dim L(S) = n(n + 1)/2.
    """
    diag = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    return _generators(field, n, diag, jordan)


def diagonal_set(field: PrimeField, diagonals: list[tuple[int, ...]]) -> GeneratorSet:
    """One diagonal matrix per tuple of diagonal entries."""
    n = len(diagonals[0])
    rows = ([[d[i] if i == j else 0 for j in range(n)] for i in range(n)] for d in diagonals)
    return _generators(field, n, *rows)


def seeded_set(field: PrimeField, n: int, k: int) -> GeneratorSet:
    """k uniformly random n x n matrices drawn by random.Random(n)."""
    rng = random.Random(n)
    return GeneratorSet(field, n, tuple(random_matrix(field, n, rng) for _ in range(k)))
