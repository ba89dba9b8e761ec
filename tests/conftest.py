"""Shared test helpers and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from wordlen import powers
from wordlen.algebra import GeneratorSet, LengthTrace, length_trace
from wordlen.linalg import FMatrix, PrimeField, random_matrix
from wordlen.words import Alphabet, Word, parse_word

_FULL = Alphabet.letters(26)


def wd(text: str) -> Word:
    """Shorthand: parse single-char text over the full a..z alphabet."""
    return parse_word(text, _FULL)


def random_word(rng: random.Random, max_len: int, alphabet_sizes=(2, 3, 4)) -> Word:
    k = rng.choice(alphabet_sizes)
    l = rng.randint(1, max_len)
    return Word(tuple(rng.randrange(k) for _ in range(l)), Alphabet.letters(k))


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


def fail_every_word(w: Word):
    """A per-word sweep check that reports one counterexample for every word,
    in the mh check's format."""
    yield {"word": w.render(), "n": 1, "f": len(set(w.letters)), "cost": len(w)}


def dump_matrix_set(field: PrimeField, n: int, matrices: list[FMatrix]) -> dict:
    """The matrix JSON schema {"p", "n", "matrices"} that load_matrix_set reads."""
    return {
        "p": field.p,
        "n": n,
        "matrices": [list(m.vectorize()) for m in matrices],
    }


def sample_generating_sets(
    count: int,
    dims: tuple[int, ...] = (2, 3, 4),
    primes: tuple[int, ...] = (5, 7, 11),
    seed: int = 0,
) -> list[tuple[GeneratorSet, LengthTrace]]:
    """Seeded random pairs that generate the full matrix algebra, with their
    traces; candidates that fail to generate everything are resampled."""
    rng = random.Random(seed)
    out: list[tuple[GeneratorSet, LengthTrace]] = []
    while len(out) < count:
        n = rng.choice(dims)
        field = PrimeField(rng.choice(primes))
        S = GeneratorSet(field, n, (random_matrix(field, n, rng), random_matrix(field, n, rng)))
        trace = length_trace(S, max_len=n * n)
        if trace.generated_dim == n * n:
            out.append((S, trace))
    return out
