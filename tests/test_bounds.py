from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from wordlen import bounds
from wordlen.bounds import (
    BestMain,
    BoundInvariantError,
    _pappacena_greater_than,
    best_main_bound,
    main_bound,
    pappacena_approx,
    pappacena_exceeds_main,
    paz_bound,
)


def _main_at_k(d: int, m: int) -> list[tuple[int, Fraction]]:
    """The max-form bound at every k <= ceil(sqrt(d)) + m, over the common
    denominator k + 1; beyond that cap the k(m-1) branch alone exceeds the
    value at k = floor(sqrt(d/m))."""
    r = math.isqrt(d)
    k_cap = r + (r * r < d) + m
    return [(k, Fraction(max(k * (m - 1) * (k + 1), d + k * k - 1), k + 1))
            for k in range(k_cap + 1)]


def _scan_best_main(d: int, m: int) -> BestMain:
    """Oracle for best_main_bound: the first k of strictly smallest value."""
    k_star, value = min(_main_at_k(d, m), key=lambda kv: kv[1])
    return BestMain(k_star, value, math.floor(value))


class TestPazBound:
    def test_examples(self):
        assert paz_bound(2) == 2
        assert paz_bound(3) == 4
        assert paz_bound(10) == 34

    def test_invalid(self):
        with pytest.raises(ValueError, match=r"^matrix size must be >= 1, got 0$"):
            paz_bound(0)


class TestMainBound:
    def test_examples(self):
        assert main_bound(4, 2, 2) == Fraction(7, 3)
        assert main_bound(9, 3, 2) == 4
        assert main_bound(9, 3, 0) == 8

    def test_k0_is_trivial_and_k1_is_halfdim(self):
        for m in range(2, 21):
            for d in range(m, 101):
                assert main_bound(d, m, 0) == d - 1
                assert main_bound(d, m, 1) == max(Fraction(m - 1), Fraction(d, 2))

    def test_k2_reproduces_matrix_ceil_bound(self):
        for n in range(2, 51):
            v = main_bound(n * n, n, 2)
            assert v.numerator // v.denominator == paz_bound(n)

    def test_invalid(self):
        for d, m, k in [(4, 1, 0), (1, 2, 0), (4, 2, -1)]:
            msg = rf"^need m >= 2, d >= m, k >= 0; got d={d}, m={m}, k={k}$"
            with pytest.raises(ValueError, match=msg):
                main_bound(d, m, k)


class TestBestMain:
    def test_examples(self):
        assert best_main_bound(9, 3).value == 4
        assert best_main_bound(9, 3).k_star == 2
        assert best_main_bound(4, 2).integer_value == 2
        assert best_main_bound(16, 4) .value == Fraction(19, 3)

    def test_matches_matrix_bound_or_better(self):
        for n in range(2, 11):
            assert best_main_bound(n * n, n).integer_value <= paz_bound(n)

    def test_monotone_in_dimension(self):
        for m in (2, 3, 5):
            prev = None
            for d in range(m, 200):
                v = best_main_bound(d, m).value
                if prev is not None:
                    assert v >= prev
                prev = v

    def test_minimum_over_evaluated_range(self):
        best = best_main_bound(50, 4)
        assert all(best.value <= v for _, v in _main_at_k(50, 4))

    def test_matches_scan_on_grid(self):
        for m in range(2, 21):
            for d in range(m, 2001):
                assert best_main_bound(d, m) == _scan_best_main(d, m), (d, m)

    def test_matches_scan_on_random(self):
        rng = random.Random(9)
        for _ in range(300):
            m = rng.randint(2, 200)
            d = rng.randint(m, 10**6)
            assert best_main_bound(d, m) == _scan_best_main(d, m), (d, m)

    def test_huge_dimension(self):
        best = best_main_bound(10**14, 4)
        assert (best.k_star, best.integer_value) == (7071067, 21213201)


class TestHalfdim:
    """The half-dimension bound max(m - 1, d/2) is the max-form bound at k = 1."""

    def test_examples(self):
        assert main_bound(4, 2, 1) == 2
        assert main_bound(2, 2, 1) == 1

    def test_invalid(self):
        with pytest.raises(ValueError, match=r"^need m >= 2, d >= m, k >= 0; got d=4, m=1, k=1$"):
            main_bound(4, 1, 1)


class TestPappacena:
    def test_examples(self):
        assert pappacena_exceeds_main(9, 3)
        assert pappacena_exceeds_main(4, 2)

    def test_exact_comparison_is_strict(self):
        # bound ~ 4.7445 at (d, m) = (4, 2); compare against rationals on both sides
        assert _pappacena_greater_than(4, 2, Fraction(47, 10))
        assert not _pappacena_greater_than(4, 2, Fraction(48, 10))
        assert _pappacena_greater_than(4, 2, -5)

    def test_moderate_grid(self):
        for m in range(2, 9):
            for d in range(m, 121):
                assert pappacena_exceeds_main(d, m)

    def test_invalid(self):
        with pytest.raises(ValueError, match=r"^need m >= 2, d >= m; got d=3, m=4$"):
            pappacena_approx(3, 4)


class TestBoundTable:
    """Every bound of one (d, m[, n]) instance, each called directly, as
    `wordlen bounds` calls them; test_cli pins the printed table."""

    def test_with_matrix_size(self):
        assert main_bound(4, 2, 0) == 3  # the trivial bound d - 1
        assert main_bound(4, 2, 1) == 2  # the half-dimension bound
        assert paz_bound(2) == 2
        assert best_main_bound(4, 2).integer_value == 2

    def test_n3(self):
        assert paz_bound(3) == 4
        assert best_main_bound(9, 3).integer_value == 4

    def test_n4(self):
        assert paz_bound(4) == 6
        assert best_main_bound(16, 4).integer_value <= 6

    def test_without_matrix_size(self):
        assert main_bound(10, 3, 0) == 9
        assert best_main_bound(10, 3).value <= 9

    def test_invalid(self):
        with pytest.raises(ValueError, match=r"^need m >= 2, d >= m; got d=1, m=2$"):
            best_main_bound(1, 2)

    def test_inconsistent_best_bound_raises(self, monkeypatch):
        # The check must survive python -O, so it cannot be an assert.
        # The true minimum for (9, 3) is 4 at k = 2; f(1) = 9/2.
        monkeypatch.setattr(bounds, "_search_k", lambda d, m: 1)
        with pytest.raises(BoundInvariantError, match="k=1"):
            best_main_bound(9, 3)

    def test_tied_later_minimizer_raises(self, monkeypatch):
        # f(1) = f(2) = 3 at (6, 2): k = 2 attains the minimum value but is
        # not the smallest minimizer.
        assert main_bound(6, 2, 1) == main_bound(6, 2, 2) == 3
        monkeypatch.setattr(bounds, "_search_k", lambda d, m: 2)
        with pytest.raises(BoundInvariantError, match="k=2"):
            best_main_bound(6, 2)
