"""Closed-form upper bounds on the length of a generating set or algebra.

All values are exact: rationals are fractions.Fraction, and the one bound
containing a square root is compared to rationals by isolating the radical
and squaring, never through floats.  The half-dimension bound
max(m - 1, d/2) is main_bound at k = 1.  Out-of-domain inputs raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class BoundInvariantError(RuntimeError):
    """Internal error: the max-form search returned a k that is not the
    smallest minimizer."""


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r + (r * r < x)


def paz_bound(n: int) -> int:
    """ceil((n^2 + 2) / 3) for the n x n matrix algebra."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    return -(-(n * n + 2) // 3)


def main_bound(d: int, m: int, k: int) -> Fraction:
    """max(k(m-1), d/(k+1) + k - 1) for dimension d and max min-poly degree m."""
    if m < 2 or d < m or k < 0:
        raise ValueError(f"need m >= 2, d >= m, k >= 0; got d={d}, m={m}, k={k}")
    return max(Fraction(k * (m - 1)), Fraction(d, k + 1) + k - 1)


@dataclass(frozen=True)
class BestMain:
    k_star: int
    value: Fraction
    integer_value: int


def _search_k(d: int, m: int) -> int:
    """Binary search for the first k whose forward difference f(k + 1) - f(k)
    is >= 0, over k in [0, ceil(sqrt(d)) - 1]."""
    lo, hi = 0, _ceil_sqrt(d) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if main_bound(d, m, mid + 1) >= main_bound(d, m, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def best_main_bound(d: int, m: int) -> BestMain:
    """Minimize f(k) = main_bound(d, m, k) over k >= 0 by binary search.

    f is convex in k, the max of a linear and a convex function, so its
    differences f(k + 1) - f(k) never decrease: the first k where the
    difference is >= 0 is the smallest minimizer.  From k = ceil(sqrt(d)) - 1
    on, (k + 1)(k + 2) >= d, so both branches are nondecreasing and the
    search range [0, ceil(sqrt(d)) - 1] holds that k.  Lengths are integers,
    hence the floor is reported alongside the exact value.

    The search result is checked, not assumed: a strict descent into k, none
    out of it and f(k) <= d - 1 (the trivial bound f(0)) make k the smallest
    global minimizer, so any other k raises BoundInvariantError.  The check
    is an explicit raise, so it survives python -O.
    """
    if m < 2 or d < m:
        raise ValueError(f"need m >= 2, d >= m; got d={d}, m={m}")
    k = _search_k(d, m)
    value = main_bound(d, m, k)
    trivial = d - 1
    if ((k > 0 and main_bound(d, m, k - 1) <= value)
            or main_bound(d, m, k + 1) < value or value > trivial):
        raise BoundInvariantError(
            f"best main bound {value} at k={k} is not the smallest minimizer "
            f"of the max-form bound below the trivial bound {trivial} (d={d}, m={m})"
        )
    return BestMain(k, value, value.numerator // value.denominator)


def _pappacena_radicand(d: int, m: int) -> Fraction:
    """2d/(m-1) + 1/4, the radicand of m*sqrt(2d/(m-1) + 1/4) + m/2 - 2."""
    if m < 2 or d < m:
        raise ValueError(f"need m >= 2, d >= m; got d={d}, m={m}")
    return Fraction(2 * d, m - 1) + Fraction(1, 4)


def pappacena_approx(d: int, m: int) -> float:
    """Float value of the square-root bound m*sqrt(2d/(m-1) + 1/4) + m/2 - 2."""
    return m * math.sqrt(float(_pappacena_radicand(d, m))) + m / 2 - 2


def _pappacena_greater_than(d: int, m: int, r: Fraction | int) -> bool:
    """Is the square-root bound strictly greater than the rational r?

    r < m*sqrt(R) + m/2 - 2 iff r - m/2 + 2 < m*sqrt(R); the left side
    is rational, so one sign check plus one squaring decides it with
    integer arithmetic only.  The caller validates d and m.
    """
    lhs = Fraction(r) - Fraction(m, 2) + 2
    return lhs < 0 or lhs * lhs < m * m * _pappacena_radicand(d, m)


def pappacena_exceeds_main(d: int, m: int) -> bool:
    """Is the square-root bound strictly above the max-form bound evaluated
    at k = floor(sqrt(d/m)) = isqrt(d // m)?  Compared exactly."""
    _pappacena_radicand(d, m)  # validates d and m before d // m is taken
    return _pappacena_greater_than(d, m, main_bound(d, m, math.isqrt(d // m)))
