"""Exact dense linear algebra over prime fields GF(p).

Everything is plain integer arithmetic mod p with p < 2^31.  Matrix
products pack each row of the right operand into one Python int (see
FMatrix.__matmul__).  Matrices vectorize row-major; span bases are kept in
reduced row-echelon form with the pivot at the lowest nonzero column, stored
by column (see SpanBasis).
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add, lshift, mul
from pathlib import Path
from typing import Iterator, Mapping, Sequence


class DivisionByZero(ZeroDivisionError):
    """Inverse of zero requested in GF(p)."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions or fields."""


class NoShiftFound(RuntimeError):
    """The shift scan exhausted the field; impossible when p > deg(mu)."""


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime 2 <= p < 2^31, primality checked by trial division."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if not 2 <= p < 2**31:
            raise ValueError(f"modulus {p} outside [2, 2^31)")
        if p % 2 == 0 and p != 2:
            raise ValueError(f"{p} is not prime")
        d = 3
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
            d += 2

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise DivisionByZero("inverse of 0 in GF(p)")
        return pow(x, self.p - 2, self.p)


# array typecode per product slot width in bytes; 16-byte slots are read as
# two 64-bit halves.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q", 16: "Q"}


@dataclass(frozen=True)
class FMatrix:
    """Dense n x n matrix over a prime field; entries always reduced mod p."""

    field: PrimeField
    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Plain loops on purpose: on CPython 3.11 the specialized int
        # compares beat min(map(min, ...)) and max(map(max, ...)), which go
        # through the generic rich compare (6.8 against 10.9 us at n = 12).
        n, p = self.n, self.field.p
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise DimensionMismatch(f"entries are not {n}x{n}")
        for row in self.entries:
            for x in row:
                if not 0 <= x < p:
                    raise ValueError("entries must be reduced residues")

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "FMatrix":
        p = field.p
        return cls(field, len(rows), tuple(tuple(x % p for x in row) for row in rows))

    @classmethod
    def from_flat(cls, field: PrimeField, n: int, values: Sequence[int]) -> "FMatrix":
        if len(values) != n * n:
            raise DimensionMismatch(f"expected {n * n} entries, got {len(values)}")
        p = field.p
        rows = tuple(
            tuple(values[i * n + j] % p for j in range(n)) for i in range(n)
        )
        return cls(field, n, rows)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FMatrix":
        return cls(field, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "FMatrix":
        return cls(field, n, tuple((0,) * n for _ in range(n)))

    def _check_compatible(self, other: "FMatrix") -> None:
        if self.field != other.field or self.n != other.n:
            raise DimensionMismatch("matrices from different spaces")

    @cached_property
    def _packed_rows(self) -> tuple[int, tuple[int, ...]]:
        """(w, rows): row k as one int with entry j in bits [8wj, 8w(j+1)).

        The slot width w is the smallest of 1, 2, 4, 8 and 16 bytes that
        holds a dot product of two rows of residues, n * (p - 1)^2, so no
        carry crosses a slot.  Cached, since the right operand of a product
        is nearly always a generator.
        """
        bits = (self.n * (self.field.p - 1) ** 2).bit_length()
        width = 1 << max(0, (bits - 1).bit_length() - 3)
        shifts = range(0, 8 * width * self.n, 8 * width)
        return width, tuple(sum(map(lshift, row, shifts)) for row in self.entries)

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        """Kronecker-substituted product: row i of self @ other is the one
        C-level sum(map(mul, self[i], packed rows of other)), whose slot j
        holds the exact dot product of self[i] with column j."""
        self._check_compatible(other)
        n, p = self.n, self.field.p
        width, packed = other._packed_rows
        slots = array(
            _SLOT_FORMATS[width],
            b"".join([sum(map(mul, row, packed)).to_bytes(n * width, "little")
                      for row in self.entries]),
        )
        if sys.byteorder == "big":
            slots.byteswap()
        values = slots
        if width == 16:
            # Two 64-bit halves per slot, low half first.
            values = map(add, slots[::2], map(mul, slots[1::2], repeat(2**64 % p)))
        reduced = map(p.__rmod__, values)
        return FMatrix(self.field, n, tuple(zip(*[reduced] * n)))

    def __add__(self, other: "FMatrix") -> "FMatrix":
        self._check_compatible(other)
        p = self.field.p
        rows = tuple(
            tuple((a + b) % p for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)
        )
        return FMatrix(self.field, self.n, rows)

    def scale(self, c: int) -> "FMatrix":
        p = self.field.p
        c %= p
        return FMatrix(
            self.field, self.n, tuple(tuple(c * x % p for x in row) for row in self.entries)
        )

    def vectorize(self) -> tuple[int, ...]:
        """Row-major flattening, the coordinate convention for span bases."""
        return tuple(chain.from_iterable(self.entries))


class SpanBasis:
    """Incrementally built reduced row-echelon basis of a vector span.

    The basis is stored by column.  ``_pivots[i]`` is the pivot of the i-th
    row inserted; ``_free`` lists the non-pivot columns in increasing order
    and ``_cols[k]`` holds every row's entry at column ``_free[k]``, in
    insertion order.  Pivot columns are not stored: in reduced echelon form
    row i has a 1 at its own pivot and 0 at every other pivot.

    That also gives the coefficient identity the reduction rests on: a
    vector v in the span equals sum_i v[_pivots[i]] * row_i, so v's residual
    at a free column j is v[j] minus one dot product of those coefficients
    with column j, and v is in the span iff every residual is 0.

    Single-writer: concurrent reads are fine between inserts.
    """

    def __init__(self, ambient_dim: int, field: PrimeField) -> None:
        self.ambient_dim = ambient_dim
        self.field = field
        self._pivots: list[int] = []
        self._free: list[int] = list(range(ambient_dim))
        self._cols: list[list[int]] = [[] for _ in range(ambient_dim)]

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        out = []
        for i in sorted(range(self.dim), key=self._pivots.__getitem__):
            row = [0] * self.ambient_dim
            row[self._pivots[i]] = 1
            for j, col in zip(self._free, self._cols):
                row[j] = col[i]
            out.append(tuple(row))
        return out

    def copy(self) -> "SpanBasis":
        dup = SpanBasis(self.ambient_dim, self.field)
        dup._pivots = self._pivots[:]
        dup._free = self._free[:]
        dup._cols = [col[:] for col in self._cols]
        return dup

    def _residuals(self, vec: Sequence[int]) -> Iterator[int]:
        """vec's residual at each free column, in column order."""
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(vec)} != ambient {self.ambient_dim}"
            )
        p = self.field.p
        coeffs = [vec[j] for j in self._pivots]
        if not any(coeffs):
            # Zero at every pivot: vec is its own residual.  Structured
            # products are sparse, so this skips many all-zero dot products.
            return (vec[j] % p for j in self._free)
        return (
            (vec[j] - sum(map(mul, coeffs, col))) % p
            for j, col in zip(self._free, self._cols)
        )

    def insert(self, vec: Sequence[int]) -> bool:
        """Add vec to the span; True iff it was independent."""
        res = list(self._residuals(vec))
        k = next((k for k, x in enumerate(res) if x), None)
        if k is None:
            return False
        p = self.field.p
        # The new row w is res scaled to 1 at its pivot; every other row r
        # loses r[pivot] * w, which touches only the remaining free columns.
        inv = pow(res.pop(k), p - 2, p)
        pivot = self._free.pop(k)
        at_pivot = self._cols.pop(k)
        back_sub = any(at_pivot)
        for col, x in zip(self._cols, res):
            w = x * inv % p
            if w and back_sub:
                col[:] = [(a - w * c) % p for a, c in zip(col, at_pivot)]
            col.append(w)
        self._pivots.append(pivot)
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._residuals(vec))


@dataclass(frozen=True)
class MinPoly:
    """Monic minimal polynomial; coeffs[i] multiplies t^i."""

    coeffs: tuple[int, ...]
    field: PrimeField

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate_scalar(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def evaluate(self, a: FMatrix) -> FMatrix:
        return _poly_at(self.coeffs, a)


def _poly_at(coeffs: Sequence[int], a: FMatrix) -> FMatrix:
    ident = FMatrix.identity(a.field, a.n)
    acc = FMatrix.zero(a.field, a.n)
    for c in reversed(coeffs):
        acc = acc @ a + ident.scale(c)
    return acc


def min_poly(a: FMatrix) -> MinPoly:
    """Least-degree monic polynomial annihilating a.

    Powers of a are inserted into a span with their combination over earlier
    powers tracked; the first dependence is the minimal polynomial.

    This keeps its own elimination loop instead of using SpanBasis.  Folding
    it into the column basis, with the tracked combination as extra
    coordinates, was about 2x slower: 0.18 s against 0.09 s for 300 random
    matrices with n = 5 to 8 (CPython 3.11, one core of a Xeon host).  At
    most n rows face n^2 columns here, so the column layout's fixed cost per
    free column outweighs the short row loops below.
    """
    p = a.field.p
    dim = a.n * a.n
    rows: dict[int, tuple[list[int], list[int]]] = {}
    power = FMatrix.identity(a.field, a.n)
    k = 0
    while True:
        v = list(power.vectorize())
        combo = [0] * (k + 1)
        combo[k] = 1
        for col, (row, row_combo) in rows.items():
            c = v[col]
            if c:
                for j in range(col, dim):
                    v[j] = (v[j] - c * row[j]) % p
                for j in range(len(row_combo)):
                    combo[j] = (combo[j] - c * row_combo[j]) % p
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return MinPoly(tuple(combo), a.field)
        inv = pow(v[pivot], p - 2, p)
        rows[pivot] = ([x * inv % p for x in v], [x * inv % p for x in combo])
        power = power @ a
        k += 1


@dataclass(frozen=True)
class ShiftResult:
    """Shift lambda, the inverse of (x + lambda*I), and the certificate
    polynomial in x that evaluates to that inverse."""

    lam: int
    inverse: FMatrix
    cert_coeffs: tuple[int, ...]
    cert_degree: int


def shift_to_invertible(x: FMatrix) -> ShiftResult:
    """First lambda = 0, 1, 2, ... making x + lambda*I invertible.

    Requires p > deg(mu_x), which guarantees some lambda with mu(-lambda)
    nonzero.  The inverse comes from dividing mu(t) - mu(-lambda) by
    (t + lambda), so it is a polynomial in x of degree deg(mu) - 1.
    """
    mu = min_poly(x)
    m = mu.degree
    p = x.field.p
    if p <= m:
        raise ValueError(f"need field size > {m}, the minimal polynomial degree")
    for lam in range(p):
        c = mu.evaluate_scalar((-lam) % p)
        if c == 0:
            continue
        h = list(mu.coeffs)
        h[0] = (h[0] - c) % p
        root = (-lam) % p
        g = [0] * m
        g[m - 1] = h[m]
        for j in range(m - 1, 0, -1):
            g[j - 1] = (h[j] + root * g[j]) % p
        neg_c_inv = (-pow(c, p - 2, p)) % p
        cert = tuple(coef * neg_c_inv % p for coef in g)
        inverse = _poly_at(cert, x)
        return ShiftResult(lam, inverse, cert, len(cert) - 1)
    raise NoShiftFound("scan exhausted GF(p); precondition p > deg(mu) violated?")


def random_matrix(field: PrimeField, n: int, rng: random.Random) -> FMatrix:
    """Uniformly random n x n matrix over GF(p)."""
    return FMatrix(
        field, n, tuple(tuple(rng.randrange(field.p) for _ in range(n)) for _ in range(n))
    )


def _require_int(value: object, what: str) -> int:
    # bool is an int subclass, and JSON true/false must not pass as 1/0.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def load_matrix_set(source: str | Path | Mapping) -> tuple[PrimeField, int, list[FMatrix]]:
    """Read the matrix JSON format {"p": prime, "n": dim, "matrices": [[...]]}.

    Each matrix is one flat row-major integer list; entries are reduced
    mod p on load.  Anything else raises ValueError naming the field.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, Mapping) or not {"p", "n", "matrices"} <= data.keys():
        raise ValueError('matrix set must be an object with "p", "n" and "matrices"')
    field = PrimeField(_require_int(data["p"], '"p"'))
    n = _require_int(data["n"], '"n"')
    if n < 1:
        raise ValueError(f'"n" must be >= 1, got {n}')
    if not isinstance(data["matrices"], list):
        raise ValueError('"matrices" must be a list of flat integer lists')
    mats = []
    for i, flat in enumerate(data["matrices"]):
        if not isinstance(flat, list):
            raise ValueError(f'"matrices"[{i}] must be a flat integer list')
        values = [_require_int(x, f'"matrices"[{i}] entry') for x in flat]
        mats.append(FMatrix.from_flat(field, n, values))
    return field, n, mats


def dump_matrix_set(field: PrimeField, n: int, matrices: Sequence[FMatrix]) -> dict:
    """Inverse of load_matrix_set, producing the documented JSON schema."""
    return {
        "p": field.p,
        "n": n,
        "matrices": [list(m.vectorize()) for m in matrices],
    }
