"""Exact dense linear algebra over prime fields GF(p).

Everything is plain integer arithmetic mod p with p < 2^31.  The kernels
pack a vector of residues into one Python int of fixed-width slots, so a
whole linear combination is one C-level sum(map(mul, ...)) whose slots are
then reduced mod p; the slot codec (_slot_width, _slot_array, _pack,
_unpack, slot_residues) is shared.  Both product kernels run one
multiply-sum core (_multiply_sums): a single product packs each row of the
right operand (see FMatrix.__matmul__), and a stack of matrices times a
generator packs each column of the stack (see stack_products).  Matrices
keep their entries row-major, the vector format of span bases, product
stacks and matrix files.  A span basis keeps its reduced row-echelon rows
mod p as packed ints, shifts their all-pivot leading columns, which hold
only the pivot's 1 and zeros, out once enough of them have piled up, and
reduces vectors given as packed slots, such as stack_products' unreduced
products, returning the row each independent one adds (see SpanBasis).  The
span walk hands each level's frontier, as those rows, to one
SpanBasis.insert_products call, so the slot format stays in this module,
with the (matrix, generator) pairs whose products it has proved dependent:
those are multiplied with their chunk and never reduced.  A single product
keeps the row-packed kernel, and min_poly its own loop: estimate_m_star's
scans of 30 seeded sparse upper-triangular GF(7) pairs took 29 ms, against
46 ms with stack_products, 48-49 ms with min_poly on a SpanBasis and
67-69 ms with both (CPython 3.11, 2-core AMD EPYC, best of 5).
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence


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

# array typecode per slot width in bytes; 16-byte slots are stored as two
# 64-bit halves, low half first.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q", 16: "Q"}


def _slot_width(bound: int) -> int:
    """The smallest of 1, 2, 4, 8 and 16 bytes that holds every integer in
    [0, bound], so a sum below bound carries into no neighbouring slot."""
    width = 1 << max(0, (bound.bit_length() - 1).bit_length() - 3)
    if width > 16:
        raise ValueError(f"slot bound {bound} needs more than 16 bytes")
    return width


def _slot_array(values: Sequence[int], width: int) -> array:
    """values as native-order slots of width bytes, 16-byte slots as two
    64-bit halves, low half first; each value below 2^64 and the slot."""
    if width == 16:
        slots = array("Q", bytes(16 * len(values)))
        slots[::2] = array("Q", values)
        return slots
    return array(_SLOT_FORMATS[width], values)


def _pack(slots: array) -> int:
    """The one int whose bits [8wj, 8w(j+1)) hold slot j of native-order
    slots of width w."""
    if sys.byteorder == "big":
        slots = slots[:]
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(data: bytes, width: int) -> array:
    """The slots of little-endian data, in native order."""
    slots = array(_SLOT_FORMATS[width], data)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def slot_residues(slots: array, width: int, p: int) -> list[int]:
    """Each slot of native-order slots of width bytes, reduced mod p."""
    # Comprehensions, not map(p.__rmod__, ...): on CPython 3.11 the slot
    # wrapper call costs about twice the % operator (3.6 against 1.7 us for
    # 40 slots on one core of a Xeon host).
    if width == 16:
        high = 2**64 % p
        return [(lo + hi * high) % p for lo, hi in zip(slots[::2], slots[1::2])]
    return [x % p for x in slots]


def _multiply_sums(rows: Iterable[Sequence[int]], packed: Sequence[int], size: int) -> bytes:
    """The multiply-sum core of both product kernels: for each row, the one
    C-level sum(map(mul, row, packed)), little-endian in size bytes."""
    return b"".join([sum(map(mul, row, packed)).to_bytes(size, "little") for row in rows])


@dataclass(frozen=True)
class FMatrix:
    """Dense n x n matrix over a prime field; entries holds its n^2 entries
    row-major, each reduced mod p, the vector format of span bases too."""

    field: PrimeField
    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        # One plain loop checks each entry's type and range.  The type test
        # keeps out floats, which pass the range test (1.5), and bools (an
        # int subclass); it costs a construction about 0.1 us at n = 3 and
        # 1.2 us at n = 12 (5.0 us in all; CPython 3.11, 2-core AMD EPYC),
        # and kernel products skip it (_trusted).  min(entries) and
        # max(entries) are no faster than the loop's int compares.
        n, p = self.n, self.field.p
        if len(self.entries) != n * n:
            raise ValueError(f"entries are not {n}x{n}")
        for x in self.entries:
            if type(x) is not int or not 0 <= x < p:
                raise ValueError(f"entries must be reduced residues, got {x!r}")

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "FMatrix":
        p, n = field.p, len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"entries are not {n}x{n}")
        # Only an int is reduced: any other entry (True % 5 is the int 1)
        # reaches __post_init__ as given, which rejects it.
        return cls(field, n, tuple(x % p if type(x) is int else x for row in rows for x in row))

    @classmethod
    def _trusted(cls, field: PrimeField, n: int, entries: tuple[int, ...]) -> "FMatrix":
        """Entries a kernel has already reduced mod p: skips the range check."""
        mat = object.__new__(cls)
        mat.__dict__.update(field=field, n=n, entries=entries)
        return mat

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FMatrix":
        return cls(field, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "FMatrix":
        return cls(field, n, (0,) * (n * n))

    def _check_compatible(self, other: "FMatrix") -> None:
        if self.field != other.field or self.n != other.n:
            raise ValueError("matrices from different spaces")

    @cached_property
    def _packed_rows(self) -> tuple[int, tuple[int, ...]]:
        """(w, rows): row k as one int with entry j in bits [8wj, 8w(j+1)).

        The slot width w is the smallest of 1, 2, 4, 8 and 16 bytes that
        holds a dot product of two rows of residues, n * (p - 1)^2, so no
        carry crosses a slot.  Cached, since the right operand of a product
        is nearly always a generator.
        """
        n = self.n
        width = _slot_width(n * (self.field.p - 1) ** 2)
        rows = zip(*[iter(self.entries)] * n)
        return width, tuple(_pack(_slot_array(row, width)) for row in rows)

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        """Kronecker-substituted product: row i of self @ other is the one
        C-level sum(map(mul, self[i], packed rows of other)), whose slot j
        holds the exact dot product of self[i] with column j, so the
        reduced slots are the product's entries row-major."""
        self._check_compatible(other)
        n, p = self.n, self.field.p
        width, packed = other._packed_rows
        sums = _multiply_sums(zip(*[iter(self.entries)] * n), packed, n * width)
        entries = slot_residues(_unpack(sums, width), width, p)
        return FMatrix._trusted(self.field, n, tuple(entries))

    def __add__(self, other: "FMatrix") -> "FMatrix":
        self._check_compatible(other)
        p = self.field.p
        entries = tuple((a + b) % p for a, b in zip(self.entries, other.entries))
        return FMatrix(self.field, self.n, entries)

    def scale(self, c: int) -> "FMatrix":
        p = self.field.p
        c %= p
        return FMatrix(self.field, self.n, tuple(c * x % p for x in self.entries))


def stack_products(stack: Sequence[int], gens: Sequence[FMatrix], width: int) -> list[array]:
    """Every matrix of a stack times each generator, as packed slots.

    stack holds c n x n matrices, each as its n^2 reduced entries row-major.
    Item i of the result holds the c products by gens[i] as c n^2
    native-order slots of width bytes, 16-byte slots as two 64-bit halves,
    low half first: product k's exact, unreduced entries, row-major, in
    slots [k n^2, (k + 1) n^2).  The caller slices out each product as it
    needs it: slicing them all up front doubles the memory a chunk holds,
    and made the walk at n = 32 take 3.7-4.3 s instead of 2.9-3.6 s (best
    of 3, twice).

    Stacked, the matrices are one cn x n matrix A, and A @ g is (g^T A^T)^T.
    So column l of A @ g is the one multiply-sum of column l of g with the
    packed columns of A, the core FMatrix.__matmul__ uses, and a strided
    array assignment lays each column out row-major.  A slot holds at most
    n(p - 1)^2, which width must hold.
    """
    n, p = gens[0].n, gens[0].field.p
    if width < _slot_width(n * (p - 1) ** 2):
        raise ValueError(f"{width}-byte slots cannot hold {n} x {n} products mod {p}")
    height = len(stack) // n  # rows of A
    half = 2 if width == 16 else 1  # array items per slot
    column = height * half  # array items per column of A @ g
    packed = [_pack(_slot_array(stack[j::n], width)) for j in range(n)]
    out = []
    for g in gens:
        columns = [g.entries[l::n] for l in range(n)]
        cols = _unpack(_multiply_sums(columns, packed, height * width), width)
        prods = array(cols.typecode, bytes(len(cols) * cols.itemsize))
        for item in range(n * half):  # half t of column l
            l, t = divmod(item, half)
            prods[item::n * half] = cols[l * column + t:(l + 1) * column:half]
        out.append(prods)
    return out


class SpanBasis:
    """Incrementally built reduced row-echelon basis of a vector span.

    ``_pivots[i]`` is the pivot, the lowest nonzero column, of row i, the
    i-th inserted.  Mod p the rows are the reduced row-echelon rows: row i
    is 1 at its own pivot and 0 at every other pivot.  That gives the
    coefficient identity the reduction rests on: a vector v in the span
    equals sum_i v[_pivots[i]] * row_i, so v's residual is the one
    multiply-sum v + sum_i (-v[_pivots[i]] mod p) * row_i, and v is in the
    span iff every residual slot is 0 mod p.

    One core reduces a vector given as packed slots (see insert_slots):
    insert_products feeds it stack_products' products and stacks the rows
    it adds, and insert and contains pack their vector's residues.

    On the pivot prefix [0, base), the leading columns that are all pivots,
    rows and residuals hold only those 1s and 0s, so a row is one packed int
    of the slots [offset, d) (see _pack), where offset <= base is the first
    stored column, and only v's slots [offset, d) are packed.  A pivot at
    base moves base past every column now a pivot (several, after pivots out
    of order).  The dead slots [offset, base) ride along in every later
    multiply-add, while shifting them out costs one whole-row shift per row,
    so an insert shifts every row right by base - offset slots only once
    (base - offset)^2 >= d - base, the live slots: rows carry fewer than
    sqrt(d - base) dead slots, the rule needs no constant, and at a full
    span it always shifts, which leaves every row 0.  The back-substitution
    reads a row's slot at the new pivot through a mask, which costs the
    slots below the pivot, not a copy of the row.

    The slots are left unreduced, which keeps the rows exact: every slot is
    a nonnegative integer congruent mod p to the reduced entry, and no sum
    carries across a slot.  A new row has residues below p.  Each later
    insert adds (p - a) * new_row, below p^2 per slot, to a row that is
    a != 0 at the new pivot, and a row sees fewer than d such inserts, so a
    row slot stays below (p-1) + d(p-1)^2.  A residual adds d coefficients
    below p times such rows to v's slot, which is at most d(p-1)^2 (a
    product of two n x n matrices of residues, d = n^2, has entries at most
    n(p-1)^2), so its slots stay below d(p-1)^2 + d(p-1)((p-1) + d(p-1)^2);
    the slot width is the smallest of 1, 2, 4, 8 and 16 bytes that holds
    that bound, and a larger bound raises ValueError.  Every slot is
    nonnegative, so dropping low slots is an exact shift that leaves the
    bound as it is.  A dead slot is a pivot column, and a new row, packed
    from reduced residues, is exactly 0 at every pivot but its own, so no
    insert adds to a dead slot after its column becomes a pivot: it keeps
    the bound too.

    Single-writer: concurrent reads are fine between inserts.
    """

    def __init__(self, ambient_dim: int, field: PrimeField) -> None:
        self.ambient_dim = ambient_dim
        self.field = field
        q, d = field.p - 1, ambient_dim
        self.width = _slot_width(d * q * q + d * q * (q + d * q * q))
        self._base = 0  # the first non-pivot column
        self._offset = 0  # the first stored column, at most _base
        self._pivots: list[int] = []
        self._rows: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The reduced row-echelon rows, sorted by pivot, prefix rebuilt."""
        width, p, offset = self.width, self.field.p, self._offset
        size = (self.ambient_dim - offset) * width
        return [
            (*(int(c == pivot) for c in range(offset)),
             *slot_residues(_unpack(row.to_bytes(size, "little"), width), width, p))
            for pivot, row in sorted(zip(self._pivots, self._rows))
        ]

    def copy(self) -> "SpanBasis":
        dup = object.__new__(SpanBasis)
        dup.__dict__.update(self.__dict__, _pivots=self._pivots[:], _rows=self._rows[:])
        return dup

    def _slots(self, vec: Sequence[int]) -> array:
        """vec's residues mod p as packed slots."""
        p = self.field.p
        return _slot_array([x % p for x in vec], self.width)

    def _residual(self, slots: array) -> Sequence[int]:
        """The residual on columns [offset, d) of the vector in slots, one
        exact int per slot, congruent to it mod p and not reduced."""
        p, width, offset, pivots = self.field.p, self.width, self._offset, self._pivots
        half = 2 if width == 16 else 1  # array items per slot
        if len(slots) != self.ambient_dim * half:
            raise ValueError(
                f"vector length {len(slots) // half} != ambient {self.ambient_dim}")
        # -v[pivot] mod p for every pivot
        if half == 2:
            coeffs = [-(slots[2 * c] + (slots[2 * c + 1] << 64)) % p for c in pivots]
        else:
            coeffs = [-slots[c] % p for c in pivots]
        # A vector zero at every pivot is its own residual: structured
        # products are sparse, so this skips many multiply-sums.
        res = slots[offset * half:]
        if any(coeffs):
            residual = sum(map(mul, coeffs, self._rows), _pack(res))
            res = _unpack(residual.to_bytes((self.ambient_dim - offset) * width, "little"), width)
        return [lo + (hi << 64) for lo, hi in zip(res[::2], res[1::2])] if half == 2 else res

    def insert_slots(self, slots: array) -> list[int] | None:
        """Add a vector to the span: None if it was dependent, else the row
        this insert adds, its residual scaled to 1 at its pivot, as d
        residues (0 on the pivot prefix).  slots holds the vector's d entries,
        each at most d(p-1)^2 and not necessarily reduced, as native-order
        slots of `width` bytes (16-byte ones as two 64-bit halves, low half
        first): what stack_products returns."""
        p, width, offset, pivots = self.field.p, self.width, self._offset, self._pivots
        res = self._residual(slots)
        # The pivot is the first slot nonzero mod p, not merely nonzero.
        slot = next((j for j, x in enumerate(res) if x % p), None)
        if slot is None:
            return None
        # The new row w is res scaled to 1 at its pivot; every row r that is
        # a != 0 there gains (p - a) * w, one big-int update per row.  The
        # masked read of a costs the slots below the pivot, not a copy of r.
        pivots.append(offset + slot)
        base = self._base
        while base in pivots:
            base += 1
        self._base = base
        inv = pow(res[slot], p - 2, p)
        entries = [x * inv % p for x in res]
        new = _pack(_slot_array(entries, width))
        shift = 8 * width * slot
        mask = ((1 << 8 * width) - 1) << shift
        rows = self._rows
        for i, row in enumerate(rows):
            a = ((row & mask) >> shift) % p
            if a:
                rows[i] = row + (p - a) * new
        rows.append(new)
        dead = base - offset
        if dead * dead >= self.ambient_dim - base:
            drop = 8 * width * dead
            self._rows = [row >> drop for row in rows]
            self._offset = base
        return [0] * offset + entries

    def insert_products(self, stack: Sequence[int], gens: Sequence[FMatrix],
                        skip: Container[tuple[int, int]],
                        ) -> tuple[list[tuple[int, int]], list[int]]:
        """Insert every matrix of a stack times each generator, in (matrix,
        generator) order, up to the insert that fills the span, except the
        (matrix index, generator index) pairs in skip.

        stack holds n x n matrices, each as its d = n^2 reduced entries
        row-major.  Returns the (matrix index, generator index) of each
        independent product, in insert order, and the rows their inserts
        added (insert_slots), stacked the same way (see algebra.length_trace).

        The stack is multiplied ceil((d - dim) / |gens|) matrices at a time
        (stack_products), and each product is reduced from its packed slots,
        so no FMatrix is built per product.  A chunk holds fewer than |gens|
        products more than the span still lacks, so a call that fills the
        span leaves only the rest of its last chunk multiplied and not
        reduced.  A skipped product is multiplied with its chunk and never
        reduced.  The span walk skips only products it has proved dependent,
        whose inserts would leave the basis as it is (see
        algebra.length_trace).
        """
        d, width = self.ambient_dim, self.width
        size = d * (2 if width == 16 else 1)  # array items per product
        found, out = [], []
        start, total = 0, len(stack) // d
        while start < total and self.dim < d:
            count = -(-(d - self.dim) // len(gens))
            chunk = stack_products(stack[start * d:(start + count) * d], gens, width)
            for k in range(min(count, total - start)):
                for i, prods in enumerate(chunk):
                    if (start + k, i) in skip:
                        continue
                    row = self.insert_slots(prods[k * size:(k + 1) * size])
                    if row is not None:
                        found.append((start + k, i))
                        out += row
                        if self.dim == d:
                            return found, out
            start += count
        return found, out

    def insert(self, vec: Sequence[int]) -> bool:
        """Add vec to the span; True iff it was independent."""
        return self.insert_slots(self._slots(vec)) is not None

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(map(self.field.p.__rmod__, self._residual(self._slots(vec))))


@dataclass(frozen=True)
class MinPoly:
    """Monic minimal polynomial; coeffs[i] multiplies t^i."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _poly_at(coeffs: Sequence[int], a: FMatrix) -> FMatrix:
    ident = FMatrix.identity(a.field, a.n)
    acc = FMatrix.zero(a.field, a.n)
    for c in reversed(coeffs):
        acc = acc @ a + ident.scale(c)
    return acc


def min_poly(a: FMatrix) -> MinPoly:
    """Least-degree monic polynomial annihilating a.

    Each power a^k is reduced as one row: its n^2 entries, then its
    combination of the lower powers, which starts as the unit at t^k.  A
    stored row keeps its own length, so one loop updates both parts.  When
    the entries reduce to zero, the rest of the row is mu, monic because no
    earlier row reaches index k.

    This keeps its own elimination loop instead of using SpanBasis: at most
    n + 1 powers face n^2 columns, so a basis's fixed costs per vector
    (packing, the multiply-sum, unpacking every slot, the back-substitution)
    outweigh these short row loops (see the module docstring's timings).
    """
    p = a.field.p
    dim = a.n * a.n
    rows: dict[int, list[int]] = {}
    power = FMatrix.identity(a.field, a.n)
    while True:
        v = [*power.entries, *[0] * len(rows), 1]
        for col, row in rows.items():
            c = v[col]
            if c:
                for j in range(col, len(row)):
                    v[j] = (v[j] - c * row[j]) % p
        pivot = next((j for j in range(dim) if v[j]), None)
        if pivot is None:
            return MinPoly(tuple(v[dim:]))
        inv = pow(v[pivot], p - 2, p)
        rows[pivot] = [x * inv % p for x in v]
        power = power @ a


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
    nonzero.  One synthetic division of mu by (t - r), r = -lambda, gives
    both parts of mu(t) = (t - r) g(t) + mu(r): the quotient g, of degree
    deg(mu) - 1, and the remainder c = mu(r).  x + lambda*I is invertible
    iff c != 0, and then mu(x) = 0 reads (x + lambda*I) g(x) = -c*I, so the
    inverse is the polynomial -g(x)/c in x.
    """
    mu = min_poly(x)
    m = mu.degree
    p = x.field.p
    if p <= m:
        raise ValueError(f"need field size > {m}, the minimal polynomial degree")
    for lam in range(p):
        root = (-lam) % p
        # Horner's partial sums are g's coefficients, top first; the last
        # one is mu(root)
        *g, c = accumulate(reversed(mu.coeffs), lambda acc, coef: (acc * root + coef) % p)
        if c == 0:
            continue
        neg_c_inv = (-pow(c, p - 2, p)) % p
        cert = tuple(coef * neg_c_inv % p for coef in reversed(g))
        inverse = _poly_at(cert, x)
        return ShiftResult(lam, inverse, cert, len(cert) - 1)
    raise NoShiftFound("scan exhausted GF(p); precondition p > deg(mu) violated?")


def random_matrix(field: PrimeField, n: int, rng: random.Random) -> FMatrix:
    """Uniformly random n x n matrix over GF(p)."""
    return FMatrix(field, n, tuple(rng.randrange(field.p) for _ in range(n * n)))


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
        if len(values) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(values)}")
        mats.append(FMatrix(field, n, tuple(x % field.p for x in values)))
    return field, n, mats

