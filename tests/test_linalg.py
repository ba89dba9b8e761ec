from __future__ import annotations

import random
from array import array
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dump_matrix_set
from wordlen.linalg import (
    FMatrix,
    PrimeField,
    SpanBasis,
    _poly_at,
    _slot_width,
    load_matrix_set,
    min_poly,
    shift_to_invertible,
    slot_residues,
    stack_products,
)
from wordlen.oracles import _GaussRows, _schoolbook_product

F5 = PrimeField(5)
F7 = PrimeField(7)


def E(field, n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return FMatrix.from_rows(field, rows)


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 104729):
            PrimeField(p)

    def test_rejects_composites_and_range(self):
        for p in (1, 4, 9, 15, 2**31):
            with pytest.raises(ValueError):
                PrimeField(p)


class TestFMatrix:
    def test_from_rows_reduces(self):
        m = FMatrix.from_rows(F5, [[7, -1], [5, 3]])
        assert m.entries == ((2, 4), (0, 3))

    def test_matmul(self):
        assert E(F5, 2, 0, 1) @ E(F5, 2, 1, 0) == E(F5, 2, 0, 0)

    def test_add_scale(self):
        ident = FMatrix.identity(F5, 2)
        m = ident.scale(3) + ident.scale(4)
        assert m == ident.scale(2)

    def test_incompatible(self):
        with pytest.raises(ValueError, match=r"^matrices from different spaces$"):
            FMatrix.identity(F5, 2) @ FMatrix.identity(F5, 3)
        with pytest.raises(ValueError, match=r"^matrices from different spaces$"):
            FMatrix.identity(F5, 2) @ FMatrix.identity(F7, 2)

    def test_vectorize_row_major(self):
        m = FMatrix.from_rows(F5, [[1, 2], [3, 4]])
        assert m.vectorize() == (1, 2, 3, 4)

    def test_product_is_an_ordinary_matrix(self):
        a = FMatrix.from_rows(F7, [[1, 2, 3], [4, 5, 6], [0, 6, 2]])
        c = a @ a
        same = FMatrix(F7, 3, c.entries)
        assert type(c) is FMatrix and c == same and hash(c) == hash(same)
        assert c.entries == schoolbook(a.entries, a.entries, 7)
        assert (c @ a).entries == schoolbook(c.entries, a.entries, 7)

    @pytest.mark.parametrize(
        "entries",
        [((0, 1), (2,)), ((0,), (1, 2)), ((0, 1, 2), (3, 4)), ((0, 1),)],
    )
    def test_ragged_rows_rejected(self, entries):
        with pytest.raises(ValueError, match=r"^entries are not 2x2$"):
            FMatrix(F5, 2, entries)

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("where", [(2, 0), (2, 2), (0, 2), (1, 2)])
    def test_unreduced_entry_rejected(self, bad, where):
        rows = [[0, 1, 2], [3, 4, 0], [1, 2, 3]]
        rows[where[0]][where[1]] = bad
        with pytest.raises(ValueError, match="reduced residues"):
            FMatrix(F5, 3, tuple(map(tuple, rows)))


def schoolbook(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


@st.composite
def square_matrix(draw, field, n):
    """A random matrix, or one of the extremes: zero, identity, all p - 1."""
    p = field.p
    kind = draw(st.sampled_from(("random", "zero", "identity", "full")))
    if kind == "zero":
        return FMatrix.zero(field, n)
    if kind == "identity":
        return FMatrix.identity(field, n)
    if kind == "full":
        return FMatrix.from_rows(field, [[p - 1] * n] * n)
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return FMatrix.from_rows(field, draw(st.lists(row, min_size=n, max_size=n)))


class TestProductAgainstSchoolbook:
    """The packed-row kernel against the triple loop, over every slot width."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((2, 3, 13, 10007, 2147483647)), st.integers(1, 12), st.data())
    def test_matches_schoolbook(self, p, n, data):
        field = PrimeField(p)
        a = data.draw(square_matrix(field, n))
        b = data.draw(square_matrix(field, n))
        assert (a @ b).entries == schoolbook(a.entries, b.entries, p)
        assert (b @ a).entries == schoolbook(b.entries, a.entries, p)

    @pytest.mark.parametrize("n,width", [(4, 8), (5, 16)])
    def test_slot_width_boundary(self, n, width):
        # n * (p - 1)^2 fits in 64 bits up to n = 4 at p = 2^31 - 1.
        p = 2147483647
        field = PrimeField(p)
        full = FMatrix.from_rows(field, [[p - 1] * n] * n)
        assert full._packed_rows[0] == width
        rng = random.Random(n)
        mats = [full, FMatrix.identity(field, n), FMatrix.zero(field, n)]
        mats += [
            FMatrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            for _ in range(5)
        ]
        for a in mats:
            for b in mats:
                assert (a @ b).entries == schoolbook(a.entries, b.entries, p)


def _slot_values(slots, width):
    """The exact integer in each slot; 16-byte slots are two 64-bit halves."""
    if width == 16:
        return [lo + (hi << 64) for lo, hi in zip(slots[::2], slots[1::2])]
    return list(slots)


def _native_slots(values, width):
    """Native-order slots of width bytes holding values, any below 2^(8 width)."""
    if width == 16:
        return array("Q", [half for v in values for half in (v & (2**64 - 1), v >> 64)])
    return array({1: "B", 2: "H", 4: "I", 8: "Q"}[width], values)


class TestStackProducts:
    """The stack kernel against the triple loop, over every slot width."""

    @staticmethod
    def _check(stack, gens, width):
        p, n = gens[0].field.p, gens[0].n
        flat = [x for a in stack for x in a.vectorize()]
        out = stack_products(flat, gens, width)
        assert len(out) == len(gens)
        for prods, g in zip(out, gens):
            # The slots hold the exact products: a modulus above every dot
            # product makes the triple loop exact too.
            exact = [_schoolbook_product(a.entries, g.entries, n * (p - 1) ** 2 + 1) for a in stack]
            assert _slot_values(prods, width) == [x for mat in exact for row in mat for x in row]
            reduced = [_schoolbook_product(a.entries, g.entries, p) for a in stack]
            assert slot_residues(prods, width, p) == [x for mat in reduced for row in mat for x in row]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 3, 13, 10007, 2147483647)), st.integers(1, 12),
           st.sampled_from((1, 2, 5)), st.integers(1, 3), st.data())
    def test_matches_schoolbook(self, p, n, count, letters, data):
        # The narrowest slots that hold n(p - 1)^2 (1 to 16 bytes over these
        # primes) and the span basis's slots, which the walk uses.
        field = PrimeField(p)
        stack = [data.draw(square_matrix(field, n)) for _ in range(count)]
        gens = [data.draw(square_matrix(field, n)) for _ in range(letters)]
        for width in {_slot_width(n * (p - 1) ** 2), SpanBasis(n * n, field).width}:
            self._check(stack, gens, width)

    @pytest.mark.parametrize("p,n,width", [(2, 12, 1), (13, 2, 2), (10007, 12, 4),
                                           (2147483647, 4, 8), (2147483647, 5, 16)])
    def test_slot_width_boundary(self, p, n, width):
        # Stacks of all-(p - 1) matrices reach n(p - 1)^2, the top of the
        # narrowest width, in every slot.
        field = PrimeField(p)
        assert _slot_width(n * (p - 1) ** 2) == width
        full = FMatrix.from_rows(field, [[p - 1] * n] * n)
        rng = random.Random(p + n)
        dense = FMatrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        for count in (1, 2, 5):
            self._check([full, dense, FMatrix.identity(field, n), FMatrix.zero(field, n), full][:count],
                        [full, dense], width)

    def test_too_narrow_slots_rejected(self):
        field = PrimeField(13)
        ident = FMatrix.identity(field, 2)
        with pytest.raises(ValueError, match=r"^1-byte slots cannot hold 2 x 2 products mod 13$"):
            stack_products(list(ident.vectorize()), [ident], 1)


class TestSpanBasis:
    def test_grows_on_independent(self):
        basis = SpanBasis(4, F5)
        assert basis.insert(FMatrix.identity(F5, 2).vectorize())
        assert basis.dim == 1

    def test_scalar_multiple_dependent(self):
        basis = SpanBasis(4, F5)
        ident = FMatrix.identity(F5, 2)
        basis.insert(ident.vectorize())
        assert not basis.insert(ident.scale(2).vectorize())

    def test_matrix_units_independent(self):
        basis = SpanBasis(4, F5)
        basis.insert(FMatrix.identity(F5, 2).vectorize())
        basis.insert(E(F5, 2, 0, 1).vectorize())
        assert basis.insert(E(F5, 2, 1, 0).vectorize())
        assert basis.dim == 3

    def test_idempotent(self):
        basis = SpanBasis(4, F5)
        m = E(F5, 2, 0, 1)
        assert basis.insert(m.vectorize())
        assert not basis.insert(m.vectorize())
        assert basis.dim == 1

    def test_all_units_reach_full_dimension(self):
        for k in (2, 3):
            basis = SpanBasis(k * k, F5)
            for i in range(k):
                for j in range(k):
                    basis.insert(E(F5, k, i, j).vectorize())
            assert basis.dim == k * k

    def test_rows_are_reduced_echelon(self):
        rng = random.Random(3)
        basis = SpanBasis(9, F7)
        for _ in range(20):
            basis.insert([rng.randrange(7) for _ in range(9)])
        rows = basis.rows
        pivots = []
        for row in rows:
            piv = next(i for i, x in enumerate(row) if x)
            assert row[piv] == 1
            pivots.append(piv)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for row in rows:
            for other_piv in pivots:
                piv = next(i for i, x in enumerate(row) if x)
                if other_piv != piv:
                    assert row[other_piv] == 0

    def test_dimension_mismatch(self):
        basis = SpanBasis(4, F5)
        with pytest.raises(ValueError, match=r"^vector length 3 != ambient 4$"):
            basis.insert([1, 2, 3])
        with pytest.raises(ValueError, match=r"^vector length 9 != ambient 4$"):
            basis.insert(FMatrix.identity(F5, 3).vectorize())


@st.composite
def span_inputs(draw):
    """A modulus, an ambient dimension and vectors to insert: dense ones,
    with unreduced entries, and sparse ones, mostly zeros, like the products
    of structured generator sets."""
    p = draw(st.sampled_from((2, 3, 10007, 2147483647)))
    d = draw(st.integers(1, 40))
    dense = st.lists(st.integers(-p, 2 * p), min_size=d, max_size=d)
    sparse = st.dictionaries(
        st.integers(0, d - 1), st.integers(1, p - 1), max_size=3
    ).map(lambda entries: [entries.get(j, 0) for j in range(d)])
    vecs = draw(st.lists(st.one_of(dense, sparse), min_size=1, max_size=50))
    return p, d, vecs


def _rank(p, vecs):
    oracle = _GaussRows(p)
    for v in vecs:
        oracle.insert(v)
    return len(oracle.rows)


class TestSpanBasisAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(span_inputs(), st.data())
    def test_matches_gauss_rows(self, inputs, data):
        p, d, vecs = inputs
        basis = SpanBasis(d, PrimeField(p))
        oracle = _GaussRows(p)
        snap_at = data.draw(st.integers(0, len(vecs)))
        snapshot = snapshot_rows = None
        for i, v in enumerate(vecs):
            if i == snap_at:
                snapshot, snapshot_rows = basis.copy(), basis.rows
            in_span = basis.contains(v)
            grew = oracle.insert(v)
            assert in_span == (not grew)
            assert basis.insert(v) == grew
            assert basis.dim == len(oracle.rows)
        if snapshot is not None:
            assert snapshot.rows == snapshot_rows
            assert snapshot.dim == len(snapshot_rows)

        rows = basis.rows
        pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        assert pivots == sorted(set(pivots))
        for row, piv in zip(rows, pivots):
            assert all(0 <= x < p for x in row)
            assert [row[q] for q in pivots] == [int(q == piv) for q in pivots]
        assert _rank(p, rows) == _rank(p, [*rows, *vecs]) == basis.dim

        with pytest.raises(ValueError, match=rf"^vector length {d + 1} != ambient {d}$"):
            basis.contains([0] * (d + 1))


def _rref(p, vecs):
    """The reduced row-echelon rows of span(vecs), from the oracle's forward
    rows plus a separate back-substitution."""
    oracle = _GaussRows(p)
    for v in vecs:
        oracle.insert(v)
    rows = []
    for piv, row in oracle.rows:
        inv = pow(row[piv], -1, p)
        new = [x * inv % p for x in row]
        rows = [[(a - r[piv] * b) % p for a, b in zip(r, new)] for r in rows]
        rows.append(new)
    return [tuple(r) for r in rows]


class TestSpanBasisAtScale:
    """`alg_span` sizes: d = 144 at both wide slot widths, and copies."""

    @pytest.mark.parametrize("p,width", [(10007, 8), (2147483647, 16)])
    def test_dense_and_sparse_at_d_144(self, p, width):
        d = 144
        rng = random.Random(p)
        # Dense vectors drawn from a hidden 90-dimensional subspace, so many
        # are dependent only through long combinations, and sparse ones.
        hidden = [[rng.randrange(p) for _ in range(d)] for _ in range(90)]
        vecs = []
        for _ in range(200):
            if rng.random() < 0.75:
                coeffs = [rng.randrange(p) for _ in hidden]
                vecs.append([sum(map(mul, coeffs, col)) % p for col in zip(*hidden)])
            else:
                v = [0] * d
                for _ in range(rng.randint(1, 3)):
                    v[rng.randrange(d)] = rng.randrange(1, p)
                vecs.append(v)
        basis = SpanBasis(d, PrimeField(p))
        assert basis.width == width
        oracle = _GaussRows(p)
        for v in vecs:
            in_span = basis.contains(v)
            grew = oracle.insert(v)
            assert in_span == (not grew)
            assert basis.insert(v) == grew
            assert basis.contains(v)
            assert basis.dim == len(oracle.rows)
        assert 90 < basis.dim < d
        rows = basis.rows
        assert rows == _rref(p, vecs)
        for _ in range(20):
            coeffs = [rng.randrange(p) for _ in vecs]
            combo = [sum(map(mul, coeffs, col)) % p for col in zip(*vecs)]
            assert basis.contains(combo)
            assert not basis.insert(combo)
        # A unit vector at a non-pivot column is zero at every pivot.
        free = min(set(range(d)) - {row.index(1) for row in rows})
        assert not basis.contains([int(j == free) for j in range(d)])
        assert basis.rows == rows
        # Fill up to full dimension: every row then has the widest sums.
        for j in range(d):
            unit = [int(i == j) for i in range(d)]
            assert basis.insert(unit) == oracle.insert(unit)
        assert basis.dim == d
        assert basis.rows == [tuple(int(i == j) for i in range(d)) for j in range(d)]
        assert all(basis.contains(v) for v in hidden)

    @pytest.mark.parametrize("p", [13, 10007, 2147483647])
    def test_copy_and_original_diverge(self, p):
        d = 30
        rng = random.Random(d + p)
        field = PrimeField(p)

        def dense(n):
            return [[rng.randrange(p) for _ in range(d)] for _ in range(n)]

        shared, left, right = dense(12), dense(8), dense(5)
        basis = SpanBasis(d, field)
        assert all(basis.insert(v) for v in shared)
        dup = basis.copy()
        before = basis.rows
        assert all(basis.insert(v) for v in left)
        assert dup.rows == before and dup.dim == 12
        assert all(dup.insert(v) for v in right)
        assert basis.rows == _rref(p, shared + left) and basis.dim == 20
        assert dup.rows == _rref(p, shared + right) and dup.dim == 17
        assert all(basis.contains(v) for v in shared + left)
        assert all(dup.contains(v) for v in shared + right)
        assert not any(dup.contains(v) for v in left)

    def test_slot_bound_beyond_16_bytes_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            SpanBasis(200_000, PrimeField(2147483647))


class TestInsertSlots:
    """insert_slots takes unreduced slots up to d(p - 1)^2, the products the
    walk feeds it, and agrees with insert on their residues."""

    @pytest.mark.parametrize("p,d", [(2, 9), (3, 9), (13, 4), (13, 9), (10007, 36),
                                     (10007, 144), (2147483647, 16), (2147483647, 64)])
    def test_unreduced_slots_match_residues(self, p, d):
        rng = random.Random(p + d)
        field = PrimeField(p)
        top = d * (p - 1) ** 2
        hidden = [[rng.randrange(p) for _ in range(d)] for _ in range(d // 2)]
        vecs = []
        for _ in range(2 * d):
            kind = rng.random()
            if kind < 0.4:  # in a hidden subspace: dependent through combinations
                coeffs = [rng.randrange(p) for _ in hidden]
                vecs.append([sum(map(mul, coeffs, col)) % p for col in zip(*hidden)])
            elif kind < 0.7:
                vecs.append([rng.randrange(p) for _ in range(d)])
            else:
                vecs.append([rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(d)])
        lifted, plain = SpanBasis(d, field), SpanBasis(d, field)
        assert lifted.width == _slot_width(d * (p - 1) ** 2 + d * (p - 1) * ((p - 1) + top))
        for v in vecs:
            # Each slot is its residue plus a multiple of p, often the largest
            # one that stays within d(p - 1)^2.
            slots = [x + p * (rng.choice(((top - x) // p, rng.randrange((top - x) // p + 1))))
                     for x in v]
            assert max(slots) <= top
            packed = _native_slots(slots, lifted.width)
            assert lifted.contains(v) == plain.contains(v)
            assert lifted.insert_slots(packed) == plain.insert(v)
            assert lifted.dim == plain.dim and lifted._base == plain._base
        assert lifted.rows == plain.rows == _rref(p, vecs)

    def test_length_mismatch(self):
        basis = SpanBasis(4, F5)
        with pytest.raises(ValueError, match=r"^vector length 3 != ambient 4$"):
            basis.insert_slots(_native_slots([1, 2, 3], basis.width))


class _CountingBasis(SpanBasis):
    """A span basis that counts the vectors it reduces."""

    reduced = 0

    def insert_slots(self, slots):
        self.reduced += 1
        return super().insert_slots(slots)


class TestInsertProducts:
    """insert_products against one insert per schoolbook product, in (matrix,
    generator) order up to the fill, and against the oracle's elimination."""

    @staticmethod
    def _check(basis, stack, gens, vecs=()):
        """Insert vecs, then the products of stack by gens, into basis, a
        plain basis and the oracle; return what insert_products returned."""
        p, d = basis.field.p, basis.ambient_dim
        plain, oracle = SpanBasis(d, basis.field), _GaussRows(p)
        for v in vecs:
            assert basis.insert(v) == plain.insert(v) == oracle.insert(v)
        basis.reduced = 0
        found, out = basis.insert_products([x for a in stack for x in a.vectorize()], gens)
        want, want_out, reduced = [], [], 0
        for k, a in enumerate(stack):
            for i, g in enumerate(gens):
                if plain.dim == d:
                    break
                prod = [x for row in _schoolbook_product(a.entries, g.entries, p) for x in row]
                reduced += 1
                independent = plain.insert(prod)
                assert oracle.insert(prod) == independent
                if independent:
                    want.append((k, i))
                    want_out += prod
        assert (found, out) == (want, want_out)
        assert basis.reduced == reduced  # none after the fill
        assert basis.rows == plain.rows and basis.dim == len(oracle.rows)
        return found, out

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 13, 10007, 2147483647)), st.integers(1, 4),
           st.sampled_from((1, 2, 5)), st.integers(1, 3), st.data())
    def test_matches_one_insert_per_product(self, p, n, count, letters, data):
        field = PrimeField(p)
        stack = [data.draw(square_matrix(field, n)) for _ in range(count)]
        gens = [data.draw(square_matrix(field, n)) for _ in range(letters)]
        vec = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
        vecs = data.draw(st.lists(vec, max_size=n * n))
        self._check(_CountingBasis(n * n, field), stack, gens, vecs)

    @pytest.mark.parametrize("p", [2, 13, 10007, 2147483647])
    def test_fill_inside_a_chunk(self, p):
        # Span I, E12, E21 lacks one dimension, so the stack goes one matrix
        # at a time: E12 E21 = E11 fills it, and E12 E12, E12 E11 and the
        # second matrix's products are never reduced.
        field = PrimeField(p)
        e12, e21, e11 = (E(field, 2, i, j) for i, j in ((0, 1), (1, 0), (0, 0)))
        basis = _CountingBasis(4, field)
        vecs = [m.vectorize() for m in (FMatrix.identity(field, 2), e12, e21)]
        found, out = self._check(basis, [e12, e21], [e21, e12, e11], vecs)
        assert found == [(0, 0)] and out == [1, 0, 0, 0] and basis.reduced == 1

    @pytest.mark.parametrize("p", [2, 13, 10007, 2147483647])
    def test_level_that_adds_nothing(self, p):
        # Diagonal matrices times diagonal matrices stay in the diagonal span.
        field = PrimeField(p)
        diag = [FMatrix.from_rows(field, [[int(i == j) * (i + c) for j in range(3)]
                                          for i in range(3)]) for c in (1, 2, 3)]
        basis = _CountingBasis(9, field)
        vecs = [E(field, 3, i, i).vectorize() for i in range(3)]
        assert self._check(basis, diag, diag[:2], vecs) == ([], [])
        assert basis.reduced == 6 and basis.dim == 3


def _stored_slots(basis):
    """The most slots any stored row spans."""
    return max((-(-row.bit_length() // (8 * basis.width)) for row in basis._rows), default=0)


class TestPivotPrefix:
    """Rows are stored only from `_offset` on, at most `_base`, the first
    non-pivot column."""

    @pytest.mark.parametrize("p", [10007, 2147483647])
    def test_dense_inserts_advance_the_prefix(self, p):
        d = 144
        rng = random.Random(p + d)
        vecs = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        basis = SpanBasis(d, PrimeField(p))
        for j, v in enumerate(vecs, start=1):
            assert basis.insert(v)
            # A dense vector pivots at the first free column, so the prefix
            # is every column so far.  Each row keeps the d - offset stored
            # slots, and the dead slots [offset, base) are shifted out once
            # (base - offset)^2 >= d - base, which always holds at a full span.
            offset = basis._offset
            assert basis._base == j and _stored_slots(basis) <= d - offset
            assert (j - offset) ** 2 < d - j or j == d
            if j == 100:
                assert basis.rows == _rref(p, vecs[:j])
                coeffs = [rng.randrange(p) for _ in range(j)]
                combo = [sum(map(mul, coeffs, col)) % p for col in zip(*vecs[:j])]
                assert basis.contains(combo)
                assert not basis.contains(vecs[j])
        assert basis.rows == _rref(p, vecs)
        assert basis._rows == [0] * d
        assert basis.contains(vecs[0]) and not basis.insert(vecs[-1])

    @pytest.mark.parametrize("p", [13, 10007, 2147483647])
    def test_out_of_order_pivots_move_the_prefix_by_several(self, p):
        d = 6
        # Pivots at 2, then 1, then 0: the third insert fills columns 0..2.
        vecs = [[0, 0, 1, 5, 0, 7], [0, 2, 3, 0, 4, 1], [3, 1, 0, 2, 0, 6]]
        basis = SpanBasis(d, PrimeField(p))
        bases = []
        for v in vecs:
            assert basis.insert(v)
            bases.append(basis._base)
        assert bases == [0, 0, 3]
        assert basis.rows == _rref(p, vecs) and _stored_slots(basis) <= 3
        combo = [(2 * a - b + 5 * c) % p for a, b, c in zip(*vecs)]
        assert basis.contains(combo) and not basis.insert(combo)
        unit3, left, right = [0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 2]
        assert not basis.contains(unit3)

        dup = basis.copy()
        assert basis.insert(left) and basis._base == 4
        assert dup._base == 3 and dup.rows == _rref(p, vecs)
        assert dup.insert(right) and dup._base == 3  # pivot 4 is past the prefix
        assert basis.rows == _rref(p, vecs + [left])
        assert dup.rows == _rref(p, vecs + [right])
        assert basis.contains(left) and not dup.contains(left)
        assert dup.contains(right) and not basis.contains(right)
        # Pivot 3 joins pivot 4, so the copy's prefix moves by two.
        assert dup.insert(unit3) and dup._base == 5 and basis._base == 4
        assert dup.rows == _rref(p, vecs + [right, unit3]) and _stored_slots(dup) <= 1
        assert dup.contains([0, 0, 0, 1, 1, 2]) and not dup.contains(left)
        assert basis.rows == _rref(p, vecs + [left])


class TestPivotLag:
    """While the dead slots [offset, base) are still stored: rows, contains
    and unreduced insert_slots, a pivot past the prefix, and a copy that
    diverges and shifts its own prefix."""

    @pytest.mark.parametrize("p", [13, 10007, 2147483647])
    def test_lagging_prefix(self, p):
        d = 36
        rng = random.Random(p + d)
        top = d * (p - 1) ** 2
        basis = SpanBasis(d, PrimeField(p))

        def echelon(j):
            """A vector that pivots at column j while every pivot is below j
            or has a zero there."""
            return [0] * j + [1] + [rng.randrange(p) for _ in range(d - j - 1)]

        def lifted(v):
            """v's slots, each its residue plus a multiple of p, at most top."""
            return _native_slots([x + p * rng.randrange((top - x) // p + 1) for x in v],
                                 basis.width)

        def combo(vecs):
            coeffs = [rng.randrange(p) for _ in vecs]
            return [sum(map(mul, coeffs, col)) % p for col in zip(*vecs)]

        def check(b, vecs, offset, base):
            assert (b._offset, b._base) == (offset, base)
            assert (base - offset) ** 2 < d - base or b.dim == d
            assert _stored_slots(b) <= d - offset
            assert b.rows == _rref(p, vecs) and b.dim == len(vecs)

        vecs = []
        for j in range(6):  # shifts at base 6: 6^2 >= 36 - 6
            vecs.append(echelon(j))
            assert basis.insert_slots(lifted(vecs[-1])) if j % 2 else basis.insert(vecs[-1])
            check(basis, vecs, 0 if j < 5 else 6, j + 1)
        # A pivot past the prefix, then two at its first free column: two
        # dead slots, 2^2 < 36 - 8, stay stored.
        for j in (20, 6, 7):
            vecs.append(echelon(j))
            assert basis.insert_slots(lifted(vecs[-1]))
        check(basis, vecs, 6, 8)
        assert basis.contains(combo(vecs)) and not basis.insert_slots(lifted(combo(vecs)))
        fresh = [rng.randrange(p) for _ in range(d)]
        assert not basis.contains(fresh)
        # A pivot past the prefix while it lags: its slot is 25 - offset.
        vecs.append(echelon(25))
        assert basis.insert_slots(lifted(vecs[-1]))
        check(basis, vecs, 6, 8)

        dup = basis.copy()
        check(dup, vecs, 6, 8)
        mine, theirs = [echelon(8)], [echelon(8), echelon(9), echelon(10)]
        assert basis.insert_slots(lifted(mine[0]))
        check(basis, vecs + mine, 6, 9)
        check(dup, vecs, 6, 8)
        for v in theirs:  # base 11: 5^2 >= 36 - 11, so the copy shifts
            assert dup.insert_slots(lifted(v))
        check(dup, vecs + theirs, 11, 11)
        check(basis, vecs + mine, 6, 9)
        assert dup.contains(combo(vecs + theirs)) and not dup.contains(mine[0])
        assert basis.contains(combo(vecs + mine)) and not basis.contains(theirs[1])

        # Fill both: the insert that fills the span shifts every row to 0.
        for b, kept in ((basis, vecs + mine), (dup, vecs + theirs)):
            oracle = _GaussRows(p)
            for v in kept:
                oracle.insert(v)
            while b.dim < d:
                v = [rng.randrange(p) for _ in range(d)]
                assert b.insert_slots(lifted(v)) == oracle.insert(v)
                assert (b._base - b._offset) ** 2 < d - b._base or b.dim == d
            assert b._offset == b._base == d and b._rows == [0] * d
            assert b.rows == [tuple(int(i == j) for i in range(d)) for j in range(d)]


class TestMinPoly:
    def test_nilpotent(self):
        mu = min_poly(E(F5, 2, 0, 1))
        assert mu.coeffs == (0, 0, 1)  # t^2
        assert mu.degree == 2

    def test_identity(self):
        mu = min_poly(FMatrix.identity(F5, 3))
        assert mu.coeffs == (4, 1)  # t - 1
        assert mu.degree == 1

    def test_diagonal(self):
        mu = min_poly(FMatrix.from_rows(F5, [[1, 0], [0, 2]]))
        assert mu.coeffs == (2, 2, 1)  # (t-1)(t-2) mod 5
        assert mu.degree == 2

    def test_zero_matrix(self):
        mu = min_poly(FMatrix.zero(F5, 2))
        assert mu.coeffs == (0, 1)  # t

    def test_annihilates_and_minimal(self):
        from wordlen.linalg import random_matrix

        rng = random.Random(17)
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            p = rng.choice((5, 7, 11))
            field = PrimeField(p)
            a = random_matrix(field, n, rng)
            mu = min_poly(a)
            assert mu.degree <= n  # Cayley-Hamilton ceiling
            assert mu.coeffs[-1] == 1
            assert _poly_at(mu.coeffs, a) == FMatrix.zero(field, n)
            # powers below the degree are independent, so no shorter monic works
            basis = SpanBasis(n * n, field)
            power = FMatrix.identity(field, n)
            for _ in range(mu.degree):
                assert basis.insert(power.vectorize())
                power = power @ a


class TestShiftToInvertible:
    def test_nilpotent_example(self):
        res = shift_to_invertible(E(F5, 2, 0, 1))
        assert res.lam == 1
        assert res.inverse == FMatrix.from_rows(F5, [[1, -1], [0, 1]])
        assert res.cert_degree == 1

    def test_identity_example(self):
        ident = FMatrix.identity(F5, 2)
        res = shift_to_invertible(ident)
        assert res.lam == 0
        assert res.inverse == ident
        assert res.cert_degree == 0

    def test_random_product_and_certificate(self):
        from wordlen.linalg import random_matrix

        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice((2, 3))
            field = PrimeField(rng.choice((5, 7)))
            x = random_matrix(field, n, rng)
            res = shift_to_invertible(x)
            shifted = x + FMatrix.identity(field, n).scale(res.lam)
            assert res.inverse @ shifted == FMatrix.identity(field, n)
            assert shifted @ res.inverse == FMatrix.identity(field, n)
            assert _poly_at(res.cert_coeffs, x) == res.inverse
            assert res.cert_degree <= min_poly(x).degree - 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_first_invertible_shift_exhaustive(self, p):
        # invertibility from the 2 x 2 determinant, independent of min_poly
        field = PrimeField(p)
        for a, b, c, d in product(range(p), repeat=4):
            x = FMatrix.from_rows(field, [[a, b], [c, d]])
            first = next(lam for lam in range(p) if ((a + lam) * (d + lam) - b * c) % p)
            assert shift_to_invertible(x).lam == first, (a, b, c, d)

    def test_small_field_rejected(self):
        f2 = PrimeField(2)
        with pytest.raises(ValueError):
            shift_to_invertible(E(f2, 2, 0, 1))  # deg mu = 2 >= p


class TestMatrixJson:
    def test_round_trip(self, tmp_path):
        import json

        mats = [E(F5, 2, 0, 1), E(F5, 2, 1, 0)]
        payload = dump_matrix_set(F5, 2, mats)
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        field, n, loaded = load_matrix_set(path)
        assert field == F5 and n == 2 and loaded == mats
        assert dump_matrix_set(field, n, loaded) == payload

    def test_load_reduces_mod_p(self):
        field, n, mats = load_matrix_set(
            {"p": 5, "n": 2, "matrices": [[6, -1, 0, 10]]}
        )
        assert mats[0].entries == ((1, 4), (0, 0))

    @pytest.mark.parametrize(
        "payload, field_name",
        [
            ([[0, 1, 0, 0]], "object"),
            ({"n": 2, "matrices": []}, "object"),
            ({"p": "5", "n": 2, "matrices": []}, '"p"'),
            ({"p": 5, "n": True, "matrices": []}, '"n"'),
            ({"p": 5, "n": 0, "matrices": []}, '"n"'),
            ({"p": 5, "n": 2, "matrices": [[0, 1.7, 0, 0]]}, '"matrices"[0]'),
            ({"p": 5, "n": 2, "matrices": [[0, 1, 0, 0], [True, 0, 0, 0]]}, '"matrices"[1]'),
            ({"p": 5, "n": 2, "matrices": {"a": [0, 1, 0, 0]}}, '"matrices"'),
            ({"p": 5, "n": 2, "matrices": [7]}, '"matrices"[0]'),
        ],
    )
    def test_malformed_file_names_the_field(self, tmp_path, payload, field_name):
        import json
        import re

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(field_name)):
            load_matrix_set(path)
