"""Exact fields and exact matrix algebra.

Scalars are either arbitrary-precision rationals or elements of a finite
field GF(q) stored as canonical integers 0..q-1.  A rational is a Python
``int`` when it is integral and a ``fractions.Fraction`` otherwise: the
constructors, coercion and parsing return ints, sums, differences and
products of ints stay ints, and the only division is ``inv``, which
returns an int for +-1 and the reciprocals of integers.  (A product of
Fractions may still be an integral Fraction; it compares and hashes equal
to the int.)  So eliminations over Q whose pivots are +-1 run on ints.
Everything downstream (Hom spaces, criteria, enumeration cross-checks)
reduces to the rank / kernel / solve routines here, so there is no floating
point anywhere in this package.

One Gauss-Jordan loop serves every field and every elimination (rref,
rank, kernel, solve, determinant), pivoting on the first nonzero entry in
column order; one loop serves the matrix product.  The only per-field code
is three row operations that each FieldSpec chooses once: ``dot``,
``scale`` and ``axpy``, using ``% p`` for prime fields, int and Fraction
arithmetic for the rationals and the :mod:`gflin` tables for extension
fields.

`rank_modulo` is the one elimination outside a field: it ranks integer
rows modulo a product N of distinct primes at once, pivoting on units mod
N only, which gives the rank modulo every prime factor of N or no answer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

from .gflin import factor_prime_power, gfq, is_prime

MAX_CHARACTERISTIC = 2**31


@dataclass(frozen=True)
class FieldSpec:
    """An exact ground field: the rationals, or GF(p**degree)."""

    kind: str  # "Q" or "GF"
    characteristic: int
    degree: int = 1

    def __post_init__(self):
        if self.kind == "Q":
            if self.characteristic != 0 or self.degree != 1:
                raise ValueError("rational field must have characteristic 0")
        elif self.kind == "GF":
            p = self.characteristic
            if not is_prime(p) or p > MAX_CHARACTERISTIC:
                raise ValueError(f"characteristic must be a prime <= 2^31, got {p}")
            if self.degree < 1:
                raise ValueError("degree must be >= 1")
            if self.degree > 1:
                gfq(p**self.degree)  # raises if unsupported
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("Q", 0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("GF", p)

    @classmethod
    def of_order(cls, q: int) -> "FieldSpec":
        p, k = factor_prime_power(q)
        return cls("GF", p, k)

    @classmethod
    def parse(cls, name: str) -> "FieldSpec":
        if not isinstance(name, str):
            raise ValueError(f"field name must be a string, not {name!r}")
        name = name.strip()
        if name in ("Q", "QQ", "rationals"):
            return cls.rationals()
        if name.startswith("F_"):
            return cls.of_order(int(name[2:]))
        if name.startswith("F") and name[1:].isdigit():
            return cls.of_order(int(name[1:]))
        raise ValueError(f"cannot parse field name {name!r}")

    # -- basic data -----------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.kind == "Q"

    @property
    def is_finite(self) -> bool:
        return self.kind == "GF"

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "GF" and self.degree == 1

    @property
    def order(self) -> int:
        if self.is_rationals:
            raise ValueError("the rationals are infinite")
        return self.characteristic**self.degree

    @property
    def name(self) -> str:
        return "Q" if self.is_rationals else f"F_{self.order}"

    def __str__(self) -> str:
        return self.name

    def _gf(self):
        return gfq(self.order)

    # -- scalar arithmetic ----------------------------------------------

    # every field's zero and one are the ints 0 and 1
    zero = 0
    one = 1

    def add(self, a, b):
        if self.is_rationals:
            return a + b
        if self.degree == 1:
            return (a + b) % self.characteristic
        return self._gf().add(a, b)

    def sub(self, a, b):
        if self.is_rationals:
            return a - b
        if self.degree == 1:
            return (a - b) % self.characteristic
        return self._gf().sub(a, b)

    def mul(self, a, b):
        if self.is_rationals:
            return a * b
        if self.degree == 1:
            return (a * b) % self.characteristic
        return self._gf().mul(a, b)

    def neg(self, a):
        if self.is_rationals:
            return -a
        if self.degree == 1:
            return (-a) % self.characteristic
        return self._gf().neg(a)

    def inv(self, a):
        if self.is_rationals:
            num, den = a.numerator, a.denominator
            if num == 0:
                raise ZeroDivisionError("inverse of zero")
            if num < 0:
                num, den = -num, -den
            return den if num == 1 else Fraction(den, num)
        if self.degree == 1:
            if a % self.characteristic == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.characteristic)
        return self._gf().inv(a)

    def from_int(self, n: int):
        if self.is_rationals:
            return n
        if self.degree == 1:
            return n % self.characteristic
        return self._gf().from_int(n)

    # -- row operations -------------------------------------------------

    @cached_property
    def row_ops(self):
        """The (dot, scale, axpy) row operations of this field.

        dot(x, y) is the inner product, scale(c, x) the row c*x and
        axpy(a, x, y) the row a*x + y; rows in, lists out.
        """
        if self.is_rationals:

            def dot(x, y):
                return sum([a * b for a, b in zip(x, y) if a and b])

            def scale(c, x):
                return [c * v if v else v for v in x]

            def axpy(a, x, y):
                return [a * u + v if u else v for u, v in zip(x, y)]

        elif self.degree == 1:
            p = self.characteristic
            mul = operator.mul

            def dot(x, y):
                return sum(map(mul, x, y)) % p

            def scale(c, x):
                return [c * v % p for v in x]

            def axpy(a, x, y):
                return [(a * u + v) % p if u else v for u, v in zip(x, y)]

        else:
            add, mul = self._gf().add_table, self._gf().mul_table

            def dot(x, y):
                acc = 0
                for a, b in zip(x, y):
                    if a and b:
                        acc = add[acc][mul[a][b]]
                return acc

            def scale(c, x):
                mc = mul[c]
                return [mc[v] for v in x]

            def axpy(a, x, y):
                ma = mul[a]
                return [add[ma[u]][v] for u, v in zip(x, y)]

        return dot, scale, axpy

    def coerce(self, value):
        """Canonicalize a scalar given as int, Fraction, or string.

        Raises ValueError for anything that is not a scalar of this field,
        booleans included.
        """
        if isinstance(value, bool):
            raise ValueError(f"a boolean is not a scalar: {value!r}")
        if isinstance(value, str):
            return self.parse_scalar(value)
        if self.is_rationals:
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction):
                return _canonical(value)
            raise ValueError(f"not a rational scalar: {value!r}")
        if not isinstance(value, int):
            raise ValueError(f"finite field scalar must be an integer: {value!r}")
        if 0 <= value < self.order:
            return value
        return self.from_int(value)

    def random(self, rng, box: int = 100):
        """Seeded random scalar: uniform on GF(q), uniform integer in [-box, box] on Q."""
        if self.is_rationals:
            return rng.randint(-box, box)
        return rng.randrange(self.order)

    def elements(self):
        if self.is_rationals:
            raise ValueError("cannot enumerate the rationals")
        return range(self.order)

    # -- serialization ---------------------------------------------------

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, s: str):
        if self.is_rationals:
            try:
                return _canonical(Fraction(s))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in scalar {s!r}") from None
        return self.coerce(int(s))


def _canonical(x: Fraction):
    """The rational x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


QQ = FieldSpec.rationals()


def GF(q: int) -> FieldSpec:
    return FieldSpec.of_order(q)


# ----------------------------------------------------------------------
# Matrices


class Matrix:
    """Immutable dense matrix over a FieldSpec.

    Zero-row matrices carry an explicit column count (and vice versa), since
    representations routinely have zero-dimensional vertex spaces.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows, validate: bool = True, ncols: int | None = None):
        rows = tuple(map(tuple, rows))
        if validate:
            rows = tuple(tuple(map(field.coerce, r)) for r in rows)
        if rows:
            width = len(rows[0])
            if len(set(map(len, rows))) != 1:
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
        else:
            width = 0 if ncols is None else ncols
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(
            field,
            tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)),
            validate=False,
            ncols=ncols,
        )

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), validate=False)

    @classmethod
    def from_cols(cls, field: FieldSpec, cols, nrows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls(field, tuple(tuple(c[i] for c in cols) for i in range(nrows)), ncols=len(cols))

    @classmethod
    def column(cls, field: FieldSpec, vec) -> "Matrix":
        return cls(field, tuple((x,) for x in vec), ncols=1)

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)),
            validate=False,
            ncols=self.nrows,
        )

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def flatten(self):
        return tuple(x for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        add = self.field.add
        return Matrix(
            self.field,
            tuple(tuple(add(x, y) for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            validate=False,
            ncols=self.ncols,
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(
            self.field,
            tuple(tuple(neg(x) for x in r) for r in self.rows),
            validate=False,
            ncols=self.ncols,
        )

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(
            self.field,
            tuple(tuple(mul(c, x) for x in r) for r in self.rows),
            validate=False,
            ncols=self.ncols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in product: {self.shape} @ {other.shape}")
        dot = self.field.row_ops[0]
        cols = other.transpose().rows
        return Matrix(
            self.field,
            tuple(tuple([dot(r, c) for c in cols]) for r in self.rows),
            validate=False,
            ncols=other.ncols,
        )

    # -- stacking ----------------------------------------------------------

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        field = mats[0].field
        nrows = mats[0].nrows
        for m in mats:
            if m.field != field or m.nrows != nrows:
                raise ValueError("hstack mismatch")
        ncols = sum(m.ncols for m in mats)
        return Matrix(
            field,
            tuple(sum((m.rows[i] for m in mats), ()) for i in range(nrows)),
            validate=False,
            ncols=ncols,
        )

    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = list(mats)
        field = mats[0].field
        ncols = mats[0].ncols
        for m in mats:
            if m.field != field or m.ncols != ncols:
                raise ValueError("vstack mismatch")
        rows = []
        for m in mats:
            rows.extend(m.rows)
        return Matrix(field, tuple(rows), validate=False, ncols=ncols)

    @staticmethod
    def block_diag(field: FieldSpec, mats) -> "Matrix":
        mats = list(mats)
        nrows = sum(m.nrows for m in mats)
        ncols = sum(m.ncols for m in mats)
        out = [[field.zero] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for m in mats:
            if m.field != field:
                raise ValueError("block_diag field mismatch")
            for i, row in enumerate(m.rows):
                out[r0 + i][c0 : c0 + m.ncols] = list(row)
            r0 += m.nrows
            c0 += m.ncols
        return Matrix(field, tuple(tuple(r) for r in out), validate=False, ncols=ncols)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return Matrix(
            self.field,
            tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx),
            validate=False,
            ncols=len(col_idx),
        )

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns."""
        rows, pivots, _ = _eliminate(self.field, self.rows)
        return Matrix(self.field, tuple(map(tuple, rows)), validate=False, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns form a basis of the right kernel.

        Free columns are taken in ascending order, so the result is
        deterministic.  A trivial kernel yields a ncols x 0 matrix.
        """
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        f = self.field
        cols = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(red.rows[i][fc])
            cols.append(v)
        return _from_canonical_cols(f, cols, self.ncols)

    def solve(self, b):
        """Some x with self @ x = b (as a tuple), or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        f = self.field
        aug = Matrix.hstack([self, Matrix.column(f, b)])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [f.zero] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][self.ncols]
        return tuple(x)

    def solve_matrix(self, b: "Matrix"):
        """Some X with self @ X = b, or None if any column is inconsistent."""
        self._check_same_field(b)
        if b.nrows != self.nrows:
            raise ValueError("shape mismatch in solve_matrix")
        f = self.field
        aug = Matrix.hstack([self, b])
        red, pivots = aug.rref()
        if any(p >= self.ncols for p in pivots):
            return None
        cols = []
        for j in range(b.ncols):
            x = [f.zero] * self.ncols
            for i, pc in enumerate(pivots):
                x[pc] = red.rows[i][self.ncols + j]
            cols.append(x)
        return _from_canonical_cols(f, cols, self.ncols)

    def det(self):
        """Determinant: the signed product of the pivots."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        f = self.field
        _, pivots, det = _eliminate(f, self.rows)
        return det if len(pivots) == self.nrows else f.zero

    # -- change of field --------------------------------------------------

    def change_field(self, new_field: FieldSpec) -> "Matrix":
        """Reduce a rational/integer matrix into a finite field, or embed
        the prime field into an extension of the same characteristic."""
        if new_field == self.field:
            return self
        if self.field.is_rationals and new_field.is_finite:
            p = new_field.characteristic
            rows = tuple(
                tuple(x % p if type(x) is int else _fraction_mod(x, p) for x in r) for r in self.rows
            )
            return Matrix(new_field, rows, validate=False, ncols=self.ncols)
        if (
            self.field.is_finite
            and new_field.is_finite
            and self.field.characteristic == new_field.characteristic
            and self.field.degree == 1
        ):
            return Matrix(new_field, self.rows, validate=False, ncols=self.ncols)
        raise ValueError(f"cannot move matrix from {self.field} to {new_field}")


def _fraction_mod(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise ValueError(f"denominator of {x} not invertible mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _from_canonical_cols(f: FieldSpec, cols, nrows: int) -> Matrix:
    """``Matrix.from_cols`` for columns of canonical scalars computed here,
    which need no validation."""
    return Matrix(f, tuple(tuple(c[i] for c in cols) for i in range(nrows)), validate=False, ncols=len(cols))


def _eliminate(f: FieldSpec, rows) -> tuple[list, tuple[int, ...], object]:
    """Gauss-Jordan elimination to reduced row echelon form.

    Pivots on the first nonzero entry in column order.  Returns the reduced
    rows, the pivot columns, and the product of the pivots signed by the row
    swaps, which is the determinant when the matrix is square of full rank.
    """
    _, scale, axpy = f.row_ops
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    one = f.one
    det = one
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if mat[pr][c]:
                break
        else:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            det = f.neg(det)
        # Rows r.. vanish left of column c, so row operations start there.
        prow = mat[r]
        pivot = prow[c]
        if pivot != one:
            det = f.mul(det, pivot)
            prow[c:] = scale(f.inv(pivot), prow[c:])
        tail = prow[c:]
        for i in range(nrows):
            row = mat[i]
            coef = row[c]
            if coef and i != r:
                row[c:] = axpy(f.neg(coef), tail, row[c:])
        pivots.append(c)
        r += 1
    return mat, tuple(pivots), det


def rank_modulo(rows, modulus: int) -> int | None:
    """The rank of integer rows modulo every prime factor of `modulus`, a
    product of distinct primes, or None.

    Forward elimination mod `modulus` that pivots only on units.  A
    unit-pivot row operation is invertible modulo each prime p dividing
    `modulus`, and a column with no unit left is zero mod every such p
    when it is zero mod `modulus`, so the pivot count is the rank modulo
    each p.  A column whose remaining entries are nonzero but none a unit
    has different ranks modulo different p; the answer is then None.
    """
    mat = [[x % modulus for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            x = mat[i][c]
            if x:
                if gcd(x, modulus) == 1:
                    pivot = i
                    break
                pivot = -1
        if pivot is None:
            continue
        if pivot < 0:
            return None
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, modulus)
        tail = mat[rank][c + 1 :]
        for row in mat[rank + 1 :]:
            if row[c]:
                a = row[c] * inv
                row[c + 1 :] = [(v - a * u) % modulus if u else v for u, v in zip(tail, row[c + 1 :])]
        rank += 1
        if rank == len(mat):
            break
    return rank
