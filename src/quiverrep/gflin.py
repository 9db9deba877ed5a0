"""Small finite fields GF(q) and row-space linear algebra on plain rows.

This is the self-contained kernel behind the brute-force subrepresentation
enumeration and nc2's socle-subspace scan, which also decides the Z-space
lemma's hypothesis.  It deliberately shares no elimination code with
:mod:`quiverrep.exactlin`, so enumeration results can serve as an
independent cross-check for the criterion computations, and nc2's exactlin
cross-checks (the literal quotient check in the tests, the type A
criterion) share no elimination with its scan.  The tests, in turn,
check these functions against exactlin's kernels and ranks.  Over a finite
field nc2 runs here end to end once the socles are known: the Hom kernel of
the intertwining equations (``rep.hom_evaluation_rows``), the stacked
evaluation tables cut apart by ``row_blocks`` and reassembled by
``transpose_rows``, and each class's span grown from its prefix's by
``extend_rref``.

Elements of GF(q), q = p^k, are integers 0..q-1.  For k > 1 the integer
encodes the coefficient vector of a polynomial over F_p in base p, and
arithmetic runs through multiplication tables built from a brute-force
irreducible polynomial.

Every row-space function takes a field handle first.  The handle fixes the
row format and nothing else: each operation is written once, on primitives
the handle supplies (reduce a row against a reduced echelon basis,
eliminate rows into one, join two row halves and read back the right halves
of rows whose left half is zero) and on its layout operations (packing,
blocks, transpose, product, the rows of one pivot for ``enumerate_rref``).

* a :class:`Gfq` handle (``gfq(q)``, any q, including 2) takes matrices as
  tuples of row tuples.  nc2, the Z-space hypothesis check and the
  enumeration oracle over q > 2, and the tests use it.
* the :data:`GF2_PACKED` handle takes each row of length n as one int, with
  column j at bit n-1-j, so integer order is the lexicographic order of the
  row tuples and a reduced echelon basis lists its rows in decreasing order.
  Elimination is XOR on whole rows.  The enumeration oracle, nc2 and the
  Z-space hypothesis check use it over F_2.

``handle(q)`` makes that choice once for its callers.  ``pack_rows`` and
``unpack_rows`` convert at the boundary; RREF is unique, so both formats
give the same subspaces, in the same rows and order, from every function.
"""

from __future__ import annotations

import functools
import itertools

_TABLE_LIMIT = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, p prime; raise otherwise."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            n, k = q, 0
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    # little-endian coefficients, den monic
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def _find_irreducible(p: int, k: int) -> list[int]:
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail) + [1]
        if poly[0] != 0 and _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {k} over F_{p}")


class Gfq:
    """Arithmetic tables for GF(q) with q <= 64 (any prime p is fine at k=1),
    and the tuple row format: a row is a tuple of field elements."""

    def __init__(self, q: int):
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k > 1 and q > _TABLE_LIMIT:
            raise ValueError(f"extension fields supported only up to order {_TABLE_LIMIT}")
        if q <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_table = None
            self.mul_table = None
            self.inv_table = None
            self.neg_table = None
    def _decode(self, a: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _encode(self, digits) -> int:
        a = 0
        for d in reversed(list(digits)):
            a = a * self.p + d
        return a

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        modpoly = _find_irreducible(p, k) if k > 1 else [0, 1]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = self._decode(a)
            for b in range(q):
                db = self._decode(b)
                add[a][b] = self._encode((x + y) % p for x, y in zip(da, db))
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for i in range(len(prod) - 1, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(k):
                            prod[i - k + j] = (prod[i - k + j] - c * modpoly[j]) % p
                mul[a][b] = self._encode(prod[:k])
        neg = [0] * q
        inv = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if mul[a][b] == 1:
                    inv[a] = b
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv

    # Element operations.  Direct modular arithmetic for prime fields above
    # the table limit; table lookups otherwise.

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][b]
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][self.neg_table[b]]
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        if self.neg_table is not None:
            return self.neg_table[a]
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.inv_table is not None:
            return self.inv_table[a]
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    # The row primitives the row-space functions below are written on;
    # PackedGF2 has the same ones for its format.  A reduced echelon tuple
    # row is 0 before its pivot and 1 at it, so its pivot is row.index(1),
    # and decreasing tuple order lists such rows by increasing pivot.

    def _axpy(self, x, c: int, b) -> tuple:
        """The row x + c b."""
        if self.mul_table is None:
            p = self.p
            return tuple([(u + c * v) % p for u, v in zip(x, b)])
        add, times = self.add_table, self.mul_table[c]
        return tuple([add[u][times[v]] for u, v in zip(x, b)])

    def _pack(self, row) -> tuple:
        return tuple(row)

    def _unpack(self, row, n: int) -> tuple:
        return row

    def _reduce(self, basis, x):
        """x reduced against the rows of a reduced echelon basis."""
        for b in basis:
            c = x[b.index(1)]
            if c:
                x = self._axpy(x, self.neg(c), b)
        return x

    def _eliminate(self, basis: list, rows) -> list:
        """`basis`, a list of reduced echelon rows, with `rows` eliminated
        into it: each row is reduced and, unless zero, scaled to pivot 1,
        cleared from the others at its pivot and appended.  Unsorted."""
        for x in rows:
            x = self._reduce(basis, tuple(x))
            p = next((j for j, v in enumerate(x) if v), None)
            if p is None:
                continue
            if x[p] != 1:
                x = self._axpy((0,) * len(x), self.inv(x[p]), x)
            for i, b in enumerate(basis):
                if b[p]:
                    basis[i] = self._axpy(b, self.neg(b[p]), x)
            basis.append(x)
        return basis

    def _join(self, lefts, rights, width: int) -> list:
        """The rows (x | y) for x, y in zip(lefts, rights), y `width` wide."""
        return [x + y for x, y in zip(lefts, rights)]

    def _right_halves(self, rows, width: int) -> Rows:
        """The right halves, `width` wide, of the rows whose left half is 0."""
        return tuple(r[len(r) - width :] for r in rows if not any(r[: len(r) - width]))

    def _blocks(self, rows, n: int, start: int, count: int, width: int) -> Rows:
        return tuple(r[start + a * width : start + (a + 1) * width] for r in rows for a in range(count))

    def _transpose(self, rows, n: int) -> Rows:
        return tuple(tuple(r[j] for r in rows) for j in range(n))

    def _matmul(self, a, b, ncols: int) -> Rows:
        out = []
        for row in a:
            acc = (0,) * ncols
            for x, brow in zip(row, b):
                if x:
                    acc = self._axpy(acc, x, brow)
            out.append(acc)
        return tuple(out)

    def _pivot_rows(self, n: int, pivots, p: int):
        """The rows with pivot p of the k x n RREF matrices with pivot
        columns `pivots`, in lexicographic order."""
        return itertools.product(
            *((1,) if j == p else range(self.q) if j > p and j not in pivots else (0,) for j in range(n))
        )


_GFQ_CACHE: dict[int, Gfq] = {}


def gfq(q: int) -> Gfq:
    if q not in _GFQ_CACHE:
        _GFQ_CACHE[q] = Gfq(q)
    return _GFQ_CACHE[q]


class PackedGF2:
    """The GF(2) handle whose rows are packed into ints (see the module
    docstring).  It carries no element arithmetic: rows are added by XOR.
    The pivot of a reduced echelon row is its top bit, so "x has the pivot
    bit of b set" reads x ^ b < x."""

    q = 2

    def _pack(self, row) -> int:
        x = 0
        for bit in row:
            x = (x << 1) | bit
        return x

    def _unpack(self, x: int, n: int) -> tuple:
        return tuple((x >> (n - 1 - j)) & 1 for j in range(n))

    def _reduce(self, basis, x: int) -> int:
        for b in basis:
            if x ^ b < x:
                x ^= b
        return x

    def _eliminate(self, basis: list, rows) -> list:
        for x in rows:
            for b in basis:  # _reduce, inlined on the oracle's hottest loop
                if x ^ b < x:
                    x ^= b
            if x:
                for i, b in enumerate(basis):
                    if b ^ x < b:
                        basis[i] = b ^ x
                basis.append(x)
        return basis

    def _join(self, lefts, rights, width: int) -> list[int]:
        return [(x << width) | y for x, y in zip(lefts, rights)]

    def _right_halves(self, rows, width: int) -> Rows:
        return tuple(r for r in rows if r >> width == 0)

    def _blocks(self, rows, n: int, start: int, count: int, width: int) -> Rows:
        mask = (1 << width) - 1
        shifts = [n - start - (a + 1) * width for a in range(count)]
        return tuple([(x >> s) & mask for x in rows for s in shifts])

    def _transpose(self, rows, n: int) -> Rows:
        out = []
        for j in range(n - 1, -1, -1):
            x = 0
            for r in rows:
                x = x << 1 | (r >> j) & 1
            out.append(x)
        return tuple(out)

    def _matmul(self, a, b, ncols: int) -> Rows:
        by_bit = b[::-1]  # by_bit[i] is the row of b selected by bit i
        out = []
        for x in a:
            acc = i = 0
            while x:
                if x & 1:
                    acc ^= by_bit[i]
                x >>= 1
                i += 1
            out.append(acc)
        return tuple(out)

    def _pivot_rows(self, n: int, pivots, p: int) -> list[int]:
        # the free entries in lexicographic order are the submasks of the
        # free bits in increasing order
        lead, free = 1 << (n - 1 - p), 0
        for j in range(p + 1, n):
            if j not in pivots:
                free |= 1 << (n - 1 - j)
        rows, s = [lead], 0
        while s != free:
            s = (s - free) & free
            rows.append(lead | s)
        return rows


GF2_PACKED = PackedGF2()
Handle = Gfq | PackedGF2


def handle(q: int) -> Handle:
    """The handle for GF(q) that the oracle and nc2 use: packed rows for
    q = 2, ``gfq(q)`` otherwise."""
    return GF2_PACKED if q == 2 else gfq(q)


# ----------------------------------------------------------------------
# Row-space operations, each written once on the handle's primitives.  A
# "row matrix" is a tuple of rows in the handle's format; a subspace of F^n
# is represented by the row space of such a matrix in reduced row-echelon
# form.

Rows = tuple  # of row tuples (Gfq), or of packed int rows (GF2_PACKED)


def pack_rows(gf: Handle, rows) -> Rows:
    """Rows given as sequences of field elements, in gf's row format."""
    return tuple(map(gf._pack, rows))


def unpack_rows(gf: Handle, rows: Rows, n: int) -> Rows:
    """Rows of length n in gf's row format, as tuples of field elements."""
    return tuple(gf._unpack(x, n) for x in rows)


def rref_rows(gf: Handle, rows) -> Rows:
    """Reduced row echelon form with zero rows dropped."""
    return tuple(sorted(gf._eliminate([], rows), reverse=True))


def extend_rref(gf: Handle, span_rref: Rows, rows) -> Rows:
    """RREF of span(span_rref) + span(rows), span_rref already in RREF: the
    one rref_rows(span_rref + rows) gives.  Only `rows` are eliminated,
    against the span and each other, and the span's rows are only cleared
    at the new pivots; the span comes back as it is when the rows all lie
    in it."""
    basis = gf._eliminate(list(span_rref), rows)
    if len(basis) == len(span_rref):
        return span_rref
    basis.sort(reverse=True)
    return tuple(basis)


def row_blocks(gf: Handle, rows, n: int, start: int, count: int, width: int) -> Rows:
    """For each row of length n in turn, the `count` consecutive blocks of
    `width` entries that begin at its entry `start` (the rows of a
    count x width matrix stored row-major there), stacked into one row
    matrix in gf's format."""
    return gf._blocks(rows, n, start, count, width)


def transpose_rows(gf: Handle, rows, n: int) -> Rows:
    """The n x len(rows) transpose of rows of length n."""
    return gf._transpose(rows, n)


def right_kernel_rows(gf: Handle, rows, ncols: int) -> Rows:
    """Basis (as rows, in RREF) of {v in F^ncols : M v = 0}: the preimage
    of 0 under M."""
    return preimage_rows(gf, transpose_rows(gf, rows, ncols), (), ncols)


def matmul_rows(gf: Handle, a, b, ncols: int) -> Rows:
    """Product of row matrices a (r x s) and b (s x ncols).  The width is
    passed because tuple rows of b cannot carry it when s = 0."""
    return gf._matmul(a, b, ncols)


def rank_rows(gf: Handle, rows) -> int:
    return len(rref_rows(gf, rows))


def row_in_span(gf: Handle, span_rref: Rows, vec) -> bool:
    """Membership test assuming span_rref is in RREF: vec reduces to a row
    that elimination drops."""
    return not gf._eliminate([], (gf._reduce(span_rref, vec),))


def complement_in(gf: Handle, w_rref: Rows, b_rref: Rows) -> Rows:
    """Basis rows of a complement of span(w) inside span(b); requires
    span(w) <= span(b)."""
    return rref_rows(gf, [gf._reduce(w_rref, x) for x in b_rref])


def intersect_rows(gf: Handle, a: Rows, b: Rows, ncols: int) -> Rows:
    """Intersection of two row spaces of F^ncols, both given by basis rows.

    Zassenhaus: the rows (x | x) for x in a and (y | 0) for y in b are
    eliminated, and the rows whose left half vanishes span the
    intersection in their right half.  A side that spans all of F^ncols
    (the oracle's starting bound) leaves the other one, in RREF.
    """
    if not a or not b:
        return ()
    if len(a) == ncols or len(b) == ncols:
        return rref_rows(gf, b if len(a) == ncols else a)
    zero = gf._pack((0,) * ncols)
    joined = gf._join([*a, *b], [*a] + [zero] * len(b), ncols)
    return gf._right_halves(rref_rows(gf, joined), ncols)


def preimage_rows(gf: Handle, x_cols: Rows, sub_rref: Rows, src_dim: int) -> Rows:
    """RREF basis rows of {v in F^src : X v in rowspace(sub)} for X a
    tgt x src matrix, given by its columns (the rows of its transpose), and
    sub in RREF.

    One elimination, the Zassenhaus trick of `intersect_rows`: the rows
    (X e_j mod sub | e_j), one per unit vector e_j of F^src, are reduced,
    and the rows whose left half vanishes span the preimage in their right
    half.
    """
    reduced = [gf._reduce(sub_rref, c) for c in x_cols]
    joined = gf._join(reduced, identity_rows(gf, src_dim), src_dim)
    return gf._right_halves(rref_rows(gf, joined), src_dim)


@functools.lru_cache(maxsize=256)
def identity_rows(gf: Handle, n: int) -> Rows:
    """The n x n identity in gf's row format, a basis of the whole space
    in RREF; cached, since the oracle starts every vertex from it."""
    return pack_rows(gf, (tuple(int(i == j) for j in range(n)) for i in range(n)))


@functools.cache
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_rref(gf: Handle, n: int, k: int):
    """Yield all k x n RREF matrices over GF(q), in lexicographic order.

    Pivot column sets run in lexicographic order, and for each set the free
    entries run through all assignments in lexicographic order, row by row.
    The rows are drawn lazily, so a caller that stops early never builds
    the whole set.
    """

    def fill(pivots, rows):
        if len(rows) == len(pivots):
            yield rows
            return
        for row in gf._pivot_rows(n, pivots, pivots[len(rows)]):
            yield from fill(pivots, rows + (row,))

    for pivots in itertools.combinations(range(n), k):
        yield from fill(pivots, ())
