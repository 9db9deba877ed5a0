"""Small finite fields GF(q) and row-space linear algebra on plain rows.

This is the self-contained kernel behind the brute-force subrepresentation
enumeration and nc2's socle-subspace scan.  It deliberately shares no
elimination code with :mod:`quiverrep.exactlin`, so enumeration results can
serve as an independent cross-check for the criterion computations, and
nc2's exactlin cross-checks (the literal quotient check in the tests, the
type A criterion) share no elimination with its scan.  Over a finite field
nc2 runs here end to end once the socles are known: the Hom kernel of the
intertwining equations (emitted in the handle's row format by
``rep.hom_evaluation_rows``), the stacked evaluation tables cut apart by
``row_blocks`` and reassembled by ``transpose_rows``, and each class's
span grown from its prefix's by ``extend_rref``.

Elements of GF(q), q = p^k, are integers 0..q-1.  For k > 1 the integer
encodes the coefficient vector of a polynomial over F_p in base p, and
arithmetic runs through multiplication tables built from a brute-force
irreducible polynomial.

Every row-space function takes a field handle first, and the handle fixes
the row format:

* a :class:`Gfq` handle (``gfq(q)``, any q, including 2) takes matrices as
  tuples of row tuples.  nc2 and the enumeration oracle over q > 2, the
  stable search and the tests use it; the tests keep it as the reference
  for the packed format.
* the :data:`GF2_PACKED` handle takes each row of length n as one int, with
  column j at bit n-1-j, so integer order is the lexicographic order of the
  row tuples and a reduced echelon basis lists its rows in decreasing order.
  Elimination is XOR on whole rows.  The enumeration oracle and nc2 use it
  over F_2.

``handle(q)`` makes that choice once for its callers.  ``pack_rows`` and
``unpack_rows`` convert at the boundary; both formats give the same
subspaces, in the same order, from every function.
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
    """Arithmetic tables for GF(q) with q <= 64 (any prime p is fine at k=1)."""

    packed = False

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


_GFQ_CACHE: dict[int, Gfq] = {}


def gfq(q: int) -> Gfq:
    if q not in _GFQ_CACHE:
        _GFQ_CACHE[q] = Gfq(q)
    return _GFQ_CACHE[q]


class PackedGF2:
    """The GF(2) handle whose rows are packed into ints (see the module
    docstring).  It carries no element arithmetic: the row-space functions
    work on whole rows by XOR."""

    q = 2
    packed = True


GF2_PACKED = PackedGF2()
Handle = Gfq | PackedGF2


def handle(q: int) -> Handle:
    """The handle for GF(q) that the oracle and nc2 use: packed rows for
    q = 2, ``gfq(q)`` otherwise."""
    return GF2_PACKED if q == 2 else gfq(q)


# ----------------------------------------------------------------------
# Row-space operations.  A "row matrix" is a tuple of rows in the handle's
# format; a subspace of F^n is represented by the row space of such a
# matrix in reduced row-echelon form.

Rows = tuple  # of row tuples (Gfq), or of packed int rows (GF2_PACKED)


def pack_rows(gf: Handle, rows) -> Rows:
    """Rows given as sequences of field elements, in gf's row format."""
    if gf.packed:
        return tuple(_pack(r) for r in rows)
    return tuple(tuple(r) for r in rows)


def _pack(row) -> int:
    x = 0
    for bit in row:
        x = (x << 1) | bit
    return x


def unpack_rows(gf: Handle, rows: Rows, n: int) -> Rows:
    """Rows of length n in gf's row format, as tuples of field elements."""
    if gf.packed:
        return tuple(tuple((x >> (n - 1 - j)) & 1 for j in range(n)) for x in rows)
    return rows


def rref_rows(gf: Handle, rows) -> Rows:
    """Reduced row echelon form with zero rows dropped."""
    if gf.packed:
        return _rref_packed(rows)
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = gf.inv(mat[pivot_row][col])
        if inv != 1:
            mat[pivot_row] = [gf.mul(inv, x) for x in mat[pivot_row]]
        prow = mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                row = mat[r]
                mat[r] = [gf.sub(x, gf.mul(c, y)) for x, y in zip(row, prow)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def extend_rref(gf: Handle, span_rref: Rows, rows) -> Rows:
    """RREF of span(span_rref) + span(rows), span_rref already in RREF: the
    one rref_rows(span_rref + rows) gives.

    On packed rows only `rows` are eliminated, against the span and each
    other, and the span's rows are only cleared at the new pivots.  Tuple
    rows go through rref_rows, which passes over reduced rows cheaply.
    """
    if gf.packed:
        return _rref_packed(rows, span_rref)
    return rref_rows(gf, span_rref + tuple(rows))


def row_blocks(gf: Handle, rows, n: int, start: int, count: int, width: int) -> Rows:
    """For each row of length n in turn, the `count` consecutive blocks of
    `width` entries that begin at its entry `start` (the rows of a
    count x width matrix stored row-major there), stacked into one row
    matrix in gf's format."""
    if gf.packed:
        mask = (1 << width) - 1
        shifts = [n - start - (a + 1) * width for a in range(count)]
        return tuple([(x >> s) & mask for x in rows for s in shifts])
    return tuple(
        tuple(r[start + a * width : start + (a + 1) * width]) for r in rows for a in range(count)
    )


def transpose_rows(gf: Handle, rows, n: int) -> Rows:
    """The n x len(rows) transpose of rows of length n."""
    if gf.packed:
        out = []
        for j in range(n - 1, -1, -1):
            x = 0
            for r in rows:
                x = x << 1 | (r >> j) & 1
            out.append(x)
        return tuple(out)
    return tuple(tuple(r[j] for r in rows) for j in range(n))


def right_kernel_rows(gf: Handle, rows, ncols: int) -> Rows:
    """Basis (as rows, in RREF) of {v in F^ncols : M v = 0}."""
    if gf.packed:
        return _kernel_packed(rows, ncols)
    red = rref_rows(gf, rows)
    pivots = []
    for r in red:
        for j, x in enumerate(r):
            if x:
                pivots.append(j)
                break
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = gf.neg(red[i][f])
        basis.append(tuple(v))
    return rref_rows(gf, basis)


def matmul_rows(gf: Handle, a, b, ncols: int) -> Rows:
    """Product of row matrices a (r x s) and b (s x ncols).  The width is
    passed because tuple rows of b cannot carry it when s = 0."""
    if gf.packed:
        return _matmul_packed(a, b)
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                if x == 1:
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] = gf.add(acc[j], y)
                else:
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] = gf.add(acc[j], gf.mul(x, y))
        out.append(tuple(acc))
    return tuple(out)


def rank_rows(gf: Handle, rows) -> int:
    return len(rref_rows(gf, rows))


def reduce_mod_span(gf: Gfq, span_rref: Rows, vec) -> tuple[int, ...]:
    """Reduce a vector against an RREF row basis."""
    v = list(vec)
    for row in span_rref:
        piv = next(j for j, x in enumerate(row) if x)
        if v[piv]:
            c = v[piv]
            v = [gf.sub(x, gf.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def row_in_span(gf: Handle, span_rref: Rows, vec) -> bool:
    """Membership test assuming span_rref is in RREF."""
    if gf.packed:
        return not _reduce_packed(span_rref, vec)
    return not any(reduce_mod_span(gf, span_rref, vec))


def complement_in(gf: Handle, w_rref: Rows, b_rref: Rows) -> Rows:
    """Basis rows of a complement of span(w) inside span(b); requires
    span(w) <= span(b)."""
    if gf.packed:
        return _rref_packed([r for r in (_reduce_packed(w_rref, x) for x in b_rref) if r])
    reduced = [reduce_mod_span(gf, w_rref, row) for row in b_rref]
    return rref_rows(gf, [r for r in reduced if any(r)])


def intersect_rows(gf: Handle, a: Rows, b: Rows, ncols: int) -> Rows:
    """Intersection of two row spaces of F^ncols, both given by basis rows."""
    if len(a) == 0 or len(b) == 0:
        return ()
    if gf.packed:
        return _intersect_packed(a, b, ncols)
    # v = c . a lies in span(b)  iff  N_b (a^T c^T) = 0 with N_b the
    # functionals vanishing on span(b).
    nb = right_kernel_rows(gf, b, ncols)
    if not nb:
        return rref_rows(gf, a)
    at = tuple(tuple(row[j] for row in a) for j in range(ncols))
    system = matmul_rows(gf, nb, at, len(a))  # (ncols-dim b) x dim a
    coeffs = right_kernel_rows(gf, system, len(a))
    return rref_rows(gf, matmul_rows(gf, coeffs, a, ncols))


def preimage_rows(gf: Handle, x_cols: Rows, sub_rref: Rows, src_dim: int, tgt_dim: int) -> Rows:
    """RREF basis rows of {v in F^src : X v in rowspace(sub)} for X a
    tgt x src matrix, given by its columns (the rows of its transpose), and
    sub in RREF.

    On packed rows this is one elimination (the Zassenhaus trick of
    `intersect_rows`): the rows (X e_j mod sub | e_j), one per unit vector
    e_j of F^src, are reduced, and the rows whose left half vanishes span
    the preimage in their right half.  Tuple rows take the functionals
    N vanishing on sub and return the kernel of N X.  RREF is unique, so
    both give the same rows.
    """
    if gf.packed:
        return _preimage_packed(x_cols, sub_rref, src_dim)
    n_funcs = right_kernel_rows(gf, sub_rref, tgt_dim)
    if not n_funcs:
        return pack_rows(gf, identity_rows(src_dim))
    system = matmul_rows(gf, n_funcs, transpose_rows(gf, x_cols, tgt_dim), src_dim)
    return right_kernel_rows(gf, system, src_dim)


def identity_rows(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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
    entries run through all assignments in lexicographic order.
    """
    if gf.packed:
        yield from _enumerate_rref_packed(n, k)
        return
    if k == 0:
        yield ()
        return
    if k > n:
        return
    q = gf.q
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        for values in itertools.product(range(q), repeat=len(free_pos)):
            mat = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, j), v in zip(free_pos, values):
                mat[i][j] = v
            yield tuple(tuple(r) for r in mat)


# ----------------------------------------------------------------------
# The GF2_PACKED kernels.  The pivot of a row in echelon form is its top
# bit, so "x has the pivot bit of b set" reads x ^ b < x.


def _reduce_packed(basis, x: int) -> int:
    """x reduced against the rows of a reduced echelon basis."""
    for b in basis:
        if x ^ b < x:
            x ^= b
    return x


def _rref_packed(rows, span=()) -> Rows:
    # `span`, if given, is a reduced echelon basis (a tuple) the rows are
    # added to; it comes back as it is when they all lie in it
    basis = list(span)
    for x in rows:
        for b in basis:
            if x ^ b < x:
                x ^= b
        if x:
            for i, b in enumerate(basis):
                if b ^ x < b:
                    basis[i] = b ^ x
            basis.append(x)
    if len(basis) == len(span):
        return tuple(span)
    basis.sort(reverse=True)
    return tuple(basis)


def _kernel_packed(rows, ncols: int) -> Rows:
    red = _rref_packed(rows)
    pivots = [r.bit_length() - 1 for r in red]
    basis = []
    for bit in range(ncols - 1, -1, -1):
        if bit in pivots:
            continue
        v = 1 << bit
        for r, p in zip(red, pivots):
            if r >> bit & 1:
                v |= 1 << p
        basis.append(v)
    return _rref_packed(basis)


def _matmul_packed(a, b) -> Rows:
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


def _intersect_packed(a, b, ncols: int) -> Rows:
    # Zassenhaus: eliminate the rows (a | a) and (b | 0); the rows whose
    # left half vanishes span the intersection in their right half.
    red = _rref_packed([(x << ncols) | x for x in a] + [y << ncols for y in b])
    return tuple(r for r in red if r >> ncols == 0)


def _preimage_packed(x_cols, sub_rref, src_dim: int) -> Rows:
    # the bit of e_j in the right half is the one pack_rows gives column j
    # of a src-wide row
    red = _rref_packed(
        [(_reduce_packed(sub_rref, c) << src_dim) | 1 << (src_dim - 1 - j) for j, c in enumerate(x_cols)]
    )
    return tuple(r for r in red if r >> src_dim == 0)


def _submasks(mask: int):
    """Every submask of mask, in increasing order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _enumerate_rref_packed(n: int, k: int):
    # Each row's free entries in lexicographic order are its free-bit
    # submasks in increasing order, so the product runs as the tuple one.
    for pivots in itertools.combinations(range(n), k):
        per_row = []
        for p in pivots:
            free = 0
            for j in range(p + 1, n):
                if j not in pivots:
                    free |= 1 << (n - 1 - j)
            lead = 1 << (n - 1 - p)
            per_row.append([lead | s for s in _submasks(free)])
        yield from itertools.product(*per_row)
