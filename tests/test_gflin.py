import itertools
import random

from quiverrep import gflin
from quiverrep.exactlin import GF, Matrix
from quiverrep.grassmannian import SubrepOracle
from quiverrep.quiver import a_n
from quiverrep.rep import random_representation

F2 = gflin.gfq(2)
PACKED = gflin.GF2_PACKED


def _cols(rows, n: int) -> tuple:
    """The columns of a row matrix with n columns, as tuples."""
    return tuple(tuple(r[j] for r in rows) for j in range(n))


def _mat_vec(gf, rows, vec) -> tuple:
    """rows times the column vector vec, on a tuple-row handle."""
    out = []
    for row in rows:
        acc = 0
        for x, v in zip(row, vec):
            if x and v:
                acc = gf.add(acc, gf.mul(x, v))
        out.append(acc)
    return tuple(out)


def _handles(*orders):
    """A table handle per order, and the packed GF(2) handle when 2 is listed."""
    return [gflin.gfq(q) for q in orders] + ([PACKED] if 2 in orders else [])


def test_gaussian_binomial_values():
    assert gflin.gaussian_binomial(4, 2, 2) == 35
    assert gflin.gaussian_binomial(3, 1, 3) == 13
    assert gflin.gaussian_binomial(5, 0, 7) == 1
    assert gflin.gaussian_binomial(2, 3, 5) == 0


def test_enumerate_rref_counts_and_uniqueness():
    for gf in _handles(2, 3, 4):
        for n in range(5):
            for k in range(n + 2):
                mats = list(gflin.enumerate_rref(gf, n, k))
                assert len(mats) == gflin.gaussian_binomial(n, k, gf.q)
                assert len(set(mats)) == len(mats)
                for m in mats:
                    assert gflin.rref_rows(gf, m) == m
                # the packed handle yields the tuple handle's matrices, in its order
                tuples = list(gflin.enumerate_rref(gflin.gfq(gf.q), n, k))
                assert [gflin.unpack_rows(gf, m, n) for m in mats] == tuples


def test_rref_agrees_with_exactlin():
    for gf in _handles(2, 3, 5):
        rng = random.Random(2)
        f = GF(gf.q)
        for _ in range(30):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = tuple(tuple(rng.randrange(gf.q) for _ in range(nc)) for _ in range(nr))
            toolkit = gflin.unpack_rows(gf, gflin.rref_rows(gf, gflin.pack_rows(gf, rows)), nc)
            red, pivots = Matrix(f, rows).rref()
            nonzero = tuple(r for r in red.rows if any(r))
            assert toolkit == nonzero


def test_right_kernel_annihilates():
    for gf in _handles(2, 3, 4):
        rng = random.Random(8)
        table = gflin.gfq(gf.q)
        for _ in range(20):
            nr, nc = rng.randint(1, 4), rng.randint(1, 5)
            rows = tuple(tuple(rng.randrange(gf.q) for _ in range(nc)) for _ in range(nr))
            packed = gflin.pack_rows(gf, rows)
            kern = gflin.unpack_rows(gf, gflin.right_kernel_rows(gf, packed, nc), nc)
            assert len(kern) == nc - len(gflin.rref_rows(gf, packed))
            for v in kern:
                assert not any(_mat_vec(table, rows, v))


def test_intersection_and_preimage():
    for gf in _handles(2):
        a = gflin.rref_rows(gf, gflin.pack_rows(gf, ((1, 0, 0), (0, 1, 0))))
        b = gflin.rref_rows(gf, gflin.pack_rows(gf, ((0, 1, 0), (0, 0, 1))))
        inter = gflin.intersect_rows(gf, a, b, 3)
        assert gflin.unpack_rows(gf, inter, 3) == ((0, 1, 0),)
        # preimage of span(e1) under projection onto first two coordinates
        x = ((1, 0, 0), (0, 1, 0))  # F_2^3 -> F_2^2
        pre = gflin.preimage_rows(gf, gflin.pack_rows(gf, _cols(x, 3)), gflin.pack_rows(gf, ((1, 0),)), 3)
        assert len(pre) == 2
        for v in gflin.unpack_rows(gf, pre, 3):
            img = _mat_vec(F2, x, v)
            assert img[1] == 0


def test_complement_in():
    for gf in _handles(2, 3):
        b = gflin.identity_rows(gf, 3)
        w = gflin.rref_rows(gf, gflin.pack_rows(gf, ((1, gf.q - 1, 0),)))
        comp = gflin.complement_in(gf, w, b)
        assert len(comp) == 2
        combined = gflin.rref_rows(gf, w + comp)
        assert len(combined) == 3


def test_extend_rref_is_the_rref_of_the_union():
    """Adding rows to an RREF span gives rref_rows of the union, on seeded
    random rows of width 0 to 6 over F_2 (both handles), F_3, F_4 and F_5."""
    rng = random.Random(9)
    for gf in _handles(2, 3, 4, 5):
        for _ in range(60):
            nc = rng.randint(0, 6)
            a, b = (
                tuple(tuple(rng.randrange(gf.q) * (rng.random() < 0.6) for _ in range(nc))
                      for _ in range(rng.randint(0, 4)))
                for _ in range(2)
            )
            pa, pb = gflin.pack_rows(gf, a), gflin.pack_rows(gf, b)
            got = gflin.extend_rref(gf, gflin.rref_rows(gf, pa), pb)
            assert got == gflin.rref_rows(gf, pa + pb), (gf.q, a, b)


def test_row_blocks_and_transpose_match_tuple_slicing():
    """Both handles cut rows into blocks and transpose them as tuple
    slicing does, for zero to three rows and empty shapes."""
    rng = random.Random(10)
    for gf in _handles(2, 3):
        for n, start, count, width in ((1, 0, 1, 1), (5, 0, 5, 1), (7, 1, 3, 2), (9, 3, 2, 3), (4, 0, 1, 4)):
            rows = tuple(tuple(rng.randrange(gf.q) for _ in range(n)) for _ in range(rng.randint(0, 3)))
            blocks = gflin.row_blocks(gf, gflin.pack_rows(gf, rows), n, start, count, width)
            assert gflin.unpack_rows(gf, blocks, width) == tuple(
                row[start + a * width : start + (a + 1) * width] for row in rows for a in range(count)
            )
        for nr, nc in ((0, 3), (3, 0), (2, 5), (4, 1)):
            rows = tuple(tuple(rng.randrange(gf.q) for _ in range(nc)) for _ in range(nr))
            t = gflin.transpose_rows(gf, gflin.pack_rows(gf, rows), nc)
            assert gflin.unpack_rows(gf, t, nr) == _cols(rows, nc)


def _random_f2_rows(rng, nr, nc):
    """A random F_2 row matrix; every fourth one is zero (rank 0)."""
    zero = rng.randrange(4) == 0
    return tuple(tuple(0 if zero else rng.randrange(2) for _ in range(nc)) for _ in range(nr))


def test_packed_handle_matches_tuple_rows_on_random_f2():
    """Every row-space function, on seeded random F_2 inputs of width 0 to
    6, gives the tuple handle's rows once unpacked."""
    rng = random.Random(6)
    widths = set()
    empty_inner = 0
    for _ in range(400):
        nc = rng.randint(0, 6)
        widths.add(nc)
        a = _random_f2_rows(rng, rng.randint(0, 4), nc)
        b = _random_f2_rows(rng, rng.randint(0, 4), nc)
        pa, pb = gflin.pack_rows(PACKED, a), gflin.pack_rows(PACKED, b)

        def same(packed, tuples, n=nc):
            assert gflin.unpack_rows(PACKED, packed, n) == tuples, (a, b)

        ra, rb = gflin.rref_rows(F2, a), gflin.rref_rows(F2, b)
        same(gflin.rref_rows(PACKED, pa), ra)
        assert gflin.rank_rows(PACKED, pa) == len(ra)
        same(gflin.right_kernel_rows(PACKED, pa, nc), gflin.right_kernel_rows(F2, a, nc))
        same(gflin.intersect_rows(PACKED, gflin.rref_rows(PACKED, pa), gflin.rref_rows(PACKED, pb), nc),
             gflin.intersect_rows(F2, ra, rb, nc))
        # complement of span(a) inside span(a) + span(b)
        rab = gflin.rref_rows(F2, a + b)
        same(gflin.complement_in(PACKED, gflin.rref_rows(PACKED, pa), gflin.rref_rows(PACKED, pa + pb)),
             gflin.complement_in(F2, ra, rab))
        for v, pv in zip(b, pb):
            assert gflin.row_in_span(PACKED, gflin.rref_rows(PACKED, pa), pv) == gflin.row_in_span(F2, ra, v)
        # the preimage under a (as a len(a) x nc matrix) of a random subspace
        sub = gflin.rref_rows(F2, _random_f2_rows(rng, rng.randint(0, 3), len(a)))
        at = _cols(a, nc)
        same(gflin.preimage_rows(PACKED, gflin.pack_rows(PACKED, at), gflin.pack_rows(PACKED, sub), nc),
             gflin.preimage_rows(F2, at, sub, nc))
        # a (len(a) x nc) times c (nc x t); at nc = 0 both handles must
        # give len(a) zero rows of width t
        t = rng.randint(0, 4)
        c = _random_f2_rows(rng, nc, t)
        same(gflin.matmul_rows(PACKED, pa, gflin.pack_rows(PACKED, c), t), gflin.matmul_rows(F2, a, c, t), t)
        empty_inner += nc == 0 and len(a) > 0 and t > 0
    assert widths == set(range(7)) and empty_inner >= 10


def test_packed_preimage_matches_the_tuple_path():
    """Both handles run the same elimination on their own row layout (the
    joined halves, the bit of each unit vector), and the rows agree
    exactly once unpacked: on zero-dimensional source and target, on
    sub = 0 and sub = the whole target, and on seeded random maps and
    subspaces."""
    rng = random.Random(15)
    edges = {"src 0": 0, "tgt 0": 0, "sub 0": 0, "sub whole": 0}
    for case in range(3000):
        src, tgt = rng.randint(0, 6), rng.randint(0, 6)
        x = _random_f2_rows(rng, tgt, src)
        kind = case % 4
        if kind == 0:
            sub = ()
        elif kind == 1:
            sub = gflin.identity_rows(F2, tgt)
        else:
            sub = gflin.rref_rows(F2, _random_f2_rows(rng, rng.randint(0, tgt), tgt))
        edges["src 0"] += src == 0
        edges["tgt 0"] += tgt == 0
        edges["sub 0"] += not sub
        edges["sub whole"] += tgt > 0 and len(sub) == tgt
        xt = _cols(x, src)
        want = gflin.preimage_rows(F2, xt, sub, src)
        got = gflin.preimage_rows(PACKED, gflin.pack_rows(PACKED, xt), gflin.pack_rows(PACKED, sub), src)
        assert gflin.unpack_rows(PACKED, got, src) == want, (x, sub)
    assert min(edges.values()) > 100, edges


def _exact_rref(f, rows, n: int) -> tuple:
    """The nonzero rows of exactlin's RREF of rows of width n."""
    red, pivots = Matrix(f, rows, ncols=n).rref()
    return red.rows[: len(pivots)]


def _exact_kernel_head(f, blocks, head: int) -> tuple:
    """RREF rows spanned by the first `head` coordinates of the right
    kernel vectors of hstack(blocks), by exactlin."""
    kern = Matrix.hstack(blocks).kernel_basis()
    return _exact_rref(f, [v[:head] for v in kern.transpose().rows], head)


def test_row_space_functions_match_exactlin():
    """right_kernel_rows, intersect_rows, preimage_rows and complement_in
    against exactlin, an independent elimination, on seeded random rows
    of width 0 to 6 over F_2 (both handles), F_3, F_4, F_5 and F_67, a
    prime above the table limit: the kernel is exactlin's kernel_basis,
    A cap B the span of c A over the kernel vectors (c, d) of [A^T | -B^T],
    the preimage of S under X the span of v over the kernel vectors
    (v, c) of [X | -S^T], all in RREF; the complement is checked by rank.
    An oracle over F_67 counts what it enumerates."""
    rng = random.Random(27)
    meets = proper = 0
    f67 = gflin.gfq(67)
    assert f67.mul_table is None
    for a, b in ((3, 65), (0, 1), (66, 66)):
        assert (f67.add(a, b), f67.sub(a, b), f67.mul(a, b)) == ((a + b) % 67, (a - b) % 67, a * b % 67)
    for gf in _handles(2, 3, 4, 5) + [f67]:
        f = GF(gf.q)

        def rand(nr, nc):
            return tuple(tuple(rng.randrange(gf.q) * (rng.random() < 0.6) for _ in range(nc)) for _ in range(nr))

        def same(got, want, n):
            assert gflin.unpack_rows(gf, got, n) == want, gf.q

        for _ in range(40):
            n = rng.randint(0, 6)
            m = rand(rng.randint(0, 4), n)
            same(gflin.right_kernel_rows(gf, gflin.pack_rows(gf, m), n),
                 _exact_kernel_head(f, [Matrix(f, m, ncols=n)], n), n)
            a, b = (_exact_rref(f, rand(rng.randint(0, 4), n), n) for _ in range(2))
            at, bt = (Matrix(f, r, ncols=n).transpose() for r in (a, b))
            coeffs = _exact_kernel_head(f, [at, -bt], len(a))
            want = _exact_rref(f, (Matrix(f, coeffs, ncols=len(a)) @ Matrix(f, a, ncols=n)).rows, n)
            same(gflin.intersect_rows(gf, gflin.pack_rows(gf, a), gflin.pack_rows(gf, b), n), want, n)
            ab = _exact_rref(f, a + b, n)
            meets += 0 < len(want) < len(ab)
            comp = gflin.unpack_rows(gf, gflin.complement_in(gf, gflin.pack_rows(gf, a), gflin.pack_rows(gf, ab)), n)
            assert _exact_rref(f, comp, n) == comp and len(comp) == len(ab) - len(a)
            assert len(_exact_rref(f, a + comp, n)) == len(_exact_rref(f, ab + comp, n)) == len(ab)
            # X: tgt x n, S: rows of width tgt
            tgt = rng.randint(0, 5)
            x = Matrix(f, rand(tgt, n), ncols=n)
            sub = _exact_rref(f, rand(rng.randint(0, tgt), tgt), tgt)
            want = _exact_kernel_head(f, [x, -Matrix(f, sub, ncols=tgt).transpose()], n)
            got = gflin.preimage_rows(gf, gflin.pack_rows(gf, x.transpose().rows), gflin.pack_rows(gf, sub), n)
            same(got, want, n)
            proper += 0 < len(want) < n
    assert meets >= 30 and proper >= 80, (meets, proper)  # 43, 111
    m = random_representation(a_n(3), (2, 2, 1), GF(67), seed=5)
    counts = []
    for e in itertools.product(range(3), range(3), range(2)):
        counts.append(SubrepOracle(m).count(e))
        assert counts[-1] == len(SubrepOracle(m).enumerate(e)), e
    assert counts.count(68) == 3  # a line in F_67^2: [2, 1]_67 = 68
