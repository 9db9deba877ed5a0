import random
from fractions import Fraction

import pytest

from quiverrep.exactlin import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    rank_modulo,
)
from quiverrep.gflin import gfq, rref_rows


def _apply(m: Matrix, vec) -> tuple:
    """m times the column vector vec, as a tuple."""
    assert len(vec) == m.ncols
    return (m @ Matrix.column(m.field, vec)).col(0)


def rank_fraction_free(int_rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination,
    independent of exactlin's field elimination."""
    mat = [list(map(int, r)) for r in int_rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank_ = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                mat[i][j] = (mat[r][c] * mat[i][j] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        rank_ += 1
        r += 1
        if r == nrows:
            break
    return rank_


def det_bareiss(int_rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    mat = [list(map(int, r)) for r in int_rows]
    n = len(mat)
    if n == 0:
        return 1
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for c in range(n - 1):
        pr = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                mat[i][j] = (mat[c][c] * mat[i][j] - mat[i][c] * mat[c][j]) // prev
            mat[i][c] = 0
        prev = mat[c][c]
    return sign * mat[n - 1][n - 1]


def test_identity_rank():
    assert Matrix.identity(QQ, 3).rank() == 3


def test_rank_of_forced_kronecker_matrix():
    # the 3x3 matrix with rows (a,0,b),(0,a,c),(-c,b,0) at (1,1,1): its
    # determinant vanishes identically, so the rank stays below 3
    m = Matrix(QQ, [[1, 0, 1], [0, 1, 1], [-1, 1, 0]])
    assert m.rank() == 2
    assert m.det() == 0


def test_zero_matrix_rank():
    assert Matrix.zeros(QQ, 2, 3).rank() == 0


def test_kernel_identity_empty():
    k = Matrix.identity(GF(5), 4).kernel_basis()
    assert k.shape == (4, 0)


def test_kernel_zero_matrix():
    k = Matrix.zeros(QQ, 2, 2).kernel_basis()
    assert k.shape == (2, 2)
    assert k.rank() == 2


def test_kernel_random_rank4_over_f5():
    rng = random.Random(11)
    f5 = GF(5)
    while True:
        m = Matrix(f5, [[rng.randrange(5) for _ in range(6)] for _ in range(4)])
        if m.rank() == 4:
            break
    k = m.kernel_basis()
    assert k.ncols == 2
    assert (m @ k).is_zero()
    assert k.rank() == 2


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    assert m.solve([1, 2, 3]) == (Fraction(1), Fraction(2), Fraction(3))


def test_solve_inconsistent():
    assert Matrix.zeros(QQ, 2, 2).solve([1, 0]) is None


def test_solve_substitutes_back():
    rng = random.Random(5)
    m = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
    x0 = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
    b = _apply(m, x0)
    x = m.solve(b)
    assert x is not None
    assert _apply(m, x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).solve([1, 2, 3])


def test_rank_transpose_invariant():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]]
        nc = len(rows[0])
        for _ in range(rng.randint(0, 4)):
            rows.append([rng.randint(-4, 4) for _ in range(nc)])
        m = Matrix(QQ, rows)
        assert m.rank() == m.transpose().rank()


def test_rank_nullity():
    rng = random.Random(4)
    for q in (2, 5, 4, 9, 2**31 - 1):
        f = GF(q)
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = Matrix(f, [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)])
            assert m.kernel_basis().ncols + m.rank() == nc


def test_fraction_free_rank_matches_field_rank():
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        assert rank_fraction_free(rows) == Matrix(QQ, rows).rank()


def test_bareiss_det_matches_field_det():
    rng = random.Random(10)
    cases = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in (1, 2, 3, 4)]
    cases += [[[1, 2], [2, 4]], [[0, 1], [1, 0]]]  # singular; needs a row swap
    for rows in cases:
        assert Fraction(det_bareiss(rows)) == Matrix(QQ, rows).det()
        for p in (2, 7, 2**31 - 1):
            assert det_bareiss(rows) % p == Matrix(GF(p), rows).det()


def test_rref_matches_gflin_oracle():
    rng = random.Random(13)
    for q in (2, 7, 4, 9):
        f, gf = GF(q), gfq(q)
        for _ in range(20):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
            red, pivots = Matrix(f, rows).rref()
            assert red.rows[: len(pivots)] == rref_rows(gf, rows)
            assert all(not any(r) for r in red.rows[len(pivots) :])


def test_rationals_stay_reduced():
    m = Matrix(QQ, [["2/4", "6/3"]])
    assert m.rows[0] == (Fraction(1, 2), Fraction(2))


def test_scalar_serialization_roundtrip():
    assert QQ.parse_scalar(QQ.format_scalar(Fraction(-3, 7))) == Fraction(-3, 7)
    assert QQ.format_scalar(Fraction(5)) == "5"
    f5 = GF(5)
    assert f5.parse_scalar("7") == 2
    assert f5.coerce(-1) == 4


def test_integral_rationals_are_ints():
    two = QQ.coerce(Fraction(6, 3))
    assert type(two) is int and two == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2)
    three = QQ.inv(Fraction(1, 3))
    assert type(three) is int and three == 3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    for x in (QQ.zero, QQ.one, QQ.from_int(-7), QQ.parse_scalar("4/2"), QQ.random(random.Random(0))):
        assert type(x) is int
    assert type(QQ.parse_scalar("-3/7")) is Fraction


def test_rational_eliminations_yield_only_ints_and_fractions():
    rng = random.Random(17)

    def exact(values):
        return all(type(x) in (int, Fraction) for x in values)

    def entry():
        return rng.choice((0, 1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))

    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(QQ, [[entry() for _ in range(nc)] for _ in range(nr)])
        red, _ = m.rref()
        assert exact(red.flatten())
        kern = m.kernel_basis()
        assert exact(kern.flatten()) and (m @ kern).is_zero()
        x = m.solve(m.col(0))
        assert exact(x) and _apply(m, x) == m.col(0)
        assert exact((m @ m.transpose()).flatten())
        square = Matrix(QQ, [[entry() for _ in range(nr)] for _ in range(nr)])
        assert type(square.det()) in (int, Fraction)


def test_rank_modulo_matches_the_rank_mod_each_prime():
    rng = random.Random(19)
    decided = 0
    for primes in ((2, 3, 5, 7), (2,), (3, 5)):
        modulus = 1
        for p in primes:
            modulus *= p
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(nc)] for _ in range(nr)]
            rank = rank_modulo(rows, modulus)
            if rank is not None:
                decided += 1
                assert all(rank == Matrix(GF(p), rows).rank() for p in primes), (rows, primes)
    assert decided >= 60
    # a column with nonzero entries but no unit: 2 is zero mod 2 and not mod 3
    assert rank_modulo([[2, 0]], 6) is None
    assert rank_modulo([[2, 0]], 15) == 1
    assert rank_modulo([[6, 4], [3, 1]], 7) == 2
    assert rank_modulo([], 30) == 0


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("GF", 4)  # 4 is not prime
    with pytest.raises(ValueError):
        FieldSpec("Q", 3)
    assert GF(4).characteristic == 2 and GF(4).degree == 2
    assert GF(9).order == 9


def test_gf4_arithmetic_is_a_field():
    f4 = GF(4)
    for a in f4.elements():
        if a:
            assert f4.mul(a, f4.inv(a)) == 1
        assert f4.add(a, f4.neg(a)) == 0
    # characteristic 2
    assert f4.add(1, 1) == 0
    # the two non-prime elements multiply into the prime field
    assert f4.mul(2, 3) == 1


def test_change_field_reduction():
    m = Matrix(QQ, [["1/3", 2], [0, -1]])
    m5 = m.change_field(GF(5))
    assert m5.rows == ((2, 2), (0, 4))
    with pytest.raises(ValueError):
        m.change_field(GF(3))  # denominator 3 not invertible


def test_change_field_reduces_ints_and_fractions_by_the_inverse_formula():
    rng = random.Random(8)
    entries = [rng.randint(-60, 60) for _ in range(12)]
    entries += [Fraction(rng.randint(-60, 60), rng.randint(2, 40)) for _ in range(24)]
    for p in (2, 3, 5, 7):
        row = [x for x in entries if Fraction(x).denominator % p]
        m = Matrix(QQ, [row])
        assert {type(x) for x in m.rows[0]} == {int, Fraction}
        # the formula every entry went through before ints were reduced by %
        expected = tuple(
            Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in m.rows[0]
        )
        for order in (p, p * p):
            assert m.change_field(GF(order)).rows == (expected,)
    for order in (3, 9):
        with pytest.raises(ValueError, match="^denominator of 2/3 not invertible mod 3$"):
            Matrix(QQ, [[4, "2/3"]]).change_field(GF(order))


def test_block_helpers():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zeros(QQ, 2, 1)
    h = Matrix.hstack([a, b])
    assert h.shape == (2, 3)
    v = Matrix.vstack([a, a])
    assert v.shape == (4, 2)
    d = Matrix.block_diag(QQ, [a, Matrix.identity(QQ, 1)])
    assert d.shape == (3, 3) and d.rank() == 3


def test_zero_dimension_shapes():
    m = Matrix.zeros(QQ, 0, 3)
    assert m.shape == (0, 3)
    assert m.transpose().shape == (3, 0)
    assert (m @ Matrix.zeros(QQ, 3, 2)).shape == (0, 2)
    assert m.kernel_basis().shape == (3, 3)
