import itertools
import random

import pytest

from quiverrep import gflin

from quiverrep.dynkin import assemble
from quiverrep.exactlin import GF, QQ
from quiverrep.grassmannian import (
    BudgetExceeded,
    GrassmannianCount,
    SubrepOracle,
    codimension_count,
    count,
    counting_poly,
    enumerate_subreps,
    export_csv,
    nonempty,
)
from quiverrep.quiver import Quiver, a_n, kronecker
from quiverrep.rep import Representation, direct_sum, dual, random_representation

F2, F3 = GF(2), GF(3)


def test_trivial_endpoints():
    x = random_representation(a_n(3), (1, 2, 1), F2, seed=0)
    oracle = SubrepOracle(x)
    assert oracle.count((0, 0, 0)) == 1
    assert oracle.count(x.dims) == 1


def test_interval_module_counts(table_a2_f2):
    u12 = assemble(table_a2_f2, {(1, 1): 1})
    oracle = SubrepOracle(u12)
    assert oracle.count((0, 1)) == 1
    assert oracle.count((1, 0)) == 0
    assert oracle.nonempty((0, 1))
    assert not oracle.nonempty((1, 0))


def test_enumerate_returns_stable_bases(table_a3_f2):
    m = assemble(table_a3_f2, {(1, 1, 1): 1, (0, 1, 0): 1})
    subs = enumerate_subreps(m, (0, 1, 1))
    assert len(subs) == SubrepOracle(m).count((0, 1, 1))
    for bases in subs:
        for (s, t), mat in zip(m.quiver.arrows, m.arrow_mats):
            from quiverrep.exactlin import Matrix

            image = mat @ bases[s]
            assert Matrix.hstack([bases[t], image]).rank() == bases[t].rank()


def test_count_matches_enumerate(table_a3_f2):
    rng = random.Random(1)
    for _ in range(10):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        m = random_representation(a_n(3), dims, F2, seed=rng.randrange(10**6))
        oracle = SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in dims)):
            assert oracle.count(e) == len(oracle.enumerate(e))


def test_nonempty_early_exit_consistent(table_a3_f2):
    rng = random.Random(2)
    for _ in range(10):
        dims = tuple(rng.randint(0, 3) for _ in range(3))
        m = random_representation(a_n(3), dims, F2, seed=rng.randrange(10**6))
        oracle = SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in dims)):
            assert oracle.nonempty(e) == (oracle.count(e) > 0)


def _interval_q(i, j):
    from quiverrep.exactlin import Matrix
    from quiverrep.rep import Representation

    q = a_n(3)
    dims = tuple(1 if i <= v + 1 <= j else 0 for v in range(3))
    mats = []
    for s, t in q.arrows:
        if dims[s] and dims[t]:
            mats.append(Matrix.identity(QQ, 1))
        else:
            mats.append(Matrix.zeros(QQ, dims[t], dims[s]))
    return Representation(q, QQ, dims, mats)


def test_field_independence_on_dynkin():
    for summands in [[(1, 2), (2, 3)], [(1, 3), (1, 3)], [(1, 1), (2, 2), (1, 3)]]:
        mq = direct_sum([_interval_q(i, j) for i, j in summands])
        for e in itertools.product(*(range(d + 1) for d in mq.dims)):
            assert nonempty(mq, e, 2) == nonempty(mq, e, 3)


def test_kronecker_subreps_over_f2():
    from quiverrep.fixtures import kronecker3_m

    m = kronecker3_m(F2)
    oracle = SubrepOracle(m)
    # a line at the source with the full sink is always stable, so the
    # (1,3) Grassmannian is nonempty even though P_i itself does not embed
    assert oracle.nonempty((1, 3))
    assert oracle.nonempty((0, 1))
    assert not oracle.nonempty((1, 0))
    witness = oracle.first_subrep((1, 3))
    assert witness is not None and witness[0].ncols == 1 and witness[1].ncols == 3
    # but no (1,3)-subrepresentation is isomorphic to P_i: its three
    # image lines are never independent (this is the embedding failure)
    from quiverrep.exactlin import Matrix
    for bases in oracle.enumerate((1, 3)):
        line = bases[0]
        images = Matrix.hstack([a @ line for a in m.arrow_mats])
        assert images.rank() < 3


def test_codimension_duality():
    rng = random.Random(3)
    for _ in range(8):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        m = random_representation(a_n(3), dims, F2, seed=rng.randrange(10**6))
        oracle = SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in dims)):
            comp = tuple(d - k for d, k in zip(dims, e))
            # |Gr_e(m)| = |Gr_{dim m - e}(dual m)| = |Gr^{dim m - e}(m)|
            assert oracle.count(e) == count(dual(m), comp, 2)
            assert oracle.count(e) == codimension_count(m, comp, 2)


def test_projective_line_counting_poly():
    one_vertex = Quiver(1, ())
    m = Representation(one_vertex, QQ, (2,), [])
    gc = counting_poly(m, (1,), [2, 3, 5])
    assert gc.poly == [1, 1]  # q + 1
    assert gc.poly_degree() == 1 and gc.leading_coefficient() == 1
    assert gc.confirmed


def test_counting_poly_u12_squared():
    from quiverrep.quiver import euler_form

    mq = direct_sum([_interval_q(1, 2), _interval_q(1, 2)])
    e = (1, 1, 0)
    gc = counting_poly(mq, e, [2, 3, 5])
    expected_dim = euler_form(a_n(3), e, tuple(d - k for d, k in zip(mq.dims, e)))
    assert gc.poly_degree() == expected_dim == 1
    assert gc.leading_coefficient() == 1


def test_counting_poly_refuses_unconfirmed_fit():
    one_vertex = Quiver(1, ())
    m = Representation(one_vertex, QQ, (4,), [])
    # Gr(2, 4) has a degree-4 counting polynomial: five orders leave no
    # held-out confirmation
    with pytest.raises(ValueError):
        counting_poly(m, (2,), [2, 3, 4, 5, 7])
    gc = counting_poly(m, (2,), [2, 3, 4, 5, 7], confirm=False)
    assert not gc.confirmed
    gc2 = counting_poly(m, (2,), [2, 3, 4, 5, 7, 8])
    assert gc2.confirmed and gc2.poly == gc.poly
    assert gc2.poly_degree() == 4 and gc2.leading_coefficient() == 1


def test_counting_poly_rejects_bad_reduction():
    # a representation whose mod-2 reduction degenerates: End dimension
    # jumps, so order 2 must be rejected
    q = a_n(2)
    from quiverrep.exactlin import Matrix

    m = Representation(q, QQ, (1, 1), [Matrix(QQ, [[2]])])
    gc = counting_poly(m, (0, 1), [2, 3, 5, 7])
    assert 2 in gc.rejected
    assert gc.poly == [1]


def test_zero_counts_match_criterion_failures(table_a3_f2):
    from quiverrep.criteria import GrassmannianChecker

    rng = random.Random(4)
    for _ in range(6):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        m = random_representation(a_n(3), dims, F2, seed=rng.randrange(10**6))
        checker = GrassmannianChecker(m, table_a3_f2)
        oracle = SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in dims)):
            if not checker.nonempty(e).holds:
                assert oracle.count(e) == 0


def test_budget_guard():
    m = random_representation(kronecker(1), (8, 8), F3, seed=0)
    oracle = SubrepOracle(m, budget=10)
    with pytest.raises(BudgetExceeded):
        oracle.count((4, 4))


def test_csv_export(tmp_path):
    gc = GrassmannianCount((2,), (1,), [(2, 3), (3, 4)], poly=[1, 1])
    path = tmp_path / "out.csv"
    export_csv(gc, path)
    text = path.read_text()
    assert "q,count" in text and "polynomial" in text


def test_count_over_gf4():
    one_vertex = Quiver(1, ())
    m = Representation(one_vertex, QQ, (2,), [])
    assert count(m, (1,), 4) == 5  # q + 1 points of P^1 over F_4
    assert count(m, (1,), 9) == 10


def _naive_count(m, e):
    """Reference enumerator: filter all subspace tuples, no pruning."""
    gf = gflin.gfq(m.field.order)
    arrow_rows = [tuple(tuple(r) for r in mat.rows) for mat in m.arrow_mats]
    per_vertex = [list(gflin.enumerate_rref(gf, d, k)) for d, k in zip(m.dims, e)]
    total = 0
    for combo in itertools.product(*per_vertex):
        ok = True
        for (s, t), rows in zip(m.quiver.arrows, arrow_rows):
            for v in combo[s]:
                if not gflin.row_in_span(gf, combo[t], gflin.mat_vec(gf, rows, v)):
                    ok = False
                    break
            if not ok:
                break
        total += ok
    return total


def test_adaptive_search_matches_naive_enumeration():
    from quiverrep import gflin as _g  # noqa: F401

    rng = random.Random(17)
    quivers = [a_n(3), kronecker(2)]
    for _ in range(12):
        q = quivers[rng.randrange(2)]
        dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        for field in (F2, F3):
            m = random_representation(q, dims, field, seed=rng.randrange(10**6))
            oracle = SubrepOracle(m)
            for e in itertools.product(*(range(d + 1) for d in dims)):
                assert oracle.count(e) == _naive_count(m, e)


def _zero_rep(q, dims, field):
    from quiverrep.exactlin import Matrix

    mats = [Matrix.zeros(field, dims[t], dims[s]) for s, t in q.arrows]
    return Representation(q, field, dims, mats)


def _leaf_counting_cases():
    """A3, D4 and Kronecker(2) over F_2, F_3, F_4 and F_9: a seeded random
    representation and one with zero arrows (whose counts are products of
    Gaussian binomials), with every e in the box 0 <= e <= dim M."""
    from quiverrep.quiver import d4_subspace

    shapes = [(a_n(3), (1, 2, 1)), (d4_subspace(), (2, 1, 1, 1)), (kronecker(2), (2, 2))]
    for q_order in (2, 3, 4, 9):
        field = GF(q_order)
        for seed, (q, dims) in enumerate(shapes):
            for m in (random_representation(q, dims, field, seed=seed), _zero_rep(q, dims, field)):
                for e in itertools.product(*(range(d + 1) for d in dims)):
                    yield m, e


def test_leaf_counting_matches_enumeration_and_naive():
    seen = set()
    for m, e in _leaf_counting_cases():
        oracle = SubrepOracle(m)
        n = oracle.count(e)
        visits = oracle.visits
        assert n == len(oracle.enumerate(e)) == _naive_count(m, e), (m.field, m.dims, e)
        # count and enumerate charge the same echelon-pattern visits
        assert oracle.visits == visits, (m.field, m.dims, e)
        seen.add(sum(1 for k in e if k))
    # e = 0, e supported on a single vertex, and wider supports up to e = dim M
    assert {0, 1, 2, 3, 4} <= seen


def test_budget_charges_exactly_the_visits_of_count():
    charged = 0
    for m, e in _leaf_counting_cases():
        oracle = SubrepOracle(m)
        n = oracle.count(e)
        visits = oracle.visits
        if visits == 0:
            continue
        charged += 1
        assert SubrepOracle(m, budget=visits).count(e) == n
        assert len(SubrepOracle(m, budget=visits).enumerate(e)) == n
        with pytest.raises(BudgetExceeded):
            SubrepOracle(m, budget=visits - 1).count(e)
        with pytest.raises(BudgetExceeded):
            SubrepOracle(m, budget=visits - 1).enumerate(e)
    assert charged > 100


def test_count_does_not_enumerate_the_last_vertex(monkeypatch):
    # A2 with a line at vertex 0 mapping into F_3^6: vertex 0 is assigned
    # first (branch 1), and the last vertex has the B = [5, 1]_3 = 121
    # planes containing the image line.
    from quiverrep.exactlin import Matrix

    f3 = GF(3)
    m = Representation(a_n(2), f3, (1, 6), [Matrix(f3, [[1], [0], [0], [0], [0], [0]])])
    branch = gflin.gaussian_binomial(5, 1, 3)
    assert branch >= 50
    oracle = SubrepOracle(m)
    calls = 0
    real = gflin.matmul_rows

    def counting_matmul(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(gflin, "matmul_rows", counting_matmul)
    assert oracle.count((1, 2)) == branch
    assert oracle.visits == branch + 1
    assert calls < branch
    assert len(oracle.enumerate((1, 2))) == branch


def test_visit_counter_resets_on_pruned_queries():
    from quiverrep.exactlin import Matrix

    # identity on a line: (1, 0) dies at the path prune, (2, 1) exceeds dim M
    m = Representation(a_n(2), F2, (1, 1), [Matrix.identity(F2, 1)])
    oracle = SubrepOracle(m)
    for op in (oracle.count, oracle.nonempty, oracle.first_subrep, oracle.enumerate):
        for pruned in ((1, 0), (2, 1)):
            op((1, 1))
            assert oracle.visits > 0
            op(pruned)
            assert oracle.visits == 0, (op.__name__, pruned)


def test_counting_poly_records_visits_per_order():
    one_vertex = Quiver(1, ())
    m = Representation(one_vertex, QQ, (2,), [])
    gc = counting_poly(m, (1,), [2, 3, 5])
    assert [q for q, _ in gc.visits] == [q for q, _ in gc.samples]
    assert gc.visits == [(2, 3), (3, 4), (5, 6)]
