import itertools
import random
from fractions import Fraction

import pytest

from quiverrep import gflin, grassmannian, rep

from quiverrep.dynkin import assemble
from quiverrep.exactlin import GF, QQ
from quiverrep.grassmannian import (
    BudgetExceeded,
    GrassmannianCount,
    SubrepOracle,
    count,
    counting_poly,
    enumerate_subreps,
    export_csv,
    nonempty,
)
from quiverrep.quiver import Quiver, a_n, check_dimvector, kronecker
from quiverrep.rep import Representation, direct_sum, dual, random_representation

F2, F3 = GF(2), GF(3)


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


def _codimension_count(m, e, q: int) -> int:
    """|Gr^e(m)|, the Grassmannian of subrepresentations of codimension e.

    Computed over the opposite quiver: N of codimension e corresponds to
    the dual of m/N, a dimension-e subrepresentation of the dual of m, so
    |Gr^e(m)| = |Gr_e(dual m)| and also |Gr_e(m)| = |Gr_{dim m - e}(dual m)|.
    """
    return count(dual(m), check_dimvector(m.quiver, e), q)


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
            assert oracle.count(e) == _codimension_count(m, comp, 2)


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


def _counting(monkeypatch, *names):
    """Count the calls of the named `rep` functions, as `rep.reductions`
    sees them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(rep, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(rep, name, counted)
    return calls


def test_counting_poly_rejects_bad_reduction(monkeypatch):
    # a representation whose mod-2 reduction degenerates: End dimension
    # jumps, so order 2 must be rejected
    q = a_n(2)
    from quiverrep.exactlin import Matrix

    m = Representation(q, QQ, (1, 1), [Matrix(QQ, [[2]])])
    gc = counting_poly(m, (0, 1), [2, 3, 5, 7])
    assert 2 in gc.rejected
    assert gc.poly == [1]
    # F_4 and F_8 reduce through F_2, so they share its verdict; End is
    # computed over Q and once per characteristic (in `rep.reductions`):
    # the modular elimination finds no unit pivot mod 210, so each
    # characteristic falls back to `hom_dim`
    calls = _counting(monkeypatch, "hom_dim", "hom_dims_mod")
    m = Representation(q, QQ, (1, 1), [Matrix(QQ, [[2]])])
    gc = counting_poly(m, (0, 1), [2, 3, 4, 5, 7, 8])
    assert gc.rejected == [2, 4, 8]
    assert [q for q, _ in gc.samples] == [3, 5, 7]
    assert calls == {"hom_dim": 1 + 4, "hom_dims_mod": 1}
    # the answers are kept on m, so a repeat computes no End
    calls.update(dict.fromkeys(calls, 0))
    gc = counting_poly(m, (0, 1), [3, 4, 5, 8])
    assert gc.rejected == [4, 8]
    assert calls == {"hom_dim": 0, "hom_dims_mod": 0}
    # a new characteristic costs one modular elimination, of its own
    gc = counting_poly(m, (0, 1), [3, 5, 11])
    assert gc.rejected == [] and [q for q, _ in gc.samples] == [3, 5, 11]
    assert calls == {"hom_dim": 0, "hom_dims_mod": 1}


def test_counting_poly_on_a_cached_rep_matches_a_fresh_copy():
    from quiverrep.exactlin import Matrix

    # End jumps mod 2 (the entry 2), so F_2, F_4 and F_8 are rejected
    q = a_n(3)
    m = direct_sum(
        [Representation(q, QQ, (1, 1, 1), [Matrix(QQ, [[2]]), Matrix(QQ, [[1]])]), _interval_q(1, 2)]
    )
    qs = [2, 3, 4, 5, 7, 8, 9]
    for e in itertools.product(range(3), range(3), range(2)):
        fresh = Representation(m.quiver, m.field, m.dims, m.arrow_mats)
        assert getattr(fresh, "_reductions", None) is None
        got, want = (counting_poly(x, e, qs) for x in (m, fresh))
        assert (got.samples, got.poly, got.rejected, got.visits) == (
            want.samples, want.poly, want.rejected, want.visits
        ), e
        assert got.rejected == [2, 4, 8]


def test_counting_poly_checks_end_once_over_q_for_good_reduction(monkeypatch):
    calls = _counting(monkeypatch, "hom_dim")
    gc = counting_poly(direct_sum([_interval_q(1, 2)] * 2), (1, 1, 0), [2, 3, 4, 5, 7])
    assert gc.rejected == [] and gc.poly == [1, 1]
    # dim End over Q; every characteristic comes from one elimination mod 210
    assert calls == {"hom_dim": 1}


def _newton_fractions(points):
    """Newton interpolation in Fractions, the reference for `_interpolate`."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    coeffs = [divided[0]]
    for level in range(1, n):
        divided = [(divided[i + 1] - divided[i]) / (xs[i + level] - xs[i]) for i in range(n - level)]
        coeffs.append(divided[0])
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # (x - x_0)...(x - x_{k-1})
    for k, c in enumerate(coeffs):
        for i, a in enumerate(acc):
            poly[i] += c * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a
            nxt[i] -= xs[k] * a
        acc = nxt
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def test_integer_interpolation_matches_the_fraction_newton_form():
    rng = random.Random(23)
    refused = 0
    for xs in ((2, 3, 4, 5, 7), (2, 3, 4, 5, 7, 8)):
        for _ in range(40):
            degree = rng.randint(0, len(xs) - 1)
            coeffs = [rng.randint(-30, 30) for _ in range(degree)] + [1]
            points = [(x, sum(c * x**i for i, c in enumerate(coeffs))) for x in xs]
            assert grassmannian._interpolate(points) == _newton_fractions(points) == coeffs
            # perturbed values: integral fits agree, non-integral ones raise
            points = [(x, y + rng.randint(-2, 2)) for x, y in points]
            reference = _newton_fractions(points)
            if all(c.denominator == 1 for c in reference):
                assert grassmannian._interpolate(points) == reference
            else:
                refused += 1
                with pytest.raises(ValueError, match="non-integer"):
                    grassmannian._interpolate(points)
    assert refused > 0


def test_counting_poly_refuses_non_integer_fits(monkeypatch):
    counts = {2: 1, 3: 2, 5: 3}
    monkeypatch.setattr(SubrepOracle, "count", lambda self, e: counts[self.m.field.order])
    m = Representation(Quiver(1, ()), QQ, (2,), [])
    with pytest.raises(ValueError, match="non-integer"):
        counting_poly(m, (1,), [2, 3, 5])


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
                if not gflin.row_in_span(gf, combo[t], _mat_vec(gf, rows, v)):
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


def _pair_kind(oracle, chosen, v1):
    """How the arrows join v1 to the other unassigned vertex."""
    v2 = next(u for u in range(oracle.q.vertex_count) if u not in chosen and u != v1)
    out = sum(1 for _, t in oracle.q.out_arrows[v1] if t == v2)
    inn = sum(1 for _, s in oracle.q.in_arrows[v1] if s == v2)
    return {(0, 0): "none", (1, 0): "v1 -> v2", (0, 1): "v2 -> v1"}.get((out, inn), "several")


def test_pair_counting_matches_enumeration(monkeypatch):
    """count sums the leaves below the last two vertices in closed form;
    it must give the count and charge the visits of enumerating them, on
    every way two vertices can be joined: no arrow (D4), one arrow either
    way (A2, every orientation of A3, the triangle) and several
    (Kronecker(2), which enumerates the first one)."""
    from quiverrep.quiver import d4_subspace

    kinds = set()
    real = SubrepOracle._count_pair

    def recording(self, e, chosen, best):
        kinds.add(_pair_kind(self, chosen, best[1]))
        return real(self, e, chosen, best)

    monkeypatch.setattr(SubrepOracle, "_count_pair", recording)
    quivers = [
        a_n(2),
        a_n(3),
        Quiver(3, ((1, 0), (1, 2))),
        Quiver(3, ((0, 1), (2, 1))),
        Quiver(3, ((1, 0), (2, 1))),
        d4_subspace(),
        Quiver(3, ((0, 1), (1, 2), (0, 2))),
        kronecker(2),
    ]
    rng = random.Random(41)
    refusals = zero_vertices = 0
    for q in quivers:
        for order in (2, 3, 4, 5, 9):
            top = 3 if order <= 3 else 2
            for _ in range(2):
                dims = [rng.randint(0, top) for _ in range(q.vertex_count)]
                if rng.randrange(2):
                    dims[rng.randrange(q.vertex_count)] = 0
                zero_vertices += dims.count(0)
                m = random_representation(q, tuple(dims), GF(order), seed=rng.randrange(10**6))
                oracle = SubrepOracle(m)
                assert (oracle.gf is gflin.GF2_PACKED) == (order == 2)
                for e in itertools.product(*(range(d + 1) for d in dims)):
                    n = oracle.count(e)
                    visits = oracle.visits
                    assert n == len(oracle.enumerate(e)), (q.arrows, order, dims, e)
                    assert visits == oracle.visits, (q.arrows, order, dims, e)
                    if visits == 0:
                        continue
                    assert SubrepOracle(m, budget=visits).count(e) == n
                    with pytest.raises(BudgetExceeded):
                        SubrepOracle(m, budget=visits - 1).count(e)
                    refusals += 1
    assert kinds == {"none", "v1 -> v2", "v2 -> v1", "several"}
    assert zero_vertices >= 20 and refusals > 500


def test_count_does_not_enumerate_the_last_two_vertices(monkeypatch):
    # A3 with vertex 0 of dimension 1 and vertex 1 -> vertex 2 the identity
    # on F_5^3, at e = (0, 1, 2): vertex 0 is assigned first (branch 1),
    # then each of the 31 lines at vertex 1 lies in the [2, 1]_5 = 6 planes
    # at vertex 2 through its image, 186 leaves in all.
    from quiverrep.exactlin import Matrix

    f5 = GF(5)
    ident = Matrix.identity(f5, 3)
    m = Representation(a_n(3), f5, (1, 3, 3), [Matrix(f5, [[1], [0], [0]]), ident])
    leaves = gflin.gaussian_binomial(3, 1, 5) * gflin.gaussian_binomial(2, 1, 5)
    assert leaves == 186
    oracle = SubrepOracle(m)
    patterns = 0
    real = gflin.enumerate_rref

    def counting_enumerate(*args):
        nonlocal patterns
        for coeffs in real(*args):
            patterns += 1
            yield coeffs

    monkeypatch.setattr(gflin, "enumerate_rref", counting_enumerate)
    assert oracle.count((0, 1, 2)) == leaves
    # enumeration charges the zero subspace at vertex 0, the 31 lines and
    # the 186 leaves
    assert oracle.visits == 1 + 31 + leaves
    assert patterns * 10 < leaves
    assert len(oracle.enumerate((0, 1, 2))) == leaves
    assert oracle.visits == 1 + 31 + leaves


def test_oracle_refuses_an_oriented_cycle():
    for q in (Quiver(2, ((0, 1), (1, 0))), Quiver(1, ((0, 0),))):
        m = random_representation(q, (1,) * q.vertex_count, F2, seed=0)
        with pytest.raises(ValueError, match="acyclic"):
            SubrepOracle(m)


def test_oracle_refuses_a_negative_budget():
    m = random_representation(a_n(2), (1, 1), F2, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        SubrepOracle(m, budget=-5)
    # budget 0 stays valid: it admits queries that visit nothing
    oracle = SubrepOracle(m, budget=0)
    assert oracle.count((2, 0)) == 0
    with pytest.raises(BudgetExceeded):
        oracle.count((0, 0))


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


def test_packed_oracle_matches_the_table_handle_over_f2(monkeypatch):
    """Over F_2 the oracle runs on packed int rows; with the table handle
    swapped in it runs on tuple rows.  Both give the same answers and charge
    the same visits, for every e, on random A3, D4 and Kronecker(2)
    representations, some with zero-dimensional vertices."""
    from quiverrep.quiver import d4_subspace

    rng = random.Random(29)
    zero_vertices = 0
    for q, top in ((a_n(3), 3), (d4_subspace(), 2), (kronecker(2), 3)):
        for _ in range(5):
            dims = [rng.randint(0, top) for _ in range(q.vertex_count)]
            if rng.randrange(2):
                dims[rng.randrange(q.vertex_count)] = 0
            zero_vertices += dims.count(0)
            m = random_representation(q, tuple(dims), F2, seed=rng.randrange(10**6))
            packed = SubrepOracle(m)
            with monkeypatch.context() as patch:
                patch.setattr(gflin, "GF2_PACKED", gflin.gfq(2))
                table = SubrepOracle(m)
            assert packed.gf is gflin.GF2_PACKED and table.gf is gflin.gfq(2)
            for e in itertools.product(*(range(d + 1) for d in dims)):
                for op in ("count", "nonempty", "first_subrep", "enumerate"):
                    got, want = getattr(packed, op)(e), getattr(table, op)(e)
                    assert got == want, (op, dims, e)
                    assert packed.visits == table.visits, (op, dims, e)
    assert zero_vertices >= 5


def _existence_cases():
    """Representations for the existence tests: over F_2 (packed), F_3 and
    F_4 on A2, every orientation of A3, D4, the triangle and Kronecker(2),
    random ones (some with a zero-dimensional vertex) and direct sums of
    two small random ones, whose searches meet more dead ends.  First, an
    A2 case where e = (2, 1) needs the root's later candidates: only the
    planes through the kernel of diag(1, 1, 0) map onto a line, and the
    first plane, span(e_0, e_1), does not contain it, while e = (2, 2)
    stops at that first plane."""
    from quiverrep.exactlin import Matrix
    from quiverrep.quiver import d4_subspace

    yield Representation(a_n(2), F2, (3, 3), [Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])])
    quivers = [
        a_n(2),
        a_n(3),
        Quiver(3, ((1, 0), (1, 2))),
        Quiver(3, ((0, 1), (2, 1))),
        Quiver(3, ((1, 0), (2, 1))),
        d4_subspace(),
        Quiver(3, ((0, 1), (1, 2), (0, 2))),
        kronecker(2),
    ]
    rng = random.Random(43)
    for q in quivers:
        for order in (2, 3, 4):
            field, top = GF(order), 3 if order == 2 else 2
            for _ in range(3):
                dims = [rng.randint(0, top) for _ in range(q.vertex_count)]
                if rng.randrange(2):
                    dims[rng.randrange(q.vertex_count)] = 0
                yield random_representation(q, tuple(dims), field, seed=rng.randrange(10**6))
            for _ in range(2):
                parts = [
                    random_representation(
                        q, tuple(rng.randint(0, top - 1) for _ in range(q.vertex_count)), field,
                        seed=rng.randrange(10**6),
                    )
                    for _ in range(2)
                ]
                yield direct_sum(parts)


def test_existence_queries_match_enumeration():
    """nonempty stops at the last vertex and replays memoized candidate
    sequences; it must answer as enumeration does and charge the visits of
    a fresh oracle even when the oracle has answered every other e (in
    the reverse order, so that an e stopping at a sandwich's first
    candidate often comes before one that needs more), and first_subrep
    must return a fresh oracle's bases."""
    refusals = zero_vertices = found = 0
    for m in _existence_cases():
        where = (m.quiver.arrows, m.field.order, m.dims)
        zero_vertices += m.dims.count(0)
        es = list(itertools.product(*(range(d + 1) for d in m.dims)))
        warm = SubrepOracle(m)
        assert (warm.gf is gflin.GF2_PACKED) == (m.field.order == 2)
        for e in reversed(es):
            warm.nonempty(e)
        for e in es:
            fresh = SubrepOracle(m)
            answer = fresh.nonempty(e)
            visits = fresh.visits
            assert answer == bool(SubrepOracle(m).enumerate(e)), (where, e)
            assert warm.nonempty(e) == answer and warm.visits == visits, (where, e)
            assert warm.first_subrep(e) == fresh.first_subrep(e), (where, e)
            assert warm.visits == fresh.visits, (where, e)
            found += answer
            if visits == 0:
                continue
            assert SubrepOracle(m, budget=visits).nonempty(e) == answer
            with pytest.raises(BudgetExceeded):
                SubrepOracle(m, budget=visits - 1).nonempty(e)
            refusals += 1
    assert zero_vertices >= 50 and refusals > 800 and found > 800


def test_nonempty_does_not_enumerate_the_last_vertex(monkeypatch):
    # A3 with vertex 0 -> vertex 1 the identity on F_2^2 and vertex 1 ->
    # vertex 2 an injection into F_2^4.  At e = (1, 1, 2) the search
    # assigns vertex 0 first (3 lines), then vertex 1 (the image line,
    # branch 1), and the last vertex has the [3, 1]_2 = 7 planes through
    # the image of that line.
    from quiverrep.exactlin import Matrix

    inject = Matrix(F2, [[1, 0], [0, 1], [0, 0], [0, 0]])
    m = Representation(a_n(3), F2, (2, 2, 4), [Matrix.identity(F2, 2), inject])
    calls = []
    real = gflin.enumerate_rref

    def recording(gf, n, k):
        calls.append((n, k))
        return real(gf, n, k)

    monkeypatch.setattr(gflin, "enumerate_rref", recording)
    oracle = SubrepOracle(m)
    assert oracle.nonempty((1, 1, 2))
    # one visit per vertex, as enumeration charges up to its first leaf
    assert oracle.visits == 3
    assert calls == [(2, 1)]
    # (1, 1, 3) shares the root sandwich: its candidates are replayed
    calls.clear()
    assert oracle.nonempty((1, 1, 3))
    assert oracle.visits == 3
    assert calls == []
    # first_subrep needs the rows of a leaf, so it enumerates the last vertex
    assert oracle.first_subrep((1, 1, 2)) is not None
    assert oracle.visits == 3
    assert calls == [(3, 1)]


def _a3_sums(table, count: int, seed: int, top=(6, 8, 5)):
    """Seeded direct sums of A3 indecomposables, multiplicities at most 2,
    with dimension vector at most ``top``: repeated summands make the first
    candidate at the last pair fail often, where nonempty closes the pair."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        mults = [rng.randint(0, 2) for _ in table.roots]
        dims = [sum(k * r[v] for k, r in zip(mults, table.roots)) for v in range(3)]
        if all(d <= t for d, t in zip(dims, top)):
            made += 1
            yield assemble(table, {r: k for r, k in zip(table.roots, mults) if k})


def _random_sums(count: int, seed: int):
    """Seeded direct sums of three random representations of two A3
    orientations and D4 over F_2 and F_3; a few of their empty
    Grassmannians refute a closed pair."""
    from quiverrep.quiver import d4_subspace

    quivers = [Quiver(3, ((1, 0), (1, 2))), Quiver(3, ((0, 1), (2, 1))), d4_subspace()]
    rng = random.Random(seed)
    for i in range(count):
        q = quivers[i % len(quivers)]
        yield direct_sum([
            random_representation(
                q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)), GF(2 + i % 2),
                seed=rng.randrange(10**6),
            )
            for _ in range(3)
        ])


def test_nonempty_charges_no_more_than_first_subrep(table_a3_f2, monkeypatch):
    """Once the first candidate at the last pair fails, nonempty closes the
    pair: a refuted pair is charged the other branch - 1 candidates, as
    enumeration charges them, and a pair with leaves 2, one more candidate
    and its leaf.  So on fresh oracles nonempty answers as first_subrep
    does, charges the same visits when the answer is False and no more when
    it is True, and charges fewer where the closure skipped candidates."""
    closed = []
    real = SubrepOracle._count_pair

    def recording(self, e, chosen, best):
        closed.append(real(self, e, chosen, best))
        return closed[-1]

    monkeypatch.setattr(SubrepOracle, "_count_pair", recording)
    fewer = refuted = 0
    cases = itertools.chain(
        _existence_cases(), _a3_sums(table_a3_f2, 12, seed=47), _random_sums(30, seed=3)
    )
    for m in cases:
        for e in itertools.product(*(range(d + 1) for d in m.dims)):
            existence, search = SubrepOracle(m), SubrepOracle(m)
            closed.clear()
            answer = existence.nonempty(e)
            assert answer == (search.first_subrep(e) is not None), (m.dims, e)
            if answer:
                assert existence.visits <= search.visits, (m.dims, e)
            else:
                assert existence.visits == search.visits, (m.dims, e)
                refuted += 0 in closed
            fewer += existence.visits < search.visits
    assert fewer >= 20 and refuted >= 3


def test_nonempty_closes_the_last_pair_after_its_first_candidate(table_a3_f2, monkeypatch):
    # A3 with multiplicities [0, 2, 2, 2, 2, 2] over the table's roots,
    # dimension vector (6, 8, 4).  At e = (3, 2, 2) enumeration tries 451
    # candidates before its first leaf; nonempty charges the path to the
    # pair and its first candidate, closes the pair (105 leaves) and charges
    # 2 more.  At e = (5, 5, 2) it closes 16 pairs, all refuted, so it
    # charges what enumeration does.
    closed = []
    real = SubrepOracle._count_pair

    def recording(self, e, chosen, best):
        closed.append(real(self, e, chosen, best))
        return closed[-1]

    monkeypatch.setattr(SubrepOracle, "_count_pair", recording)
    mults = [0, 2, 2, 2, 2, 2]
    m = assemble(table_a3_f2, {r: k for r, k in zip(table_a3_f2.roots, mults) if k})
    assert m.dims == (6, 8, 4)
    for e, visits, enumerated, leaves in (((3, 2, 2), 4, 451, [105]), ((5, 5, 2), 1027, 1027, [0] * 16)):
        oracle = SubrepOracle(m)
        closed.clear()
        assert oracle.nonempty(e)
        assert oracle.visits == visits and closed == leaves, e
        assert oracle.first_subrep(e) is not None
        assert oracle.visits == enumerated, e
    # a Kronecker(2) pair has no closed form: v1's later candidates are
    # enumerated as before, for the same 8 visits as first_subrep
    closed.clear()
    k2 = random_representation(kronecker(2), (3, 3), F2, seed=5)
    oracle = SubrepOracle(k2)
    assert oracle.nonempty((2, 2))
    assert closed == [None]
    assert oracle.visits == 8
    assert oracle.first_subrep((2, 2)) is not None
    assert oracle.visits == 8


def _eager_path_nullities(m, gf):
    """The path prune list as the oracle once built it in its constructor,
    ranking every path composite: (start, end, nullity) for every arrow
    a: v -> t and every path start -> v kept in v's frontier, which holds
    one composite per (start, v), the one of lower rank among parallel
    paths.  The reference for the list the oracle builds lazily."""
    arrow_rows = [gflin.pack_rows(gf, mat.rows) for mat in m.arrow_mats]
    out = []
    frontier = {v: {v: gflin.identity_rows(gf, d)} for v, d in enumerate(m.dims)}
    for v in m.quiver.topological_order:
        for arrow_idx, (s, t) in enumerate(m.quiver.arrows):
            if s != v:
                continue
            for start, comp in frontier[v].items():
                composite = gflin.matmul_rows(gf, arrow_rows[arrow_idx], comp, m.dims[start])
                rank = gflin.rank_rows(gf, composite)
                out.append((start, t, m.dims[start] - rank))
                cur = frontier[t].get(start)
                if cur is None or rank < gflin.rank_rows(gf, cur):
                    frontier[t][start] = composite
    return tuple(out)


class _EagerOracle(SubrepOracle):
    """The oracle with its path prune list built up front, as before it
    was built lazily."""

    def __init__(self, m, budget=grassmannian.DEFAULT_BUDGET):
        super().__init__(m, budget)
        self.eager_nullities = _eager_path_nullities(m, self.gf)

    def _path_prune_empty(self, e):
        return any(e[t] < e[s] - nullity for s, t, nullity in self.eager_nullities)


def _prune_cases():
    """Seeded representations over F_2, F_3 and F_4 on A3, a
    non-equioriented A4, D4, Kronecker(2), Kronecker(3) and Kronecker(2)
    followed by an arrow (where the frontier keeps the lower-rank one of
    two parallel composites), some with a zero-dimensional vertex, plus a
    zero representation and a direct sum, whose composites drop rank."""
    from quiverrep.quiver import d4_subspace

    quivers = [
        a_n(3),
        Quiver(4, ((1, 0), (1, 2), (3, 2))),
        d4_subspace(),
        kronecker(2),
        kronecker(3),
        Quiver(3, ((0, 1), (0, 1), (1, 2))),
    ]
    rng = random.Random(61)
    for q in quivers:
        for order in (2, 3, 4):
            field = GF(order)
            for _ in range(2):
                dims = [rng.randint(0, 2) for _ in range(q.vertex_count)]
                if rng.randrange(2):
                    dims[rng.randrange(q.vertex_count)] = 0
                yield random_representation(q, tuple(dims), field, seed=rng.randrange(10**6))
            yield _zero_rep(q, (2,) + (1,) * (q.vertex_count - 1), field)
            ones = (1,) * q.vertex_count
            yield direct_sum(
                [random_representation(q, ones, field, seed=rng.randrange(10**6)) for _ in range(2)]
            )


def _firing(m, nullities):
    """The entries of a path prune list that can reject some e <= dim m:
    those with nullity < dim m_s, since e_s <= dim m_s."""
    return tuple(entry for entry in nullities if entry[2] < m.dims[entry[0]])


def test_lazy_path_prune_matches_the_eager_one():
    """Answers and visits of every public operation, for every e <= dim m,
    are those of the oracle whose path prune list is built up front, on
    fresh oracles and on warm ones that answered every e before; and the
    list built lazily is the eager list without the entries of nullity
    dim m_s, none of which rejects any e <= dim m."""
    ops = ("count", "nonempty", "first_subrep", "enumerate")
    pruned = zero_vertices = dropped = 0
    for m in _prune_cases():
        where = (m.quiver.arrows, m.field.order, m.dims)
        zero_vertices += m.dims.count(0)
        es = list(itertools.product(*(range(d + 1) for d in m.dims)))
        warm, warm_ref = SubrepOracle(m), _EagerOracle(m)
        idle = set(warm_ref.eager_nullities) - set(_firing(m, warm_ref.eager_nullities))
        dropped += len(idle)
        for e in es:
            pruned += warm_ref._path_prune_empty(e)
            assert not any(e[t] < e[s] - nullity for s, t, nullity in idle), (where, e)
            for op in ops:
                fresh, ref = SubrepOracle(m), _EagerOracle(m)
                want = getattr(ref, op)(e)
                assert getattr(fresh, op)(e) == want and fresh.visits == ref.visits, (op, where, e)
                assert getattr(warm, op)(e) == want, (op, where, e)
                assert getattr(warm_ref, op)(e) == want, (op, where, e)
                assert warm.visits == warm_ref.visits == ref.visits, (op, where, e)
        if warm._path_nullities is not None:
            assert warm._path_nullities == _firing(m, warm_ref.eager_nullities), where
    assert pruned > 200 and zero_vertices >= 20 and dropped > 20


def test_oracle_construction_ranks_nothing(monkeypatch):
    """Building an oracle makes no elimination or product, and a query
    whose e has e_s <= e_t along every path answers without building the
    path prune list; the first query a prune could reject builds it."""
    from quiverrep.quiver import d4_subspace

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle constructor eliminated")

    cases = [
        (a_n(3), (2, 2, 2), F2, (1, 1, 2), (2, 1, 1)),
        (Quiver(3, ((1, 0), (1, 2))), (2, 1, 2), F3, (1, 0, 2), (1, 1, 0)),
        (d4_subspace(), (2, 1, 1, 1), GF(4), (1, 1, 1, 1), (2, 0, 1, 1)),
        (kronecker(3), (1, 2), GF(4), (1, 2), (1, 0)),
    ]
    for seed, (q, dims, field, flat, gap) in enumerate(cases):
        m = random_representation(q, dims, field, seed=seed)
        with monkeypatch.context() as patch:
            for name in ("rref_rows", "rank_rows", "matmul_rows"):
                patch.setattr(gflin, name, refuse)
            oracle = SubrepOracle(m)
        ref = _EagerOracle(m)
        assert oracle.count(flat) == ref.count(flat) and oracle.visits == ref.visits
        assert oracle._path_nullities is None, m.quiver.arrows
        assert oracle.count(gap) == ref.count(gap) and oracle.visits == ref.visits
        assert oracle._path_nullities == _firing(m, ref.eager_nullities), m.quiver.arrows


def _search_cases():
    """Seeded representations of A3, D4 and Kronecker(2) over F_2 (packed
    rows) and F_3 (tuple rows): five random ones per quiver and field,
    some with a zero-dimensional vertex, and two direct sums of two."""
    from quiverrep.quiver import d4_subspace

    rng = random.Random(59)
    for q, top in ((a_n(3), 3), (d4_subspace(), 2), (kronecker(2), 3)):
        for order in (2, 3):
            for _ in range(5):
                dims = [rng.randint(0, top) for _ in range(q.vertex_count)]
                if rng.randrange(3) == 0:
                    dims[rng.randrange(q.vertex_count)] = 0
                yield random_representation(q, tuple(dims), GF(order), seed=rng.randrange(10**6))
            for _ in range(2):
                parts = [
                    random_representation(
                        q, tuple(rng.randint(0, top - 1) for _ in range(q.vertex_count)), GF(order),
                        seed=rng.randrange(10**6),
                    )
                    for _ in range(2)
                ]
                yield direct_sum(parts)


def test_each_operation_searches_once_per_admitted_query(monkeypatch):
    """nonempty, count, enumerate and first_subrep go through the one
    search body, _dfs, once per query that _start admits and never for one
    it rejects (e above dim m, or refuted by the path prune).  The
    benchmark's tracer reads the visits off _dfs, so a second search path
    would hide its work."""
    calls = []
    real = SubrepOracle._dfs

    def recording(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SubrepOracle, "_dfs", recording)
    admitted = rejected = 0
    for m in _search_cases():
        oracle, judge = SubrepOracle(m), SubrepOracle(m)
        for e in itertools.product(*(range(d + 2) for d in m.dims)):
            searched = judge._start(e) is not None
            admitted += searched
            rejected += not searched
            for op in ("nonempty", "count", "enumerate", "first_subrep"):
                calls.clear()
                getattr(oracle, op)(e)
                assert calls == ([e] if searched else []), (op, m.dims, e)
    assert admitted > 300 and rejected > 300


@pytest.mark.parametrize("gf", [gflin.GF2_PACKED, gflin.gfq(3), gflin.gfq(4)], ids=lambda gf: f"F_{gf.q}")
def test_root_sandwiches_are_the_sandwiches_with_nothing_chosen(gf):
    """The table read at the root, one per (handle, dimension), holds
    exactly the sandwich the search computes with nothing assigned, at
    every vertex, zero-dimensional ones included, and for every e_v."""
    rng = random.Random(gf.q)
    seen = set()
    for q in (a_n(3), kronecker(2)):
        for _ in range(4):
            dims = tuple(rng.randint(0, 4) for _ in range(q.vertex_count))
            m = random_representation(q, dims, GF(gf.q), seed=rng.randrange(10**6))
            oracle = SubrepOracle(m)
            assert oracle.gf is gf
            for v, d in enumerate(dims):
                assert oracle.root_sandwiches[v] is grassmannian.root_sandwiches(gf, d)
                assert len(oracle.root_sandwiches[v]) == d + 1
                for k in range(d + 1):
                    assert oracle.root_sandwiches[v][k] == oracle._sandwich(v, k, {}), (dims, v, k)
                seen.add(d)
    assert 0 in seen and len(seen) >= 4


def _digest(rows) -> str:
    import hashlib
    import json

    return hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()[:16]


def _leaf_cols(bases):
    return None if bases is None else [[list(col) for col in b.transpose().rows] for b in bases]


# (digest, number of queries) of (answer, visits) over every e of
# `_search_cases`, per operation: a change to the vertex order, the
# candidate order or any charge moves them
SEARCH_DIGESTS = {
    "nonempty": ("221716e7ed584011", 462),
    "first_subrep": ("a873e0662bbe0737", 462),
    "count": ("0c76de3ad960e394", 462),
}


@pytest.mark.parametrize("op", sorted(SEARCH_DIGESTS))
def test_answers_and_visits_match_the_recorded_digest(op):
    rows = []
    for m in _search_cases():
        oracle = SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in m.dims)):
            got = getattr(oracle, op)(e)
            rows.append([_leaf_cols(got) if op == "first_subrep" else got, oracle.visits])
    assert (_digest(rows), len(rows)) == SEARCH_DIGESTS[op]


# ----------------------------------------------------------------------
# counting_poly keeps one oracle per reduction across e

KEPT_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def _fit(m, e, budget=grassmannian.DEFAULT_BUDGET):
    gc = counting_poly(m, e, KEPT_ORDERS, budget=budget, confirm=False)
    return gc.samples, gc.poly, gc.rejected, gc.visits


def _fresh_copy(m):
    """m without its cached reductions, so its fits build fresh oracles."""
    return Representation(m.quiver, m.field, m.dims, m.arrow_mats)


def _kept_cases():
    """Representations over Q whose fits through the seven orders succeed
    at every e: seeded direct sums of indecomposables on A3 and D4, and
    two Kronecker(2) ones, R(0) + R(1) and P(1, 2) + R(inf) (regular
    modules at rational points that no characteristic merges, and a
    preprojective)."""
    from quiverrep.dynkin import build_table
    from quiverrep.exactlin import Matrix
    from quiverrep.quiver import d4_subspace

    rng = random.Random(71)
    for q, summands in ((a_n(3), 3), (d4_subspace(), 2)):
        table = build_table(q, QQ, reduction_orders=KEPT_ORDERS)
        for _ in range(2):
            yield assemble(table, {root: 1 for root in rng.sample(table.roots, summands)})
    k2 = kronecker(2)
    yield Representation(k2, QQ, (2, 2), [Matrix.identity(QQ, 2), Matrix(QQ, [[0, 0], [0, 1]])])
    yield Representation(
        k2, QQ, (2, 3), [Matrix(QQ, [[1, 0], [0, 0], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0], [0, 1]])]
    )


def _kept_oracles(m):
    """The oracle kept on each reduction of m, by order, where one is."""
    reduced = rep.reductions(m, KEPT_ORDERS).items()
    return {q: x._oracle for q, x in reduced if getattr(x, "_oracle", None) is not None}


def test_kept_oracles_match_fresh_ones():
    """counting_poly at every e in turn, and again in reverse, gives the
    samples, polynomial and per-order visits that fresh oracles give, and
    runs every e of an order on the one oracle kept on its reduction."""
    for m in _kept_cases():
        es = list(itertools.product(*(range(d + 1) for d in m.dims)))
        want = {e: _fit(_fresh_copy(m), e) for e in es}
        kept = None
        for sweep in (es, es[::-1]):
            for e in sweep:
                assert _fit(m, e) == want[e], (m.quiver.arrows, m.dims, e)
                kept = kept or _kept_oracles(m)
                assert _kept_oracles(m) == kept
        assert len(kept) >= 4 and all(type(o) is SubrepOracle for o in kept.values())


def test_a_kept_oracle_honours_each_budget():
    """Once the kept oracles have answered every other e, a fit at e passes
    with its largest per-order visits as the budget and raises
    BudgetExceeded with one visit less."""
    checked = 0
    for m in _kept_cases():
        es = list(itertools.product(*(range(d + 1) for d in m.dims)))
        for e in es:
            _fit(m, e)
        for e in es:
            want = _fit(m, e)
            most = max(v for _, v in want[3])
            if not most:
                continue
            checked += 1
            assert _fit(m, e, budget=most) == want
            with pytest.raises(BudgetExceeded):
                _fit(m, e, budget=most - 1)
    assert checked > 50


def test_a_refused_count_leaves_the_kept_oracles_as_fresh_ones():
    """A fit refused by its budget after some orders have counted leaves
    nothing behind: later fits, the same e with a larger budget among them,
    equal those of fresh oracles."""
    refused = 0
    for m in _kept_cases():
        es = list(itertools.product(*(range(d + 1) for d in m.dims)))
        want = {e: _fit(_fresh_copy(m), e) for e in es}
        for e in es:
            visits = [v for _, v in want[e][3]]
            # a budget the first order meets and a later one exceeds
            budget = next((v - 1 for v in visits[1:] if visits[0] < v), None)
            if budget is None:
                continue
            refused += 1
            with pytest.raises(BudgetExceeded):
                _fit(m, e, budget=budget)
            assert _fit(m, e) == want[e]
            for other in es:
                assert _fit(m, other) == want[other], (m.dims, e, other)
            break
    assert refused >= 4


def test_kept_oracle_memos_stay_within_the_cap(monkeypatch, table_a3_f2):
    """Over acceptance 4's A3 fits (the irreducible e of a direct sum of
    indecomposables with multiplicities <= 2, admitted by the enumeration
    budget), every kept oracle's memos stay within the cap, and a
    candidate sequence keeps its enumeration only until it is complete;
    with the cap
    cut to 3, so that they are dropped again and again, every fit of a
    seeded third of them is unchanged."""
    import math

    from quiverrep.criteria import GrassmannianChecker
    from quiverrep.dynkin import build_table

    t_q = build_table(a_n(3), QQ, reduction_orders=KEPT_ORDERS)
    cases = []
    for mults in itertools.product(range(3), repeat=6):
        md = {root: k for root, k in zip(table_a3_f2.roots, mults) if k}
        checker = GrassmannianChecker(assemble(table_a3_f2, md), table_a3_f2)
        mq = assemble(t_q, md)
        for e in itertools.product(*(range(d + 1) for d in mq.dims)):
            v = checker.irreducible(e)
            # acceptance 4's orders: five, then 8 and 9 as the degree needs
            if not v.holds or v.context["dimension"] + 2 > len(KEPT_ORDERS):
                continue
            qs = KEPT_ORDERS[:max(5, v.context["dimension"] + 2)]
            if math.prod(gflin.gaussian_binomial(d, k, max(qs)) for d, k in zip(mq.dims, e)) <= 300000:
                cases.append((mq, e, qs))
    fits = [counting_poly(mq, e, qs) for mq, e, qs in cases]
    assert len(cases) > 900
    kept = {id(o): o for mq, _, _ in cases for o in _kept_oracles(mq).values()}
    assert len(kept) > 1000
    for oracle in kept.values():
        assert len(oracle._candidate_cache) <= grassmannian._MEMO_CAP
        assert len(oracle._preimage_cache) <= grassmannian._MEMO_CAP
        # a complete sequence keeps no enumeration to build more
        for (e_v, w_rows, bound), (built, build_next) in oracle._candidate_cache.items():
            total = gflin.gaussian_binomial(len(bound) - len(w_rows), e_v - len(w_rows), oracle.gf.q)
            assert (build_next is None) == (len(built) == total)
    monkeypatch.setattr(grassmannian, "_MEMO_CAP", 3)
    drops = 0
    real = grassmannian._memoize

    def memoize(memo, key, value):
        nonlocal drops
        drops += len(memo) == 3
        return real(memo, key, value)

    monkeypatch.setattr(grassmannian, "_memoize", memoize)
    copies = {}
    for i in sorted(random.Random(73).sample(range(len(cases)), len(cases) // 3)):
        mq, e, qs = cases[i]
        # one fresh copy per representation, whose oracles start empty and
        # are kept across its e
        x = copies.setdefault(id(mq), _fresh_copy(mq))
        gc = counting_poly(x, e, qs)
        assert (gc.samples, gc.poly, gc.visits) == (fits[i].samples, fits[i].poly, fits[i].visits)
        for oracle in _kept_oracles(x).values():
            assert len(oracle._candidate_cache) <= 3 and len(oracle._preimage_cache) <= 3
    assert drops > 50


def test_subrep_oracle_is_a_new_object_each_call():
    m = next(_kept_cases())
    _fit(m, (1, 1, 1))
    for x in rep.reductions(m, KEPT_ORDERS).values():
        if x is None:
            continue
        first, second = SubrepOracle(x), SubrepOracle(x)
        assert first is not second and x._oracle not in (first, second)
        assert first._candidate_cache == {} and first._preimage_cache == {}


@pytest.mark.parametrize("gf", [gflin.GF2_PACKED, gflin.gfq(3), gflin.gfq(4)], ids=lambda gf: f"F_{gf.q}")
def test_whole_space_candidates_are_the_rref_matrices(gf):
    """With no forced rows and the whole space as the bound, the candidate
    sequence is enumerate_rref's, which the general path (coefficients
    times the bound, eliminated) also gives."""
    for d in range(5):
        m = _zero_rep(Quiver(1, ()), (d,), GF(gf.q))
        oracle = SubrepOracle(m)
        whole = oracle.full_rows[0]
        for k in range(1, d + 1):
            built, build_next = oracle._candidate_source(0, k, (), whole)
            got = [build_next() for _ in range(gflin.gaussian_binomial(d, k, gf.q))]
            assert built == [] and got == list(gflin.enumerate_rref(gf, d, k))
            assert got == [gflin.rref_rows(gf, gflin.matmul_rows(gf, c, whole, d)) for c in got]
