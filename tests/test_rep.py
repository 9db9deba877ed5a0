import json
import random
import re

import pytest

from quiverrep import gflin
from quiverrep import rep as rep_module
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.quiver import Quiver, a_n, d4_subspace, euler_form, kronecker, opposite
from quiverrep.rep import (
    Morphism,
    Representation,
    build_injective,
    build_projective,
    direct_sum,
    dual,
    dual_morphism,
    ext_dim,
    hom_basis,
    hom_dim,
    hom_dims_mod,
    hom_evaluation_rows,
    hom_evaluations,
    identity_morphism,
    is_injective_morphism,
    is_surjective_morphism,
    load_rep,
    morphism_from_json,
    morphism_to_json,
    power,
    quotient,
    random_representation,
    reductions,
    rep_from_json,
    rep_to_json,
    save_rep,
    simple,
    socle_at,
)

F5 = GF(5)
A2 = a_n(2)
A3 = a_n(3)
K3 = kronecker(3)


def interval(q, i, j, field):
    """Equioriented interval module on path positions i..j (1-based)."""
    dims = tuple(1 if i <= v + 1 <= j else 0 for v in range(q.vertex_count))
    mats = []
    for s, t in q.arrows:
        if dims[s] and dims[t]:
            mats.append(Matrix.identity(field, 1))
        else:
            mats.append(Matrix.zeros(field, dims[t], dims[s]))
    return Representation(q, field, dims, mats)


def test_hom_simple_self():
    s = simple(A2, F5, 0)
    assert hom_dim(s, s) == 1
    # Hom systems without rows (0x1, 0x0) or without columns (1x0)
    simples = [simple(A2, F5, i) for i in range(2)]
    for i, x in enumerate(simples):
        for j, y in enumerate(simples):
            assert hom_dim(x, y) == hom_basis(x, y).dim == (i == j)
    assert ext_dim(simples[0], simples[1], cross_check=True) == 1
    # no arrows: every tuple of matrices intertwines, and the basis is the
    # standard one in the order of the flattened unknowns
    q = Quiver(2, ())
    x = random_representation(q, (2, 1), F5, seed=0)
    y = random_representation(q, (1, 3), F5, seed=1)
    basis = hom_basis(x, y)
    assert hom_dim(x, y) == basis.dim == 5
    assert ext_dim(x, y, cross_check=True) == 0
    flat = [[e for mat in phi.vertex_mats for e in mat.flatten()] for phi in basis.morphisms]
    assert flat == [[int(i == j) for j in range(5)] for i in range(5)]


def test_hom_evaluations_match_the_hom_basis():
    """hom_evaluations gives dim Hom(x, y) and, at each requested vertex,
    phi_v @ B_v for the Hom basis in hom_basis's order, on random pairs
    over F_2, F_3, F_4 and Q with zero-dimensional vertices, empty bases
    and Hom = 0 among them."""
    rng = random.Random(12)
    zero_homs = zero_vertices = 0
    for field in (GF(2), GF(3), GF(4), QQ):
        for q in (A3, d4_subspace(), K3):
            for _ in range(6):
                x, y = (
                    random_representation(
                        q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)), field,
                        seed=rng.randrange(10**6), box=3,
                    )
                    for _ in range(2)
                )
                verts = [v for v in range(q.vertex_count) if rng.random() < 0.7]
                bases = {
                    v: Matrix(
                        field,
                        [[field.random(rng, 3) for _ in range(b)] for _ in range(x.dims[v])],
                        ncols=b,
                    )
                    for v in verts
                    for b in [rng.randint(0, 2)]
                }
                basis = hom_basis(x, y)
                dim, evals = hom_evaluations(x, y, bases)
                assert dim == basis.dim == hom_dim(x, y)
                assert sorted(evals) == verts
                for v, b in bases.items():
                    assert evals[v] == [phi.vertex_mats[v] @ b for phi in basis.morphisms]
                    assert all(a.shape == (y.dims[v], b.ncols) for a in evals[v])
                zero_homs += dim == 0
                zero_vertices += sum(1 for v in verts if 0 in (x.dims[v], y.dims[v]))
    assert 10 <= zero_homs <= 60 and zero_vertices >= 50  # 72 pairs


def test_hom_evaluation_rows_span_the_hom_evaluations():
    """hom_evaluation_rows gives dim Hom(x, y) and, at each requested vertex,
    a table whose h chunks A_b^T span the same space of maps as
    hom_evaluations' phi_v @ B_v (the kernel bases may differ), over F_2
    (packed and tuple rows), F_3, F_4 and F_5, on A3, Kronecker(3) and the
    non-bipartite triangle, with End(x) among them (on the triangle a
    sign error in the equations shows there), zero-dimensional vertices,
    empty bases and Hom = 0.  A basis has at most x_v columns, as a socle
    basis does."""
    rng = random.Random(13)
    triangle = Quiver(3, ((0, 1), (1, 2), (0, 2)))
    pairs = []
    for gf in (gflin.GF2_PACKED, gflin.gfq(2), gflin.gfq(3), gflin.gfq(4), gflin.gfq(5)):
        field = GF(gf.q)
        for q in (A3, K3, triangle):
            for _ in range(5):
                x, y = (
                    random_representation(
                        q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)), field,
                        seed=rng.randrange(10**6),
                    )
                    for _ in range(2)
                )
                bases = {
                    v: Matrix(
                        field, [[field.random(rng) for _ in range(b)] for _ in range(x.dims[v])], ncols=b
                    )
                    for v in range(q.vertex_count)
                    for b in [rng.randint(0, min(2, x.dims[v]))]
                }
                pairs.append((gf, x, y if rng.random() < 0.5 else x, bases))
    dims = []
    for gf, x, y, bases in pairs:
        flat = gflin.gfq(gf.q)
        dim, evals = hom_evaluations(x, y, bases)
        h, tables = hom_evaluation_rows(gf, x, y, bases)
        assert h == dim and sorted(tables) == sorted(bases)
        for v, b in bases.items():
            s, w = b.ncols, y.dims[v]
            rows = gflin.unpack_rows(gf, tables[v], h * w)
            assert len(rows) == s
            # A_b^T flattened row-major, from the table's chunks and from evals
            got = [[e for r in rows for e in r[k * w : (k + 1) * w]] for k in range(h)]
            want = [[a.rows[i][t] for t in range(s) for i in range(w)] for a in evals[v]]
            assert gflin.rref_rows(flat, got) == gflin.rref_rows(flat, want)
        dims.append(dim)
    assert dims.count(0) >= 10 and sum(d >= 2 for d in dims) >= 20  # 75 pairs


def test_hom_between_intervals_on_a3():
    u12 = interval(A3, 1, 2, F5)
    u23 = interval(A3, 2, 3, F5)
    assert hom_dim(u12, u23) == 0
    assert hom_dim(u23, u12) == 1
    basis = hom_basis(u23, u12)
    assert basis.dim == 1
    assert basis.morphisms[0].intertwines()


def test_hom_from_projective_is_vertex_dimension():
    rng = random.Random(0)
    for q in (A3, K3, d4_subspace()):
        for i in range(q.vertex_count):
            p = build_projective(q, i, F5)
            dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            x = random_representation(q, dims, F5, seed=rng.randrange(10**6))
            assert hom_dim(p, x) == dims[i]


def test_hom_into_injective_is_vertex_dimension():
    rng = random.Random(1)
    for q in (A3, d4_subspace()):
        for i in range(q.vertex_count):
            inj = build_injective(q, i, F5)
            dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            x = random_representation(q, dims, F5, seed=rng.randrange(10**6))
            assert hom_dim(x, inj) == dims[i]


def test_hom_dims_mod_matches_hom_dim_per_characteristic():
    rng = random.Random(21)
    reps = []
    for q in (A3, d4_subspace(), kronecker(2)):
        for _ in range(8):
            dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            box = rng.choice((1, 1, 3))
            reps.append(random_representation(q, dims, QQ, seed=rng.randrange(2**31), box=box))
    x = random_representation(A3, (2, 2, 1), QQ, seed=5, box=1)
    first = Matrix(QQ, [["1/3", *x.arrow_mats[0].rows[0][1:]], x.arrow_mats[0].rows[1]])
    third = Representation(A3, QQ, x.dims, [first, x.arrow_mats[1]])
    stuck = Representation(A2, QQ, (1, 1), [Matrix(QQ, [[2]])])
    reps += [third, stuck]
    decided = 0
    for primes in ((2, 3, 5, 7), (2,), (3, 5)):
        for x in reps:
            got = hom_dims_mod(x, x, primes)
            if got is None:
                continue
            decided += 1
            assert got == {p: hom_dim(x.change_field(GF(p)), x.change_field(GF(p))) for p in primes}
    assert decided >= len(reps) * 2
    # 1/3 has no residue mod 3; 2 is a nonzero non-unit mod 210, zero mod 2
    # and a unit mod 15
    assert hom_dims_mod(third, third, (2,)) is not None
    assert hom_dims_mod(third, third, (3, 5)) is None
    assert hom_dims_mod(third, third, (2, 3, 5, 7)) is None
    assert hom_dims_mod(stuck, stuck, (2, 3, 5, 7)) is None
    assert hom_dims_mod(stuck, stuck, (2,)) == {2: 2}
    assert hom_dims_mod(stuck, stuck, (3, 5)) == {3: 1, 5: 1}


def _reductions_by_hom_dim(x, orders):
    """The reference for `reductions`: each order's reduction, kept when
    `hom_dim` over that field finds the End dimension of x over Q."""
    end = hom_dim(x, x)
    out = {}
    for q in orders:
        y = x.change_field(GF(q))
        out[q] = y if hom_dim(y, y) == end else None
    return out


def test_reductions_match_hom_dim_on_every_order():
    rng = random.Random(19)
    reps = []
    for q in (A3, d4_subspace(), kronecker(2)):
        for _ in range(6):
            dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            box = rng.choice((1, 1, 3))
            reps.append(random_representation(q, dims, QQ, seed=rng.randrange(2**31), box=box))
    x = random_representation(A3, (2, 2, 1), QQ, seed=5, box=1)
    first = Matrix(QQ, [["1/3", *x.arrow_mats[0].rows[0][1:]], x.arrow_mats[0].rows[1]])
    third = Representation(A3, QQ, x.dims, [first, x.arrow_mats[1]])
    stuck = Representation(A2, QQ, (1, 1), [Matrix(QQ, [[2]])])
    reps += [third, stuck]
    rejected = 0
    for orders in ((2, 3, 4, 5, 7, 8, 9), (4, 8, 9), (9, 5, 4), (8,)):
        for x in reps:
            try:
                expected = _reductions_by_hom_dim(x, orders)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    reductions(x, orders)
                continue
            got = reductions(x, orders)
            assert list(got) == list(orders)
            assert got == expected
            rejected += sum(y is None for y in got.values())
    assert rejected
    # [[2]] is zero mod 2, so End jumps from 1 to 2 over F_2, F_4 and F_8
    got = reductions(stuck, (2, 3, 4, 8, 9))
    assert [q for q, y in got.items() if y is None] == [2, 4, 8]
    assert got[9].field == GF(9) and got[9].arrow_mats[0].rows == ((2,),)
    with pytest.raises(ValueError, match="^denominator of 1/3 not invertible mod 3$"):
        reductions(third, (2, 9))


def test_no_end_is_computed_over_an_extension_field(monkeypatch):
    import sys

    from quiverrep.dynkin import build_table
    from quiverrep.grassmannian import counting_poly
    from quiverrep.stable import check_stabilization

    real = hom_dim

    def prime_fields_only(x, y):
        if x.field.is_finite and x.field.degree > 1:
            raise AssertionError(f"dim Hom computed over {x.field.name}")
        return real(x, y)

    for name, module in list(sys.modules.items()):
        if name.startswith("quiverrep") and getattr(module, "hom_dim", None) is real:
            monkeypatch.setattr(module, "hom_dim", prime_fields_only)
    stuck = Representation(A2, QQ, (1, 1), [Matrix(QQ, [[2]])])
    for modular in (True, False):
        if not modular:  # the fallback: one hom_dim per characteristic
            monkeypatch.setattr(rep_module, "hom_dims_mod", lambda x, y, primes: None)
        gc = counting_poly(stuck, (0, 1), [2, 3, 4, 5, 7, 8, 9])
        assert gc.rejected == [2, 4, 8] and gc.poly == [1]
        t = build_table(A3, QQ, reduction_orders=(2, 3, 4, 5, 7, 8, 9))
        assert t.size == 6
        for q_enum in (4, 9):
            report = check_stabilization(
                build_projective(K3, 0, QQ), (2, 1), r_range=range(1, 3), samples=4, q_enum=q_enum
            )
            assert report.hypothesis_field == f"F_{q_enum}"


def test_ext_examples():
    s1, s2 = simple(A2, F5, 0), simple(A2, F5, 1)
    # S_2 sits at the sink and is projective; the nonsplit extension is on
    # the other side
    assert ext_dim(s2, s1, cross_check=True) == 0
    assert ext_dim(s1, s2, cross_check=True) == 1
    p = build_projective(A3, 0, F5)
    x = random_representation(A3, (2, 1, 2), F5, seed=3)
    assert ext_dim(p, x, cross_check=True) == 0


def test_euler_identity_on_random_pairs():
    rng = random.Random(2)
    for q in (A2, A3, K3, d4_subspace()):
        n = q.vertex_count
        for field in (QQ, F5):
            for _ in range(10):
                dx = tuple(rng.randint(0, 3) for _ in range(n))
                dy = tuple(rng.randint(0, 3) for _ in range(n))
                x = random_representation(q, dx, field, seed=rng.randrange(10**6), box=5)
                y = random_representation(q, dy, field, seed=rng.randrange(10**6), box=5)
                assert hom_dim(x, y) - ext_dim(x, y, cross_check=True) == euler_form(q, dx, dy)


def test_ext_requires_acyclic():
    cyc = __import__("quiverrep.quiver", fromlist=["Quiver"]).Quiver(2, ((0, 1), (1, 0)))
    x = random_representation(cyc, (1, 1), F5, seed=0)
    with pytest.raises(ValueError):
        ext_dim(x, x)


def test_socle_examples():
    s1 = simple(A2, F5, 0)
    assert socle_at(s1, 0).ncols == 1
    u12 = interval(A2, 1, 2, F5)
    assert socle_at(u12, 0).ncols == 0
    assert socle_at(u12, 1).ncols == 1
    # P_i of K_3: the three arrow maps are jointly injective at the source
    p = build_projective(K3, 0, F5)
    assert socle_at(p, 0).ncols == 0
    assert socle_at(p, 1).ncols == 3


def test_socle_matches_hom_from_simple():
    rng = random.Random(3)
    for q in (A3, K3):
        for _ in range(10):
            dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            x = random_representation(q, dims, F5, seed=rng.randrange(10**6))
            for i in range(q.vertex_count):
                assert socle_at(x, i).ncols == hom_dim(simple(q, F5, i), x)


def test_socle_additive_over_sums():
    rng = random.Random(4)
    for _ in range(5):
        dims = tuple(rng.randint(0, 3) for _ in range(3))
        x = random_representation(A3, dims, F5, seed=rng.randrange(10**6))
        y = random_representation(A3, dims, F5, seed=rng.randrange(10**6))
        s = direct_sum([x, y])
        for i in range(3):
            assert socle_at(s, i).ncols == socle_at(x, i).ncols + socle_at(y, i).ncols


def test_quotient_by_zero_is_isomorphic_copy():
    x = random_representation(A3, (2, 2, 1), F5, seed=7)
    zero_sub = [Matrix.zeros(F5, d, 0) for d in x.dims]
    q, proj = quotient(x, zero_sub)
    assert q.dims == x.dims
    assert is_injective_morphism(proj) and is_surjective_morphism(proj)


def test_quotient_by_socle_drops_dimension():
    x = random_representation(A3, (2, 2, 2), F5, seed=8)
    i = 2
    soc = socle_at(x, i)
    sub = [soc if v == i else Matrix.zeros(F5, x.dims[v], 0) for v in range(3)]
    q, proj = quotient(x, sub)
    assert q.dims[i] == x.dims[i] - soc.ncols
    assert is_surjective_morphism(proj)
    # kernel of the projection is exactly the subspace
    assert proj.vertex_mats[i].kernel_basis().ncols == soc.ncols
    assert (proj.vertex_mats[i] @ soc).is_zero()


def test_quotient_rejects_unstable_subspace():
    u12 = interval(A2, 1, 2, F5)
    sub = [Matrix.identity(F5, 1), Matrix.zeros(F5, 1, 0)]  # source line, not stable
    with pytest.raises(ValueError):
        quotient(u12, sub)


def test_quotient_left_exactness_inequality():
    rng = random.Random(5)
    from quiverrep.criteria import _random_stable_subspaces

    for _ in range(10):
        dims = tuple(rng.randint(1, 3) for _ in range(3))
        u = random_representation(A3, dims, F5, seed=rng.randrange(10**6))
        sub = _random_stable_subspaces(u, rng)
        v, _ = quotient(u, sub)
        dw = tuple(rng.randint(0, 2) for _ in range(3))
        w = random_representation(A3, dw, F5, seed=rng.randrange(10**6))
        assert hom_dim(v, w) <= hom_dim(u, w)


def test_direct_sum_and_power():
    p = build_projective(K3, 0, F5)
    assert power(p, 1) is p
    p2 = power(p, 2)
    assert p2.dims == (2, 6)
    assert power(p, 0).dims == (0, 0)
    x = random_representation(A2, (1, 2), F5, seed=11)
    y = random_representation(A2, (2, 1), F5, seed=12)
    assert hom_dim(power(x, 2), power(y, 2)) == 4 * hom_dim(x, y)


def test_morphism_validation_and_composition():
    u12 = interval(A2, 1, 2, F5)
    s2 = simple(A2, F5, 1)
    # inclusion of the sink simple
    inc = Morphism(s2, u12, [Matrix.zeros(F5, 1, 0), Matrix.identity(F5, 1)])
    assert is_injective_morphism(inc)
    assert not is_surjective_morphism(inc)
    ident = identity_morphism(u12)
    assert ident.compose(inc).vertex_mats == inc.vertex_mats
    with pytest.raises(ValueError):
        Morphism(simple(A2, F5, 0), u12, [Matrix.identity(F5, 1), Matrix.zeros(F5, 1, 0)])


def test_intertwining_rejects_bad_matrices():
    x = random_representation(A2, (2, 2), F5, seed=13)
    y = random_representation(A2, (2, 2), F5, seed=14)
    bad = [Matrix.identity(F5, 2), Matrix.identity(F5, 2)]
    if hom_dim(x, y) == 0:
        with pytest.raises(ValueError):
            Morphism(x, y, bad)


def test_random_representation_deterministic():
    a = random_representation(A3, (2, 2, 2), F5, seed=42)
    b = random_representation(A3, (2, 2, 2), F5, seed=42)
    assert a == b
    assert random_representation(A3, (0, 0, 0), F5, seed=0).total_dim == 0


def test_generic_a2_rep_is_indecomposable_mostly():
    hits = 0
    for seed in range(40):
        x = random_representation(A2, (1, 1), F5, seed=seed)
        if hom_dim(x, x) == 1:
            hits += 1
    assert hits > 20


def test_projective_dimensions():
    assert build_projective(K3, 0, F5).dims == (1, 3)
    assert build_projective(d4_subspace(), 0, F5).dims == (1, 1, 1, 1)
    assert build_projective(A3, 0, F5).dims == (1, 1, 1)
    with pytest.raises(ValueError):
        build_projective(__import__("quiverrep.quiver", fromlist=["Quiver"]).Quiver(1, ((0, 0),)), 0, F5)


def test_injective_dimensions():
    assert build_injective(K3, 1, F5).dims == (3, 1)
    assert build_injective(d4_subspace(), 1, F5).dims == (1, 1, 0, 0)


def test_dual_involution():
    x = random_representation(d4_subspace(), (2, 1, 2, 1), F5, seed=21)
    assert dual(dual(x)) == x
    assert dual(x).quiver == opposite(d4_subspace())


def test_dual_morphism_swaps_inj_surj():
    u12 = interval(A2, 1, 2, F5)
    s2 = simple(A2, F5, 1)
    inc = Morphism(s2, u12, [Matrix.zeros(F5, 1, 0), Matrix.identity(F5, 1)])
    d = dual_morphism(inc)
    assert is_surjective_morphism(d)
    assert not is_injective_morphism(d)


def test_composition_preserves_intertwining():
    rng = random.Random(6)
    for _ in range(5):
        x = random_representation(A3, (2, 2, 1), F5, seed=rng.randrange(10**6))
        y = random_representation(A3, (1, 2, 2), F5, seed=rng.randrange(10**6))
        z = random_representation(A3, (2, 1, 2), F5, seed=rng.randrange(10**6))
        bxy = hom_basis(x, y)
        byz = hom_basis(y, z)
        if bxy.dim and byz.dim:
            f = bxy.combination([F5.random(rng) for _ in range(bxy.dim)])
            g = byz.combination([F5.random(rng) for _ in range(byz.dim)])
            assert g.compose(f).intertwines()


def test_rep_json_roundtrip(tmp_path):
    for field in (QQ, F5, GF(4)):
        x = random_representation(K3, (2, 3), field, seed=33, box=7)
        data = json.loads(json.dumps(rep_to_json(x)))
        assert rep_from_json(data) == x
    x = random_representation(A3, (1, 0, 2), QQ, seed=34)
    path = tmp_path / "rep.json"
    save_rep(x, path)
    assert load_rep(path) == x


def test_morphism_json_roundtrip(tmp_path):
    u12 = interval(A2, 1, 2, F5)
    s2 = simple(A2, F5, 1)
    inc = Morphism(s2, u12, [Matrix.zeros(F5, 1, 0), Matrix.identity(F5, 1)])
    data = json.loads(json.dumps(morphism_to_json(inc)))
    assert morphism_from_json(data) == inc


def test_morphism_json_rejects_malformed_structure():
    u12 = interval(A2, 1, 2, F5)
    s2 = simple(A2, F5, 1)
    data = morphism_to_json(Morphism(s2, u12, [Matrix.zeros(F5, 1, 0), Matrix.identity(F5, 1)]))
    malformed = (
        data | {"vertex_matrices": 5},
        data | {"vertex_matrices": [5, 5]},
        data | {"vertex_matrices": [[]]},
        data | {"vertex_matrices": [[[]], [[1, 0]]]},
        data | {"vertex_matrices": [[], [[1]], [[1]]]},
        data | {"target": rep_to_json(simple(a_n(1), F5, 0))},
        [data],
    )
    for bad in malformed:
        with pytest.raises(ValueError):
            morphism_from_json(bad)


def test_rep_json_rejects_bad_shapes():
    x = random_representation(A2, (1, 1), F5, seed=1)
    data = rep_to_json(x)
    data["dims"] = [1, 2]
    with pytest.raises(ValueError):
        rep_from_json(data)
