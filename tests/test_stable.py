import hashlib
import json
import random
from fractions import Fraction

import pytest

from quiverrep.exactlin import GF, QQ, FieldSpec, Matrix
from quiverrep.fixtures import (
    KRONECKER_M_MATRICES,
    d4_p1,
    d4_x,
    kronecker3_g,
    kronecker3_m,
    kronecker3_pi,
)
from quiverrep.quiver import a_n, kronecker
from quiverrep.rep import (
    Representation,
    build_projective,
    direct_sum,
    hom_basis,
    is_injective_morphism,
    random_representation,
    simple,
)
from quiverrep.stable import (
    GenericHomEstimate,
    ZSpace,
    _block_matrices,
    check_stabilization,
    check_z_hypothesis,
    find_injective_block,
    generic_hom,
    search_stable_embedding,
    z_to_kronecker,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


def z_from_int_matrices(field, v, w, mats):
    return ZSpace(field, v, w, tuple(Matrix(field, m) for m in mats))


def full_hom_z(field, v, w):
    mats = []
    for i in range(w):
        for j in range(v):
            m = [[0] * v for _ in range(w)]
            m[i][j] = 1
            mats.append(m)
    return z_from_int_matrices(field, v, w, mats)


# ----------------------------------------------------------------------
# Z-space hypothesis


def test_z_hypothesis_full_hom_space():
    z = full_hom_z(F3, 2, 3)
    v = check_z_hypothesis(z, 3)
    assert v.holds
    assert v.context["routes_agree"]


def test_z_hypothesis_single_rank_deficient_map():
    z = z_from_int_matrices(F3, 2, 2, [[[1, 0], [0, 0]]])
    v = check_z_hypothesis(z, 3)
    assert not v.holds
    # witness is a line inside the kernel
    u_rows = v.witness["U"]
    assert v.witness["dim_ZU"] < v.witness["dim_U"]
    mat = z.basis[0]
    for row in u_rows:
        assert all(x == 0 for x in (mat @ Matrix.column(mat.field, row)).col(0))


def test_z_hypothesis_kronecker_matrices():
    z = z_from_int_matrices(F5, 3, 3, KRONECKER_M_MATRICES)
    v = check_z_hypothesis(z, 5)
    assert v.holds  # the example is semistable, so the hypothesis holds
    assert v.context["kronecker_min_slope"] == 0


def test_z_hypothesis_requires_matching_field():
    z = full_hom_z(F3, 1, 1)
    with pytest.raises(ValueError, match="over F_5, but Z is over F_3"):
        check_z_hypothesis(z, 5)


@pytest.mark.parametrize("field", [F2, F5], ids=str)
def test_z_hypothesis_on_the_zero_space(field):
    # Z = 0 maps every U != 0 to 0; on the Kronecker side there are no
    # arrows, so every pair of subspaces is a subrepresentation and
    # dim N_2 - dim N_1 is least, -dim V, at (dim V, 0)
    for v_dim in (0, 1, 2):
        for w_dim in (0, 2):
            verdict = check_z_hypothesis(ZSpace(field, v_dim, w_dim, ()), field.order)
            assert verdict.holds == (v_dim == 0)
            assert verdict.context["kronecker_min_slope"] == -v_dim
            assert verdict.context["kronecker_min_slope_at"] == [v_dim, 0]
            if v_dim:
                assert verdict.witness["dim_U"] == 1 and verdict.witness["dim_ZU"] == 0


def _seeded_z_spaces():
    """Twelve Z-spaces over each of F_2, F_3, F_4 and F_5, with dim V and
    dim W in 0..4 and dim Z in 0..3: the zero space, dim V = 0 and
    dim W = 0 first, then seeded shapes and maps."""
    rng = random.Random(3434)
    for q in (2, 3, 4, 5):
        field = GF(q)
        shapes = [(0, 2, 0), (2, 0, 0), (3, 2, 0), (0, 0, 0)]
        shapes += [(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)) for _ in range(8)]
        for v, w, k in shapes:
            k = min(k, v * w)
            while True:
                mats = tuple(
                    Matrix(field, [[rng.randrange(q) for _ in range(v)] for _ in range(w)], ncols=v)
                    for _ in range(k)
                )
                try:
                    yield ZSpace(field, v, w, mats)
                    break
                except ValueError:  # dependent maps: draw again
                    continue


@pytest.mark.parametrize("exactlin_rref", [True, False], ids=["exactlin", "no-exactlin-rref"])
def test_z_hypothesis_verdicts_are_pinned(exactlin_rref, monkeypatch):
    """The verdicts' JSON over the seeded Z-spaces, by sha256 of the list
    of their `to_json()`, recorded when the subspace route still ran one
    exactlin elimination per subspace.  Without exactlin's elimination the
    verdicts are the same: the subspace route is nc2's gflin class scan and
    the Kronecker route the enumeration oracle."""
    spaces = list(_seeded_z_spaces())
    if not exactlin_rref:
        def no_rref(self):
            raise AssertionError("exactlin elimination in check_z_hypothesis")

        monkeypatch.setattr(Matrix, "rref", no_rref)
    verdicts = [check_z_hypothesis(z, z.field.order).to_json() for z in spaces]
    assert (len(verdicts), sum(v["holds"] for v in verdicts)) == (48, 22)
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "ed5f59fd39de6668edb8615d73d38696b87e4214b756c77c6955c74794107d94"


def test_z_space_validates_independence():
    with pytest.raises(ValueError):
        z_from_int_matrices(F3, 1, 1, [[[1]], [[2]]])


# ----------------------------------------------------------------------
# Injective block search


def test_find_block_injective_member():
    z = z_from_int_matrices(F5, 2, 2, [[[1, 0], [0, 1]]])
    report = find_injective_block(z, r_max=4, trials=16, seed=0)
    assert report.found and report.r == 1


def test_find_block_kronecker_needs_r_two():
    for field in (F5, QQ):
        z = z_from_int_matrices(field, 3, 3, KRONECKER_M_MATRICES)
        report = find_injective_block(z, r_max=4, trials=256, seed=0)
        assert report.found and report.r == 2
        assert report.block_matrix.rank() == 6
        assert report.per_r[0]["r"] == 1  # r = 1 exhausted without a find
    # over Q, r = 1 is ruled out by the determinant identity
    assert report.per_r[0]["status"] == "impossible (determinant identity)"


def test_find_block_soundness_on_failing_z():
    # dim Z(V) = 1 < 2 = dim V: every block image lies in a rank-r space,
    # so no F in M_{r x r}(Z) is ever injective
    z = z_from_int_matrices(F3, 2, 2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    assert not check_z_hypothesis(z, 3).holds
    report = find_injective_block(z, r_max=4, trials=64, seed=1)
    assert not report.found
    rng = random.Random(0)
    for r in (1, 2, 3):
        for _ in range(10):
            coeffs = [[[F3.random(rng) for _ in range(z.dim)] for _ in range(r)] for _ in range(r)]
            f_mat = _block_matrices(F3, [z.basis], [(z.w_dim, z.v_dim)], coeffs, r)[0]
            assert f_mat.rank() <= r < 2 * r


def test_find_block_impossible_shapes():
    z = full_hom_z(F3, 3, 2)
    report = find_injective_block(z, r_max=3, trials=8, seed=0)
    assert not report.found
    assert "no injective map" in report.reason


def _block_matrices_by_definition(field, bases, dims, coeffs, r: int) -> list:
    """Each vertex's r x r block matrix, block (s, t) the sum over l of
    coeffs[s][t][l] * bases[v][l], from whole-matrix arithmetic."""
    mats = []
    for basis, (rows, cols) in zip(bases, dims):
        block_rows = []
        for s in range(r):
            cells = []
            for t in range(r):
                block = Matrix.zeros(field, rows, cols)
                for c, b in zip(coeffs[s][t], basis):
                    block = block + b.scale(c)
                cells.append(block)
            block_rows.append(Matrix.hstack(cells))
        mats.append(Matrix.vstack(block_rows))
    return mats


@pytest.mark.parametrize("field", [F2, F3, GF(4), F5, QQ], ids=str)
def test_block_matrices_match_their_definition(field):
    rng = random.Random(17)

    def scalar():
        if field.is_rationals:
            return field.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return rng.randrange(field.order)

    # blocks with zero rows, zero columns or both, beside full ones
    dims = [(2, 3), (3, 1), (0, 2), (2, 0), (0, 0)]
    for r in (1, 2, 3):
        for h in range(4):
            bases = [
                [Matrix(field, [[scalar() for _ in range(c)] for _ in range(w)], ncols=c) for _ in range(h)]
                for w, c in dims
            ]
            coeffs = [[[scalar() for _ in range(h)] for _ in range(r)] for _ in range(r)]
            coeffs[0][r - 1] = [field.zero] * h  # a cell whose coefficients are all zero
            got = _block_matrices(field, bases, dims, coeffs, r)
            want = _block_matrices_by_definition(field, bases, dims, coeffs, r)
            assert got == want
            assert [m.shape for m in got] == [(r * w, r * c) for w, c in dims]


def test_block_and_representation_searches_agree():
    # Hom(k^2, k^2) on one vertex is the full Z-space, with the same basis
    # order, so both entry points run the same search
    z = full_hom_z(F2, 2, 2)
    n = Representation(a_n(1), F2, (2,), [])
    assert [phi.vertex_mats[0] for phi in hom_basis(n, n)] == list(z.basis)
    block = find_injective_block(z, r_max=2, trials=8, seed=0)
    emb = search_stable_embedding(n, n, r_max=2, trials=8, seed=0)
    for report in (block, emb):
        assert report.found and report.r == 1
        assert report.trials_used == 7
        assert report.per_r == [{"r": 1, "status": "found (exhaustive)"}]
    assert block.block_matrix == emb.block_matrix.vertex_mats[0]


# ----------------------------------------------------------------------
# Representation-level search


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


# search_stable_embedding(n, m, r_max=2) on the fixture pairs: (r,
# trials_used, statuses by r, sha256 of the report's sorted JSON, block
# matrices included), as the whole-matrix builder gave them
FIXTURE_SEARCHES = {
    ("Q", "kronecker3"): (2, 1, ["impossible (determinant identity)", "found (sampled)"],
                          "08f49327efde2e7e86df2cb2f0ef84862824a75ab6c9b1916c61c2ca3a9b47e4"),
    ("Q", "d4"): (1, 1, ["found (sampled)"],
                  "fdf2126ab34f69b45f266f73479690c0fda7c0c043ca1f449b58728a0214c7aa"),
    ("F_2", "kronecker3"): (2, 669, ["impossible (exhaustive)", "found (exhaustive)"],
                            "3a5f72e908403273d4895101702cc57bf621bda0079c546533d28d5cc73cc844"),
    ("F_2", "d4"): (2, 112, ["impossible (exhaustive)", "found (exhaustive)"],
                    "f67de078160a05d2498cbe7224c0fe58239a876b68af6e1df466e3b0ff91ea0f"),
    ("F_3", "kronecker3"): (2, 29, ["impossible (exhaustive)", "found (sampled)"],
                            "b5db241c7a249a01d37bcaea4869f42ebba414f745fa0ee5d2415d309b5d9c57"),
    ("F_3", "d4"): (1, 6, ["found (exhaustive)"],
                    "8c0094870e5d5dfa67fafb8c708da431f9b3d483247580aa99aa109f8257bb9f"),
    ("F_4", "kronecker3"): (2, 65, ["impossible (exhaustive)", "found (sampled)"],
                            "a056c7ac6358262fcc648e56ec0a36bc02f8aed6652297f4376f268f95dba172"),
    ("F_4", "d4"): (1, 7, ["found (exhaustive)"],
                    "fbf3772a13397da2eae7d8e3ed9351413a22253f567829ce40aeabbffb942802"),
}


def test_searches_combine_basis_maps_without_matrix_arithmetic(monkeypatch):
    """The block search sums its basis maps row by row: with Matrix.scale
    and Matrix + refused it still finds the recorded reports."""
    pairs = {"kronecker3": (kronecker3_pi, kronecker3_m), "d4": (d4_p1, d4_x)}
    inputs = {
        (field, pair): tuple(make(FieldSpec.parse(field)) for make in pairs[pair])
        for field, pair in FIXTURE_SEARCHES
    }
    z = z_from_int_matrices(F5, 2, 4, [[[2, 0], [3, 3], [3, 3], [1, 0]]])  # acceptance 8's first

    def refuse(*args, **kwargs):
        raise AssertionError("a basis map was combined by whole-matrix arithmetic")

    monkeypatch.setattr(Matrix, "scale", refuse)
    monkeypatch.setattr(Matrix, "__add__", refuse)
    for key, (r, used, statuses, digest) in FIXTURE_SEARCHES.items():
        report = search_stable_embedding(*inputs[key], r_max=2)
        assert report.found and is_injective_morphism(report.block_matrix), key
        assert (report.r, report.trials_used, [p["status"] for p in report.per_r]) == (r, used, statuses), key
        assert _digest(report) == digest, key
    block = find_injective_block(z, r_max=8, trials=256, seed=1)
    assert block.to_json() == {
        "found": True, "r": 1, "trials_used": 2, "seed": 1,
        "per_r": [{"r": 1, "status": "found (exhaustive)"}], "reason": None,
        "block_matrix": [["2", "0"], ["3", "3"], ["3", "3"], ["1", "0"]],
    }


def test_search_summand_found_at_one():
    n = random_representation(a_n(2), (1, 1), F5, seed=0)
    x = random_representation(a_n(2), (1, 1), F5, seed=1)
    m = direct_sum([n, x])
    report = search_stable_embedding(n, m, r_max=3, trials=64, seed=0)
    assert report.found and report.r == 1
    assert is_injective_morphism(report.block_matrix)


def test_search_refuses_a_smaller_target_vertex():
    # Hom(n, m) contains Hom(y, y) != 0, but n has dimension 3 at vertex 0
    # and m only 2, so no morphism n^r -> m^r is injective
    x = random_representation(a_n(2), (2, 1), F3, seed=0)
    y = random_representation(a_n(2), (1, 3), F3, seed=1)
    n, m = direct_sum([x, y]), direct_sum([y, y])
    assert hom_basis(n, m)
    report = search_stable_embedding(n, m, r_max=3, trials=8, seed=0)
    assert not report.found
    assert report.trials_used == 0 and report.per_r == []
    assert "no injective map" in report.reason


def test_search_zero_hom_refuses():
    s1 = simple(a_n(2), F5, 0)
    s2 = simple(a_n(2), F5, 1)
    report = search_stable_embedding(s2, s1, r_max=2, trials=8, seed=0)
    assert not report.found
    assert report.reason == "Hom(n, m) = 0"


def test_search_kronecker_certificates():
    # exhaustive impossibility at r = 1 over F_2 and F_3; found at r = 2
    for f in (F2, F3):
        report = search_stable_embedding(kronecker3_pi(f), kronecker3_m(f), r_max=2, trials=256, seed=0)
        assert report.found and report.r == 2
        assert report.per_r[0]["status"].startswith("impossible (exhaustive")
        assert is_injective_morphism(report.block_matrix)


def test_search_kronecker_rational_grid_certificate():
    report = search_stable_embedding(kronecker3_pi(QQ), kronecker3_m(QQ), r_max=2, trials=64, seed=0)
    assert report.found and report.r == 2
    assert report.per_r[0]["status"] == "impossible (determinant identity)"


def test_search_d4_field_dependence():
    p1q, xq = d4_p1, d4_x
    rep2 = search_stable_embedding(p1q(F2), xq(F2), r_max=2, trials=256, seed=0)
    assert rep2.found and rep2.r == 2
    assert rep2.per_r[0]["status"].startswith("impossible")
    for f in (F3, GF(4)):
        rep = search_stable_embedding(p1q(f), xq(f), r_max=2, trials=256, seed=0)
        assert rep.found and rep.r == 1


def test_paper_g_morphism_validates():
    g = kronecker3_g(QQ)
    assert is_injective_morphism(g)
    assert g.vertex_mats[1].det() == 1
    assert g.source.dims == (2, 6) and g.target.dims == (6, 6)


def test_hom_from_projective_into_counterexample_target():
    from quiverrep.rep import hom_dim

    assert hom_dim(kronecker3_pi(QQ), kronecker3_m(QQ)) == 3


def test_no_injective_p_to_m_at_r_one_means_rank_deficiency():
    # every morphism P_i -> M has a forced vertex-j matrix of rank < 3
    def kronecker3_determined_fj(field, a, b, c) -> Matrix:
        """The vertex-j matrix forced by a vertex-i vector (a, b, c) for maps
        P_i -> M; its determinant vanishes identically."""
        a, b, c = (field.coerce(x) for x in (a, b, c))
        z = field.zero
        return Matrix(field, ((a, z, b), (z, a, c), (field.neg(c), b, z)), validate=False)

    for a in range(3):
        for b in range(3):
            for c in range(3):
                fj = kronecker3_determined_fj(QQ, a, b, c)
                assert fj.rank() < 3


# ----------------------------------------------------------------------
# Generic hom estimates


def test_generic_hom_zero_target():
    m = kronecker3_m(F5)
    est = generic_hom(m, (0, 0), r=3, samples=8, seed=0)
    assert est.estimate == 0


def test_generic_hom_projective_exact():
    p = build_projective(kronecker(3), 0, F5)
    for r in (1, 2, 3):
        est = generic_hom(p, (2, 1), r=r, samples=4, seed=0)
        assert est.estimate == 2 * r  # hom(P_i, X) = dim X_i


def test_generic_hom_subadditive():
    m = kronecker3_m(F5)
    e = (2, 1)
    ests = {r: generic_hom(m, e, r=r, samples=24, seed=0).estimate for r in (1, 2, 3, 4)}
    for r in (1, 2):
        for s in (1, 2):
            assert ests[r + s] <= ests[r] + ests[s]


# ----------------------------------------------------------------------
# Stabilization


def test_stabilization_projective_case():
    p = build_projective(kronecker(3), 0, F5)
    report = check_stabilization(p, (2, 1), r_range=range(1, 5), samples=8, q_enum=5, seed=0)
    assert report.threshold == 1
    assert not report.inconclusive
    for r, est, target in report.entries:
        assert est == target


def test_stabilization_semistable_reaches_zero():
    m = kronecker3_m(F5)
    report = check_stabilization(m, (2, 1), r_range=range(1, 7), samples=32, q_enum=5, seed=0)
    assert report.e_of_m == 0
    assert report.threshold is not None
    assert not report.inconclusive


def test_nonpositive_samples_are_refused():
    m = kronecker3_m(F5)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="sample"):
            generic_hom(m, (2, 1), r=1, samples=samples)
        with pytest.raises(ValueError, match="sample"):
            check_stabilization(m, (2, 1), r_range=range(1, 3), samples=samples, q_enum=5)


def test_stabilization_refuses_violated_hypothesis():
    q = kronecker(2)
    from quiverrep.rep import Representation

    m = Representation(q, F5, (1, 1), [Matrix.zeros(F5, 1, 1), Matrix.zeros(F5, 1, 1)])
    with pytest.raises(ValueError):
        check_stabilization(m, (1, 1), r_range=range(1, 3), samples=4, q_enum=5, seed=0)


def test_stabilization_z_space_instances():
    rng = random.Random(0)
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        r = random.Random(seed)
        v = r.randint(1, 3)
        w = r.randint(v, 3)
        k = r.randint(1, 3)
        mats = [Matrix(F5, [[r.randrange(5) for _ in range(v)] for _ in range(w)]) for _ in range(k)]
        flat = Matrix(F5, [list(c.flatten()) for c in mats])
        if flat.rank() != k:
            continue
        z = ZSpace(F5, v, w, tuple(mats))
        if not check_z_hypothesis(z, 5).holds:
            continue
        mk = z_to_kronecker(z)
        report = check_stabilization(mk, (k - 1, 1), r_range=range(1, 9), samples=32, q_enum=5, seed=seed)
        assert report.threshold is not None and report.threshold <= 8
        block = find_injective_block(z, r_max=8, trials=128, seed=seed)
        assert block.found and block.r <= 8
        done += 1


def test_report_serialization():
    z = z_from_int_matrices(F5, 1, 1, [[[1]]])
    report = find_injective_block(z, r_max=2, trials=4, seed=0)
    data = report.to_json()
    assert data["found"] is True and data["r"] == 1
    est = GenericHomEstimate((1, 0), 2, 3, 5)
    assert est.samples == 5
