"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime cap.

Several suites are shared: the type-A3 family assembled from indecomposables
with multiplicities <= 2 (evaluated over F_2, with reduction-stable rational
lifts for point counting) and 50 seeded D4 representations of total
dimension <= 8.  Counting-polynomial checks admit cases by the enumeration
budget; refusals are counted and reported, never silently dropped.
"""

import itertools
import math
import random
import time

import pytest

from quiverrep import gflin
from quiverrep.criteria import (
    CheckConfig,
    GrassmannianChecker,
    an_criterion,
    check_dual_surjection,
    check_nc2,
)
from quiverrep.dynkin import assemble, build_table
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.fixtures import d4_p1, d4_x, kronecker3_g, kronecker3_m, kronecker3_pi
from quiverrep.grassmannian import SubrepOracle, counting_poly
from quiverrep.quiver import a_n, d4_subspace, euler_form, kronecker, opposite
from quiverrep.rep import (
    dual,
    ext_dim,
    hom_dim,
    is_injective_morphism,
    random_representation,
)
from quiverrep.stable import (
    ZSpace,
    check_stabilization,
    check_z_hypothesis,
    find_injective_block,
    search_stable_embedding,
    z_to_kronecker,
)

pytestmark = pytest.mark.slow

F2, F3, F4, F5 = GF(2), GF(3), GF(4), GF(5)
A3 = a_n(3)
D4 = d4_subspace()
COUNT_ORDERS = (2, 3, 4, 5, 7)
CONFIRM_ORDERS = (8, 9)
COUNT_BUDGET = 300000


def _report(number: int, elapsed: float, limit: float, text: str):
    line = f"ACCEPTANCE {number}: PASS in {elapsed:.1f}s (limit {limit:.0f}s) - {text}"
    print(line)
    assert elapsed < limit, f"criterion {number} exceeded its runtime cap: {elapsed:.1f}s"


# ----------------------------------------------------------------------
# Shared suites


@pytest.fixture(scope="module")
def a3_tables():
    t_f2 = build_table(A3, F2, seed=0)
    t_q = build_table(A3, QQ, seed=0, reduction_orders=COUNT_ORDERS + CONFIRM_ORDERS)
    return t_f2, t_q


@pytest.fixture(scope="module")
def a3_suite(a3_tables):
    """All multisets of A3 indecomposables with multiplicities <= 2,
    assembled over F_2 and (matching multiset) over Q."""
    t_f2, t_q = a3_tables
    roots = t_f2.roots
    suite = []
    for mults in itertools.product(range(3), repeat=6):
        md = {roots[i]: m for i, m in enumerate(mults) if m}
        suite.append((md, assemble(t_f2, md), assemble(t_q, md)))
    return suite


@pytest.fixture(scope="module")
def d4_tables():
    return build_table(D4, F2, seed=0)


@pytest.fixture(scope="module")
def d4_suite():
    """50 seeded random D4 representations of total dimension <= 8.

    Sampled over Q with small entries and kept only when every reduction
    in the counting orders preserves the End dimension, so the same
    representation serves the F_2 oracle comparison and the point counts.
    """
    rng = random.Random(20240)
    suite = []
    attempt = 0
    while len(suite) < 50:
        attempt += 1
        dims = tuple(rng.randint(0, 3) for _ in range(4))
        if not 0 < sum(dims) <= 8:
            continue
        mq = random_representation(D4, dims, QQ, seed=90000 + attempt, box=1)
        end_q = hom_dim(mq, mq)
        try:
            reductions = [mq.change_field(GF(o)) for o in COUNT_ORDERS + CONFIRM_ORDERS]
        except ValueError:
            continue
        if any(hom_dim(r, r) != end_q for r in reductions):
            continue
        suite.append((mq, reductions[0]))
    return suite


# ----------------------------------------------------------------------
# Criterion 1: the Kronecker counterexample


def test_acceptance_1_kronecker_counterexample():
    t0 = time.time()
    # (a) the numerical condition holds even though P_i does not embed
    for f in (F2, F3):
        v = check_nc2(kronecker3_pi(f), kronecker3_m(f), CheckConfig())
        assert v.holds and v.conclusive
    # (b) no injective morphism P_i -> M: exhaustive over F_2 and F_3,
    # determinant identity over Q
    for f in (F2, F3):
        rep = search_stable_embedding(kronecker3_pi(f), kronecker3_m(f), r_max=1, trials=256, seed=0)
        assert not rep.found
        assert rep.per_r[0]["status"].startswith("impossible (exhaustive")
    repq = search_stable_embedding(kronecker3_pi(QQ), kronecker3_m(QQ), r_max=1, trials=0, seed=0)
    assert not repq.found
    assert repq.per_r[0]["status"] == "impossible (determinant identity)"
    # (c) the printed morphism g validates: injective with det g_j = 1
    g = kronecker3_g(QQ)
    assert is_injective_morphism(g)
    assert g.vertex_mats[1].det() == 1
    # (d) the search finds an embedding at r = 2 with the default budget
    found = search_stable_embedding(kronecker3_pi(F3), kronecker3_m(F3), r_max=2, trials=256, seed=0)
    assert found.found and found.r == 2
    assert is_injective_morphism(found.block_matrix)
    _report(1, time.time() - t0, 10, "Kronecker counterexample reproduced end to end")


# ----------------------------------------------------------------------
# Criterion 2: D4 field dependence


def test_acceptance_2_d4_field_dependence():
    t0 = time.time()
    over_f2 = search_stable_embedding(d4_p1(F2), d4_x(F2), r_max=2, trials=256, seed=0)
    assert over_f2.found and over_f2.r == 2
    assert over_f2.per_r[0]["status"].startswith("impossible (exhaustive")
    for f in (F3, F4):
        rep = search_stable_embedding(d4_p1(f), d4_x(f), r_max=2, trials=256, seed=0)
        assert rep.found and rep.r == 1
        assert rep.per_r[0]["status"] == "found (exhaustive)"
    for f in (F2, F3, F4):
        v = check_nc2(d4_p1(f), d4_x(f), CheckConfig())
        assert v.holds and v.conclusive
    _report(2, time.time() - t0, 30, "D4 embedding exists iff the field has >= 3 elements")


# ----------------------------------------------------------------------
# Criterion 3: subrepresentation criterion vs. enumeration oracle


def test_acceptance_3_gr1_oracle_equivalence(a3_tables, a3_suite, d4_tables, d4_suite):
    t0 = time.time()
    t_f2, _ = a3_tables
    checks = 0
    for _, m2, _ in a3_suite:
        checker = GrassmannianChecker(m2, t_f2)
        oracle = SubrepOracle(m2)
        for e in itertools.product(*(range(d + 1) for d in m2.dims)):
            assert checker.nonempty(e).holds == oracle.nonempty(e), (m2.dims, e)
            checks += 1
    a3_checks = checks
    for _, m2 in d4_suite:
        checker = GrassmannianChecker(m2, d4_tables)
        oracle = SubrepOracle(m2)
        for e in itertools.product(*(range(d + 1) for d in m2.dims)):
            assert checker.nonempty(e).holds == oracle.nonempty(e), (m2.dims, e)
            checks += 1
    _report(
        3,
        time.time() - t0,
        300,
        f"criterion = oracle on {a3_checks} A3 and {checks - a3_checks} D4 instances (100%)",
    )


# ----------------------------------------------------------------------
# Criterion 4: irreducibility criterion vs. counting polynomials


def _admission_orders(dim: int):
    """Orders used for the fit: the five required ones plus cheap
    confirmation orders when the degree needs them; None if even those
    cannot confirm."""
    qs = list(COUNT_ORDERS)
    for extra in CONFIRM_ORDERS:
        if len(qs) >= dim + 2:
            break
        qs.append(extra)
    return qs if len(qs) >= dim + 2 else None


def test_acceptance_4_gr2_counting_evidence(a3_tables, a3_suite, d4_tables, d4_suite):
    t0 = time.time()
    t_f2, _ = a3_tables
    cases = []
    for _, m2, mq in a3_suite:
        checker = GrassmannianChecker(m2, t_f2)
        for e in itertools.product(*(range(d + 1) for d in m2.dims)):
            v = checker.irreducible(e)
            if v.holds:
                cases.append((mq, e, v.context["dimension"]))
    for mq, m2 in d4_suite:
        checker = GrassmannianChecker(m2, d4_tables)
        for e in itertools.product(*(range(d + 1) for d in m2.dims)):
            v = checker.irreducible(e)
            if v.holds:
                cases.append((mq, e, v.context["dimension"]))
    refused_degree = refused_budget = 0
    fitted = 0
    for mq, e, dim in cases:
        qs = _admission_orders(dim)
        if qs is None:
            refused_degree += 1
            continue
        product = math.prod(
            gflin.gaussian_binomial(d, k, max(qs)) for d, k in zip(mq.dims, e)
        )
        if product > COUNT_BUDGET:
            refused_budget += 1
            continue
        gc = counting_poly(mq, e, qs, budget=10**7)
        assert gc.confirmed, (mq.dims, e)
        assert not gc.rejected, (mq.dims, e, gc.rejected)
        assert gc.poly_degree() == dim, (mq.dims, e, gc.poly, dim)
        assert gc.leading_coefficient() == 1, (mq.dims, e, gc.poly)
        fitted += 1
    assert fitted > 800
    _report(
        4,
        time.time() - t0,
        300,
        f"{fitted} counting polynomials monic of the predicted degree "
        f"({refused_budget} refused by the enumeration budget, "
        f"{refused_degree} beyond confirmable degree)",
    )


# ----------------------------------------------------------------------
# Criterion 5: the hereditary Euler identity


def test_acceptance_5_euler_identity():
    t0 = time.time()
    rng = random.Random(5050)
    quivers = [a_n(2), A3, D4, kronecker(3)]
    pairs = 0
    while pairs < 500:
        q = quivers[rng.randrange(4)]
        field = (QQ, F5)[rng.randrange(2)]
        nv = q.vertex_count
        dx = tuple(rng.randint(0, 3) for _ in range(nv))
        dy = tuple(rng.randint(0, 3) for _ in range(nv))
        x = random_representation(q, dx, field, seed=rng.randrange(2**31), box=9)
        y = random_representation(q, dy, field, seed=rng.randrange(2**31), box=9)
        hom = hom_dim(x, y)
        ext = ext_dim(x, y, cross_check=True)
        assert hom - ext == euler_form(q, dx, dy)
        pairs += 1
    _report(5, time.time() - t0, 120, "hom - ext = <.,.> exact on 500 seeded pairs")


# ----------------------------------------------------------------------
# Criterion 6: Auslander decomposition round trip


def test_acceptance_6_decomposition_roundtrip():
    t0 = time.time()
    from quiverrep.dynkin import decompose

    rng = random.Random(6060)
    recovered = 0
    for quiver_name, q in (("A3", A3), ("D4", D4)):
        table = build_table(q, F5, seed=1)
        for _ in range(100):
            mults = {r: rng.randint(0, 3) for r in table.roots}
            mults = {r: c for r, c in mults.items() if c}
            x = assemble(table, mults)
            assert decompose(x, table) == mults
            recovered += 1
    assert recovered == 200
    _report(6, time.time() - t0, 120, "200 multiplicity vectors recovered exactly")


# ----------------------------------------------------------------------
# Criterion 7: type A saturation, three ways


def test_acceptance_7_an_saturation(a3_tables, a3_suite):
    t0 = time.time()
    t_f2, _ = a3_tables
    index = {tuple(sorted(md.items())): m2 for md, m2, _ in a3_suite}
    squarefree = [m2 for md, m2, _ in a3_suite if all(c <= 1 for c in md.values())]
    cfg = CheckConfig()
    pairs = agree = holding = 0

    def three_way(n, m, seed):
        nonlocal pairs, agree, holding
        v_an = an_criterion(n, m, t_f2, seed=seed)
        v_nc2 = check_nc2(n, m, cfg)
        assert v_an.holds == v_nc2.holds, (n.dims, m.dims)
        if v_an.holds:
            emb = v_an.context["embedding"]
            assert is_injective_morphism(emb)
            assert emb.source.dims == n.dims and emb.target.dims == m.dims
            holding += 1
        pairs += 1
        agree += 1

    # every pair of squarefree representations
    for i, n in enumerate(squarefree):
        for j, m in enumerate(squarefree):
            three_way(n, m, seed=i * 64 + j)
    # a seeded sample of the full multiplicity-<=2 pair set
    rng = random.Random(7070)
    keys = list(index)
    for s in range(1200):
        n = index[keys[rng.randrange(len(keys))]]
        m = index[keys[rng.randrange(len(keys))]]
        three_way(n, m, seed=10**6 + s)
    assert agree == pairs
    _report(
        7,
        time.time() - t0,
        300,
        f"three-way agreement on {pairs} pairs ({holding} embeddings constructed and certified)",
    )


# ----------------------------------------------------------------------
# Criterion 8: stabilization of generic hom dimensions


def _sample_z_space(seed: int):
    r = random.Random(seed)
    v = r.randint(1, 4)
    w = r.randint(v, 4)
    k = r.randint(1, 4)
    for _ in range(64):
        mats = [
            Matrix(F5, [[r.randrange(5) for _ in range(v)] for _ in range(w)]) for _ in range(k)
        ]
        flat = Matrix(F5, [list(c.flatten()) for c in mats])
        if flat.rank() == k:
            return ZSpace(F5, v, w, tuple(mats))
    return None


def test_acceptance_8_stabilization():
    t0 = time.time()
    instances = []
    seed = 0
    while len(instances) < 20:
        seed += 1
        z = _sample_z_space(seed)
        if z is None:
            continue
        if check_z_hypothesis(z, 5).holds:
            instances.append((seed, z))
    inconclusive = 0
    for seed, z in instances:
        block = find_injective_block(z, r_max=8, trials=256, seed=seed)
        assert block.found and block.r <= 8, f"lemma search failed at seed {seed}"
        mk = z_to_kronecker(z)
        e = (z.dim - 1, 1)
        report = check_stabilization(
            mk, e, r_range=range(1, 9), samples=64, q_enum=5, seed=seed
        )
        if report.inconclusive:
            report = check_stabilization(
                mk, e, r_range=range(1, 9), samples=128, q_enum=5, seed=seed + 10**6
            )
            if report.inconclusive:
                inconclusive += 1
                continue
        assert report.threshold is not None and report.threshold <= 8
        for r, est, target in report.entries:
            if r >= report.threshold:
                assert est == target
    assert inconclusive <= 2, f"inconclusive rate {inconclusive}/20 over 10%"
    _report(
        8,
        time.time() - t0,
        300,
        f"20 Z-space instances stabilized (inconclusive after retry: {inconclusive})",
    )


# ----------------------------------------------------------------------
# Criterion 9: duality of the surjection criterion


def test_acceptance_9_duality():
    t0 = time.time()
    rng = random.Random(9090)
    cfg = CheckConfig()
    for _ in range(100):
        q = (a_n(2), A3)[rng.randrange(2)]
        nv = q.vertex_count
        du = tuple(rng.randint(0, 2) for _ in range(nv))
        dv = tuple(rng.randint(0, 2) for _ in range(nv))
        u = random_representation(q, du, F2, seed=rng.randrange(2**31))
        w = random_representation(q, dv, F2, seed=rng.randrange(2**31))
        direct = check_dual_surjection(u, w, cfg)
        transposed = check_nc2(dual(w), dual(u), cfg)
        assert direct.holds == transposed.holds
        assert dual(w).quiver == opposite(q)
    _report(9, time.time() - t0, 120, "dual surjection = transposed quotient estimate on 100 pairs")
