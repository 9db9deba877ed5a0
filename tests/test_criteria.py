import collections
import itertools
import random

import pytest

from quiverrep import criteria, gflin, rep
from quiverrep.criteria import (
    CheckConfig,
    GrassmannianChecker,
    Verdict,
    an_criterion,
    check_dual_surjection,
    check_grassmannian_irreducible,
    check_grassmannian_nonempty,
    check_nc2,
    is_semistable,
    CLASS_BUDGET,
    _check_nc2_subspaces,
    min_slope,
    _socle_rank_fn,
    path_order,
    _bracket_payload,
    _socles,
)
from quiverrep import dynkin
from quiverrep.dynkin import assemble, build_table, cached_table, decompose
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.fixtures import kronecker3_m, kronecker3_pi
from quiverrep.grassmannian import SubrepOracle
from quiverrep.quiver import Quiver, a_n, d4_subspace, euler_form, kronecker, opposite
from quiverrep.rep import (
    Representation,
    build_injective,
    build_projective,
    direct_sum,
    dual,
    hom_basis,
    hom_dim,
    is_injective_morphism,
    power,
    quotient,
    random_representation,
    simple,
    socle_at,
)
from quiverrep.stable import search_stable_embedding

F2, F3, F5 = GF(2), GF(3), GF(5)
A2, A3 = a_n(2), a_n(3)
ALT_A3 = Quiver(3, ((0, 1), (2, 1)))
ALT_A4 = Quiver(4, ((0, 1), (2, 1), (2, 3)))
MIXED_A5 = Quiver(5, ((0, 1), (1, 2), (3, 2), (3, 4)))


# ----------------------------------------------------------------------
# Subrepresentation existence criterion


def test_gr_nonempty_zero_e(table_a3_f2):
    m = random_representation(A3, (2, 1, 2), F2, seed=0)
    v = check_grassmannian_nonempty(m, (0, 0, 0), table_a3_f2)
    assert v.holds


def test_gr_nonempty_full_e(table_a3_f2):
    m = random_representation(A3, (2, 2, 1), F2, seed=1)
    assert check_grassmannian_nonempty(m, m.dims, table_a3_f2).holds


def test_gr_nonempty_failing_example(table_a2_f2):
    s1 = simple(A2, F2, 0)
    v = check_grassmannian_nonempty(s1, (0, 1), table_a2_f2)
    assert not v.holds
    assert v.witness["kind"] == "indecomposable"
    assert v.witness["root"] == [0, 1]  # the sink simple violates
    assert v.witness["hom"] == 0 and v.witness["euler"] == 1


def test_gr_nonempty_rejects_non_dynkin(table_a2_f2):
    m = random_representation(kronecker(2), (1, 1), F2, seed=0)
    with pytest.raises(ValueError):
        check_grassmannian_nonempty(m, (1, 1), table_a2_f2)


def test_gr_nonempty_monotone_under_sums(table_a3_f2):
    rng = random.Random(2)
    for _ in range(10):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        m = random_representation(A3, dims, F2, seed=rng.randrange(10**6))
        x = random_representation(A3, (1, 1, 1), F2, seed=rng.randrange(10**6))
        checker_m = GrassmannianChecker(m, table_a3_f2)
        checker_mx = GrassmannianChecker(direct_sum([m, x]), table_a3_f2)
        for e in itertools.product(*(range(d + 1) for d in dims)):
            if checker_m.nonempty(e).holds:
                assert checker_mx.nonempty(e).holds


def test_gr_nonempty_agrees_with_oracle(table_a3_f2, table_d4_f2):
    rng = random.Random(3)
    cases = [(A3, table_a3_f2, 12), (d4_subspace(), table_d4_f2, 8)]
    for q, table, n_reps in cases:
        for _ in range(n_reps):
            dims = tuple(rng.randint(0, 2) for _ in range(q.vertex_count))
            m = random_representation(q, dims, F2, seed=rng.randrange(10**6))
            checker = GrassmannianChecker(m, table)
            oracle = SubrepOracle(m)
            for e in itertools.product(*(range(d + 1) for d in dims)):
                assert checker.nonempty(e).holds == oracle.nonempty(e)


def _path(n):
    return tuple((i, i + 1) for i in range(n - 1))


# D5, E6 in two orientations, E7 and E8 (paths with a branch at the third
# vertex), beyond acceptance 3's A3 and D4
EXCEPTIONAL = {
    "D5": Quiver(5, ((0, 1), (0, 2), (0, 3), (3, 4))),
    "E6": Quiver(6, _path(5) + ((2, 5),)),
    "E6-alternating": Quiver(6, ((0, 1), (2, 1), (2, 3), (4, 3), (5, 2))),
    "E7": Quiver(7, _path(6) + ((2, 6),)),
    "E8": Quiver(8, _path(7) + ((2, 7),)),
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL))
def test_gr_nonempty_agrees_with_oracle_beyond_a3_and_d4(name):
    """The criterion equals the oracle over F_2 at every e of seeded direct
    sums of two to four indecomposables, of total dimension at most 14."""
    q = EXCEPTIONAL[name]
    table = build_table(q, F2)
    rng = random.Random(f"criterion-oracle:{name}")
    checks = 0
    for _ in range(3):
        mults, left, k = collections.Counter(), 14, rng.randint(2, 4)
        for i in range(k):
            # leave room for the summands still to come
            root = rng.choice([r for r in table.roots if sum(r) <= left - (k - 1 - i)])
            mults[root] += 1
            left -= sum(root)
        m = assemble(table, mults)
        checker, oracle = GrassmannianChecker(m, table), SubrepOracle(m)
        for e in itertools.product(*(range(d + 1) for d in m.dims)):
            assert checker.nonempty(e).holds == oracle.nonempty(e), (m.dims, e)
            checks += 1
    assert checks > 500


@pytest.mark.parametrize("quiver", [A3, a_n(4), d4_subspace()], ids=["A3", "A4", "D4"])
def test_gr_nonempty_above_dim_m_fails_at_a_projective(quiver):
    """An e above dim m needs no fallback witness: where e_v > m_v the
    projective P_v has [P_v, m] = m_v < e_v = <dim P_v, e>, so the scan's
    own witness is an indecomposable and a projective's entry fails."""
    table = cached_table(quiver, F2)
    rng = random.Random(4)
    dims = [tuple(rng.randint(0, 2) for _ in range(quiver.vertex_count)) for _ in range(20)]
    reps = [*table.reps, *(random_representation(quiver, d, F2, seed=rng.randrange(10**6)) for d in dims)]
    for m in reps:
        checker = GrassmannianChecker(m, table)
        for e in itertools.product(*(range(d + 2) for d in m.dims)):
            if all(map(int.__le__, e, m.dims)):
                continue
            v = checker.nonempty(e)
            assert v.context["dimension_count_failed"] and v.witness["kind"] == "indecomposable"
            assert any(not v.details[u]["ok"] for u in table.projective)


# ----------------------------------------------------------------------
# Irreducibility criterion


def test_gr_irreducible_point_case(table_a3_f2):
    inj = build_injective(A3, 1, F2)
    v = check_grassmannian_irreducible(inj, (0, 0, 0), table_a3_f2)
    assert v.holds
    assert v.context["dimension"] == 0
    assert v.context["sufficient_only"] is True


def test_gr_irreducible_projective_submodule_case(table_a3_f5):
    # an exact sequence P -> m -> I with a projective of dimension vector e
    from quiverrep.dynkin import generic_rep

    p = build_projective(A3, 1, F5)  # dims (0,1,1)
    i = build_injective(A3, 1, F5)  # dims (1,1,0)
    d = tuple(a + b for a, b in zip(p.dims, i.dims))
    m = generic_rep(A3, d, F5, table_a3_f5)
    v = check_grassmannian_irreducible(m, p.dims, table_a3_f5)
    assert v.holds
    assert v.context["dimension"] == euler_form(A3, p.dims, i.dims)


def test_gr_irreducible_cross_checked_by_counting(table_a3_f2, table_a3_q):
    from quiverrep.grassmannian import counting_poly

    m2 = assemble(table_a3_f2, {(1, 1, 1): 1, (0, 1, 0): 1})
    e = (0, 1, 1)
    v = check_grassmannian_irreducible(m2, e, table_a3_f2)
    if v.holds:
        dim = v.context["dimension"]
        mq = _m_over_q({(1, 1, 1): 1, (0, 1, 0): 1})
        gc = counting_poly(mq, e, [2, 3, 5, 7], confirm=False)
        assert gc.poly_degree() == dim
        assert gc.leading_coefficient() == 1


def _m_over_q(mults):
    def interval_q(i, j):
        dims = tuple(1 if i <= v + 1 <= j else 0 for v in range(3))
        mats = []
        for s, t in A3.arrows:
            if dims[s] and dims[t]:
                mats.append(Matrix.identity(QQ, 1))
            else:
                mats.append(Matrix.zeros(QQ, dims[t], dims[s]))
        return Representation(A3, QQ, dims, mats)

    span = {
        (1, 0, 0): (1, 1),
        (0, 1, 0): (2, 2),
        (0, 0, 1): (3, 3),
        (1, 1, 0): (1, 2),
        (0, 1, 1): (2, 3),
        (1, 1, 1): (1, 3),
    }
    parts = []
    for root, mult in sorted(mults.items()):
        parts.extend([interval_q(*span[root])] * mult)
    return direct_sum(parts)


def test_gr_irreducible_requires_e_below_dims(table_a3_f2):
    m = random_representation(A3, (1, 1, 1), F2, seed=0)
    with pytest.raises(ValueError):
        check_grassmannian_irreducible(m, (2, 0, 0), table_a3_f2)


# ----------------------------------------------------------------------
# The quotient estimate


def test_nc2_reflexive():
    for dims, seed in (((2, 2, 1), 4), ((1, 2, 1), 7)):
        n = random_representation(A3, dims, F2, seed=seed)
        v = check_nc2(n, n, CheckConfig())
        assert v.holds and v.conclusive


def test_nc2_kronecker_counterexample_pair():
    for f in (F2, F3):
        v = check_nc2(kronecker3_pi(f), kronecker3_m(f), CheckConfig())
        assert v.holds and v.conclusive


def test_nc2_failing_a2_example(table_a2_f2):
    u12 = assemble(table_a2_f2, {(1, 1): 1})
    m = direct_sum([simple(A2, F2, 0), simple(A2, F2, 1)])
    assert not check_nc2(u12, m).holds
    v = _check_nc2_subspaces(u12, m)
    assert not v.holds
    w = v.witness
    assert w["kind"] == "quotient"
    assert w["vertex"] == 1 and w["k"] == 1
    assert w["lhs"] == 1 and w["rhs"] == 0
    assert w["brackets"]["[n^k,n]"] == 1
    assert w["brackets"]["[n^k,m]"] == 1
    assert w["brackets"]["[n^k/S,m]"] == 1


def _projective_vectors(field, dim):
    """Nonzero vectors of F_q^dim with first nonzero coordinate 1, in
    lexicographic order of the full coefficient tuple."""
    q = field.order
    for first in range(dim):
        prefix = (0,) * first + (1,)
        for rest in itertools.product(range(q), repeat=dim - first - 1):
            yield prefix + rest


def _power_data(n: Representation, m: Representation, i: int, k: int):
    """n^k, its socle at vertex i, [n^k, n] and [n^k, m]."""
    nk = power(n, k)
    return nk, socle_at(nk, i), hom_dim(nk, n), hom_dim(nk, m)


def _simple_sub_quotient(nk: Representation, vertex: int, vec) -> Representation:
    """Quotient of nk by the simple subrepresentation spanned by `vec` at
    `vertex` (vec must lie in the socle there)."""
    f = nk.field
    sub = []
    for v in range(nk.quiver.vertex_count):
        if v == vertex:
            sub.append(Matrix.column(f, vec))
        else:
            sub.append(Matrix.zeros(f, nk.dims[v], 0))
    return quotient(nk, sub)[0]


def _check_nc2_vectors(n: Representation, m: Representation) -> Verdict:
    """The literal nc2 check, the oracle for the "subspaces" mode: socle
    vectors of n^k up to scalar (each projectively normalized coefficient
    vector once), for every k up to [S_i, n], each with its own quotient
    and Hom dimensions."""
    f = n.field
    details = []
    witness = None
    for i, soc in _socles(n).items():
        for k in range(1, soc.ncols + 1):
            nk, soc_k, hom_nk_n, hom_nk_m = _power_data(n, m, i, k)
            for coeffs in _projective_vectors(f, soc_k.ncols):
                quot = _simple_sub_quotient(nk, i, (soc_k @ Matrix.column(f, coeffs)).col(0))
                lhs = hom_nk_n - hom_dim(quot, n)
                rhs = hom_nk_m - hom_dim(quot, m)
                entry = _bracket_payload(i, k, list(coeffs), hom_nk_n, hom_nk_m, lhs, rhs)
                entry["ok"] = lhs <= rhs
                details.append(entry)
                if not entry["ok"] and witness is None:
                    witness = entry | {"kind": "quotient"}
    return Verdict(holds=witness is None, witness=witness, details=details)


def test_nonempty_only_checker_computes_hom_into_m_only(table_d4_f2, monkeypatch):
    calls = []
    real = criteria.hom_dim

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(criteria, "hom_dim", counting)
    m = random_representation(d4_subspace(), (2, 1, 1, 1), F2, seed=4)
    checker = GrassmannianChecker(m, table_d4_f2)
    for e in itertools.product(*(range(d + 1) for d in m.dims)):
        checker.nonempty(e)
    assert len(calls) == table_d4_f2.size  # [U, m] only
    checker.irreducible((1, 0, 0, 0))
    checker.irreducible((1, 1, 0, 0))
    assert len(calls) == table_d4_f2.size  # [m, U] from the multiplicities


E6 = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_checker_hom_from_m_matches_hom_dim(field):
    rng = random.Random(f"hom_from_m:{field}")
    for q in (a_n(3), d4_subspace(), E6):
        table = build_table(q, field)
        for k in range(6):
            d = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            m = random_representation(q, d, field, seed=k, box=3)
            checker = GrassmannianChecker(m, table)
            assert checker.hom_from_m == tuple(hom_dim(m, u) for u in table.reps), (q.arrows, d)


def test_checker_euler_rows_are_computed_once_per_table(monkeypatch):
    """The Euler rows on unit vectors depend only on the table: the first
    checker on a table computes them with euler_form, a second checker on
    the same table and the queries of both make no euler_form call."""
    table = build_table(d4_subspace(), F2)
    calls = []
    real = dynkin.euler_form
    monkeypatch.setattr(dynkin, "euler_form", lambda *args: calls.append(args) or real(*args))
    first = GrassmannianChecker(random_representation(d4_subspace(), (2, 1, 1, 1), F2, seed=1), table)
    assert len(calls) == 2 * table.size * 4
    calls.clear()
    second = GrassmannianChecker(random_representation(d4_subspace(), (3, 2, 1, 2), F2, seed=2), table)
    for checker in (first, second):
        checker.nonempty((1, 1, 0, 1))
        checker.irreducible((1, 0, 0, 1))
    assert second.euler_from_root is first.euler_from_root
    assert second.euler_into_root is first.euler_into_root
    assert calls == []


# (digest, number of verdicts) of `Verdict.to_json()` of nonempty and
# irreducible (or irreducible's ValueError) for every e <= dim m + 1 of the
# representations in `_checker_cases`, per field: every ledger entry, the
# witness and the context are pinned
CHECKER_DIGESTS = {
    "F_2": ("a21a7e332eff3c3a", 726),
    "F_3": ("52bbcce09768fb03", 726),
    "Q": ("8caa3116c2d480d6", 726),
}


def _checker_cases(field):
    """An A3 direct sum and the D4 fixture x, alone and plus a summand."""
    from quiverrep.fixtures import d4_x

    a3 = build_table(a_n(3), field)
    d4 = build_table(d4_subspace(), field)
    yield assemble(a3, {r: k for r, k in zip(a3.roots, (1, 0, 2, 1, 0, 1)) if k}), a3
    yield d4_x(field), d4
    yield direct_sum([d4_x(field), d4.reps[3]]), d4


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_checker_verdicts_match_the_recorded_digest(field):
    import hashlib
    import json

    rows = []
    for m, table in _checker_cases(field):
        checker = GrassmannianChecker(m, table)
        for e in itertools.product(*(range(d + 2) for d in m.dims)):
            rows.append(checker.nonempty(e).to_json())
            try:
                rows.append(checker.irreducible(e).to_json())
            except ValueError as exc:
                rows.append(str(exc))
    digest = hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()[:16]
    assert (digest, len(rows)) == CHECKER_DIGESTS[field.name]


# each Dynkin quiver in two orientations, with the dimension vector of the
# representation whose Grassmannians the memo tests query
EULER_MEMO_CASES = {
    "A3": (A3, (2, 3, 1)),
    "A3-alt": (ALT_A3, (1, 3, 2)),
    "D4": (d4_subspace(), (3, 1, 2, 1)),
    "D4-opp": (opposite(d4_subspace()), (2, 1, 1, 2)),
    "E6": (E6, (1, 1, 2, 1, 1, 1)),
    "E6-opp": (opposite(E6), (1, 2, 1, 1, 0, 1)),
}


@pytest.mark.parametrize("case", list(EULER_MEMO_CASES))
def test_euler_memo_entries_are_the_euler_form(case):
    """After nonempty and irreducible over a box of e with zeros and with e
    not below dim m, every memo entry is (<dim U, e>, <e, dim U>) by
    euler_form for every root, and every ledger's euler column is
    euler_form: <dim U, e> for nonempty, <e, dim U> for irreducible's
    family 1 and <dim U, dim m - e> for its family 2."""
    q, dims = EULER_MEMO_CASES[case]
    table = build_table(q, F2)
    m = random_representation(q, dims, F2, seed=7)
    checker = GrassmannianChecker(m, table)
    box = list(itertools.product(*(range(d + 1) for d in dims)))
    above = [tuple(d + (v == w) for w, d in enumerate(dims)) for v in range(q.vertex_count)]
    failed = 0
    for e in box + above:
        v = checker.nonempty(e)
        assert [r["euler"] for r in v.details] == [euler_form(q, root, e) for root in table.roots]
        if e in above:
            assert v.context["dimension_count_failed"] and not v.holds
            failed += 1
            continue
        rest = tuple(d - x for d, x in zip(dims, e))
        v = checker.irreducible(e)
        for row in v.details:
            want = euler_form(q, e, row["root"]) if row["family"] == 1 else euler_form(q, row["root"], rest)
            assert row["euler"] == want, (e, row)
        assert {row["family"] for row in v.details} <= {1, 2}
    assert failed == q.vertex_count and len(table._euler_memo) >= len(box)
    for e, (from_e, into_e) in table._euler_memo.items():
        assert from_e == tuple(euler_form(q, root, e) for root in table.roots), e
        assert into_e == tuple(euler_form(q, e, root) for root in table.roots), e


def test_euler_memo_keeps_at_most_its_bound():
    """More distinct e than EULER_MEMO_SIZE leave at most that many in the
    memo, the latest ones, and the answers do not change once the first
    entries are dropped."""
    table = build_table(A3, F2)
    checker = GrassmannianChecker(random_representation(A3, (2, 2, 2), F2, seed=3), table)
    side = 11
    box = list(itertools.product(range(side), repeat=3))
    assert len(box) > dynkin.EULER_MEMO_SIZE
    first = [checker.nonempty(e).to_json() for e in box]
    memo = table._euler_memo
    assert len(memo) == dynkin.EULER_MEMO_SIZE
    assert list(memo) == box[-dynkin.EULER_MEMO_SIZE:]
    assert [checker.nonempty(e).to_json() for e in box] == first
    assert len(memo) == dynkin.EULER_MEMO_SIZE


def _eager_rows(checker, e, kind):
    """The ledger rows of a nonempty or irreducible verdict, computed from
    hom_dim and euler_form as the checker once built them per query."""
    m, table, q = checker.m, checker.table, checker.m.quiver
    if kind == "nonempty":
        rows = []
        for root, u in zip(table.roots, table.reps):
            lhs, rhs = hom_dim(u, m), euler_form(q, root, e)
            rows.append({"root": list(root), "hom": lhs, "euler": rhs, "ok": lhs >= rhs})
        return rows
    rest = tuple(d - x for d, x in zip(m.dims, e))
    rows = []
    for family, skip in ((1, table.injective), (2, table.projective)):
        for i, (root, u) in enumerate(zip(table.roots, table.reps)):
            if i in skip:
                continue
            if family == 1:
                lhs, rhs = hom_dim(m, u), euler_form(q, e, root)
            else:
                lhs, rhs = hom_dim(u, m), euler_form(q, root, rest)
            rows.append({"family": family, "root": list(root), "hom": lhs, "euler": rhs, "ok": lhs <= rhs})
    return rows


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_lazy_ledger_reads_as_the_eager_one(field, monkeypatch):
    """A checker verdict builds its ledger when `details` is first read.
    Its details, to_json, == and repr are those of a Verdict built with
    the eager rows, whichever is read first; two reads of details give one
    list; and with the ledger builders raising, holds, witness and context
    still read, and only details fails."""
    cases = list(_checker_cases(field))
    queries = []
    for m, table in cases:
        checker = GrassmannianChecker(m, table)
        for e in itertools.product(*(range(d + 1) for d in m.dims)):
            queries += [(checker, e, "nonempty"), (checker, e, "irreducible")]
    assert len(queries) > 100
    kinds = collections.Counter()
    for checker, e, kind in queries:
        ask = getattr(checker, kind)
        eager_rows = _eager_rows(checker, e, kind)
        first = ask(e)
        eager = Verdict(holds=first.holds, witness=first.witness, details=eager_rows, context=first.context)
        failing = [row for row in eager_rows if not row["ok"]]
        assert first.holds == (not failing), (kind, e)
        if failing:
            assert {k: first.witness[k] for k in ("root", "hom", "euler")} == {
                k: failing[0][k] for k in ("root", "hom", "euler")
            }
        assert ask(e) == eager and eager == ask(e)
        assert repr(ask(e)) == repr(eager)
        assert ask(e).to_json() == eager.to_json()
        assert first.details == eager.details and first.details is first.details
        kinds[kind, first.holds] += 1
    assert all(kinds[kind, holds] for kind in ("nonempty", "irreducible") for holds in (True, False))

    def refuse(*args):
        raise AssertionError("ledger built")

    monkeypatch.setattr(criteria, "_nonempty_ledger", refuse)
    monkeypatch.setattr(criteria, "_irreducible_ledger", refuse)
    for checker, e, kind in queries[::7]:
        v = getattr(checker, kind)(e)
        assert v.holds == (v.witness is None) and v.context["e"] == list(e)
        with pytest.raises(AssertionError, match="ledger built"):
            v.details


def test_verdict_built_with_a_list_keeps_it():
    """A ledger given as a list is stored as given, and the default is a
    fresh empty list per verdict."""
    rows = [{"ok": True}]
    v = Verdict(holds=True, details=rows)
    assert v.details is rows
    a, b = Verdict(holds=True), Verdict(holds=True)
    assert a.details == [] and a.details is not b.details
    assert repr(a) == "Verdict(holds=True, witness=None, details=[], context={})"


def test_nc2_vector_and_subspace_modes_agree():
    rng = random.Random(5)
    for f in (F2, F3):
        for _ in range(12):
            dn = tuple(rng.randint(0, 2) for _ in range(2))
            dm = tuple(rng.randint(0, 2) for _ in range(2))
            n = random_representation(A2, dn, f, seed=rng.randrange(10**6))
            m = random_representation(A2, dm, f, seed=rng.randrange(10**6))
            v1 = check_nc2(n, m)
            v2 = _check_nc2_vectors(n, m)
            assert v1.holds == v2.holds
            if not v1.holds:
                assert v1.witness["vertex"] == v2.witness["vertex"]


def test_socle_rank_matches_its_definition():
    rng = random.Random(21)
    for gf in (gflin.GF2_PACKED, gflin.gfq(2), gflin.gfq(3), gflin.gfq(4)):
        q = gf.q
        f = GF(q)
        for _ in range(12):
            s, y = rng.randint(1, 3), rng.randint(0, 3)

            def act():
                return Matrix(f, [[rng.randrange(q) for _ in range(s)] for _ in range(y)], ncols=s)

            acts = [act() for _ in range(rng.randint(1, 3))]
            acts += [Matrix.zeros(f, y, s), acts[0] + acts[-1]]  # zero and dependent A_b
            # [A_1^T | ... | A_h^T]: row t holds column t of every A_b in turn
            table = gflin.pack_rows(
                gf, ([a.rows[r][t] for a in acts for r in range(y)] for t in range(s))
            )
            rank = _socle_rank_fn(gf, table, len(acts), y)
            # shuffled, a class may come before its prefix class, whose span
            # the memo then computes first
            classes = [c for l in range(1, s + 1) for c in gflin.enumerate_rref(gf, s, l)]
            rng.shuffle(classes)
            for coeffs in classes:
                ut = Matrix(f, gflin.unpack_rows(gf, coeffs, s)).transpose()
                assert rank(coeffs) == Matrix.hstack([a @ ut for a in acts]).rank()


def _hom_actions(n: Representation, y: Representation, socles) -> tuple[int, dict]:
    """dim Hom(n, y) and, at each socle vertex i, the actions
    A_b = phi_b,i soc_i of the morphisms phi_b of `hom_basis(n, y)`."""
    morphisms = hom_basis(n, y)
    return len(morphisms), {i: [phi.vertex_mats[i] @ soc for phi in morphisms] for i, soc in socles.items()}


def _check_nc2_exactlin_evaluations(n: Representation, m: Representation) -> Verdict:
    """The subspace scan on exactlin matrices, the oracle for the gflin scan:
    the same classes, each with zn and zm the rank of [A_1 U^T | ... |
    A_h U^T] over the actions `_hom_actions` gives."""
    f = n.field
    socles = _socles(n)
    hom_nn, acts_n = _hom_actions(n, n, socles)
    hom_nm, acts_m = _hom_actions(n, m, socles)
    details = []
    witness = None
    for i, soc in socles.items():
        for l in range(1, soc.ncols + 1):
            for coeffs in gflin.enumerate_rref(gflin.gfq(f.order), soc.ncols, l):
                ut = Matrix(f, coeffs).transpose()
                zn, zm = (
                    Matrix.hstack([a @ ut for a in acts[i]]).rank() if acts[i] else 0
                    for acts in (acts_n, acts_m)
                )
                vec = [list(r) for r in coeffs]
                entry = _bracket_payload(i, l, vec, l * hom_nn, l * hom_nm, zn, zm)
                entry["ok"] = zn <= zm
                details.append(entry)
                if not entry["ok"] and witness is None:
                    witness = entry | {"kind": "quotient"}
    context = {
        "criterion": "nc2",
        "mode": "subspaces",
        "field": f.name,
        "conclusive": True,
        "checked": len(details),
    }
    return Verdict(holds=witness is None, witness=witness, details=details, context=context)


def _assert_closed_scan(got: dict, full: dict, label) -> None:
    """`got` is the full scan's verdict JSON `full` as the closed-class scan
    reports it: the ledger cut to the End(n)-closed classes (lhs = zn(U)
    equal to k = dim U), the witness the first failing one of those, and
    holds and context, `checked` included, as they are."""
    details = [e for e in full["details"] if e["lhs"] == e["k"]]
    failing = [e for e in details if not e["ok"]]
    assert got["details"] == details, label
    assert got["holds"] == full["holds"] and got["context"] == full["context"], label
    assert got["witness"] == (failing[0] | {"kind": "quotient"} if failing else None), label


def test_nc2_scan_matches_exactlin_evaluation_oracle(monkeypatch):
    """The gflin scan's verdicts equal the exactlin oracle's, with the
    ledger cut to the closed classes, on seeded A3, D4 and Kronecker(2)
    pairs over F_2 (packed rows, and tuple rows with the table handle
    swapped in), F_3, F_4 and F_5, some with vertices of zero socle and
    some failing; and on Kronecker(3) pairs from the projective P_i, whose
    endomorphisms are the scalars, so that every class is closed."""
    rng = random.Random(31)
    pairs = zero_socles = failing = 0
    for f in (F2, F3, GF(4), F5):
        for q, top in ((A3, 2), (d4_subspace(), 2), (kronecker(2), 3 if f.order < 4 else 2)):
            for _ in range(9):
                n, m = (
                    random_representation(
                        q, tuple(rng.randint(0, top) for _ in range(q.vertex_count)), f,
                        seed=rng.randrange(10**6),
                    )
                    for _ in range(2)
                )
                full = _check_nc2_exactlin_evaluations(n, m).to_json()
                _assert_closed_scan(_check_nc2_subspaces(n, m).to_json(), full, (f, n.dims, m.dims))
                if f.order == 2:
                    with monkeypatch.context() as patch:
                        patch.setattr(gflin, "GF2_PACKED", gflin.gfq(2))
                        _assert_closed_scan(_check_nc2_subspaces(n, m).to_json(), full, (n.dims, m.dims))
                pairs += 1
                zero_socles += q.vertex_count - len(_socles(n))
                failing += not full["holds"]
    assert pairs >= 100 and zero_socles >= 20 and 10 <= failing <= pairs - 10  # 108, 167, 80
    scalar_failing = 0
    for f in (F3, GF(4)):
        n = build_projective(kronecker(3), 0, f)
        for _ in range(4):
            m = random_representation(kronecker(3), (rng.randint(0, 2), rng.randint(1, 3)), f,
                                      seed=rng.randrange(10**6))
            full = _check_nc2_exactlin_evaluations(n, m).to_json()
            got = _check_nc2_subspaces(n, m).to_json()
            _assert_closed_scan(got, full, (f, m.dims))
            # the sink socle is all of n_j = F^3: 27 classes over F_3, 43 over F_4
            classes = sum(gflin.gaussian_binomial(3, l, f.order) for l in (1, 2, 3))
            assert len(got["details"]) == got["context"]["checked"] == classes
            scalar_failing += not full["holds"]
    assert 0 < scalar_failing < 8  # 6


def test_nc2_closure_preserves_both_sides():
    """The identity the closed-class scan rests on, checked in exactlin on
    every class U: W = span{A_b u : b, u in U} over the End(n) actions,
    written in socle coordinates, has dim W = zn(U), is closed (zn(W) =
    dim W), has zm(W) = zm(U), and is in the ledger with those sides; the
    whole socle at each vertex is always there."""
    rng = random.Random(47)
    classes = not_closed = 0
    for f in (F2, F3, GF(4)):
        for q in (A3, d4_subspace(), kronecker(2)):
            for _ in range(8):
                n, m = (
                    random_representation(
                        q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)), f,
                        seed=rng.randrange(10**6),
                    )
                    for _ in range(2)
                )
                socles = _socles(n)
                _, acts_n = _hom_actions(n, n, socles)
                _, acts_m = _hom_actions(n, m, socles)
                ledger = {
                    (e["vertex"], tuple(map(tuple, e["socle_vector"]))): (e["lhs"], e["rhs"])
                    for e in _check_nc2_subspaces(n, m).details
                }

                def z_rank(acts, ut):
                    return Matrix.hstack([a @ ut for a in acts]).rank() if acts else 0

                for i, soc in socles.items():
                    s_i = soc.ncols
                    assert (i, gflin.identity_rows(gflin.gfq(f.order), s_i)) in ledger, (f, n.dims, i)
                    for l in range(1, s_i + 1):
                        for coeffs in gflin.enumerate_rref(gflin.gfq(f.order), s_i, l):
                            ut = Matrix(f, coeffs).transpose()
                            zn_u, zm_u = z_rank(acts_n[i], ut), z_rank(acts_m[i], ut)
                            # id is in End(n), so the images are socle vectors
                            w_cols = soc.solve_matrix(Matrix.hstack([a @ ut for a in acts_n[i]]))
                            red, pivots = w_cols.transpose().rref()
                            w_rows = red.rows[: len(pivots)]
                            wt = Matrix(f, w_rows, ncols=s_i).transpose()
                            assert len(w_rows) == zn_u >= l
                            assert z_rank(acts_n[i], wt) == len(w_rows)
                            assert z_rank(acts_m[i], wt) == zm_u
                            assert ledger[i, tuple(map(tuple, w_rows))] == (zn_u, zm_u)
                            classes += 1
                            not_closed += zn_u > l
    assert classes >= 300 and not_closed >= 100, (classes, not_closed)  # 307, 158


def test_nc2_ledger_lists_closed_classes_only():
    """The ledger lists the closed classes only, while `checked` counts
    every class: one entry for a semisimple n whose End is M_4(F_2), and
    every class for a Kronecker(3) brick, whose End is the scalars."""
    n = direct_sum([simple(A3, F2, 2)] * 4)
    v = _check_nc2_subspaces(n, n)
    assert v.holds and v.context["checked"] == 66  # sum_l [4, l]_2 = 15 + 35 + 15 + 1
    assert [(e["vertex"], e["k"]) for e in v.details] == [(2, 4)]
    brick = random_representation(kronecker(3), (2, 4), GF(4), seed=1)
    assert hom_dim(brick, brick) == 1 and _socles(brick)[1].ncols == 4
    v = _check_nc2_subspaces(brick, brick)
    assert v.holds and len(v.details) == v.context["checked"] == 528  # 85 + 357 + 85 + 1


def test_nc2_scan_makes_fewer_exactlin_eliminations_than_classes(monkeypatch):
    """Over a finite field the class scan, the Hom kernels and the action
    tables all run in gflin: exactlin builds no Hom system and makes at
    most one elimination per vertex (the socles), whatever the number of
    classes."""
    calls = []
    real = Matrix.rref

    def counting(self):
        calls.append(self.shape)
        return real(self)

    def refuse(x, y):
        raise AssertionError("finite-field nc2 must not build an exactlin Hom system")

    monkeypatch.setattr(Matrix, "rref", counting)
    monkeypatch.setattr(rep, "_hom_system", refuse)
    for f in (F2, F3, GF(4)):
        pairs = [
            (direct_sum([simple(A3, f, 2)] * 4),) * 2,  # semisimple: a 4-dim socle
            (
                random_representation(A3, (2, 2, 1), f, seed=4),
                random_representation(A3, (1, 2, 2), f, seed=5),
            ),
            (kronecker3_pi(f), kronecker3_m(f)),
        ]
        checked = []
        for n, m in pairs:
            calls.clear()
            v = _check_nc2_subspaces(n, m)
            assert v.details and len(calls) <= n.quiver.vertex_count
            checked.append(v.context["checked"])
        assert checked[0] >= 63  # the semisimple n: far more classes than eliminations


def _check_nc2_sampled_quotients(n: Representation, m: Representation, config: CheckConfig) -> Verdict:
    """The literal sampled nc2 check, the oracle for the "sampling" mode:
    the same draws, but every trial builds n^k, its socle, the quotient by
    the drawn socle vector and two Hom systems."""
    f = n.field
    rng = random.Random(config.seed)
    socles = _socles(n)
    powers: dict = {}
    details = []
    witness = None
    if socles:
        verts = sorted(socles)
        for _ in range(config.trials):
            i = verts[rng.randrange(len(verts))]
            s_i = socles[i].ncols
            k = rng.randint(1, s_i)
            if (i, k) not in powers:
                powers[i, k] = _power_data(n, m, i, k)
            nk, soc_k, hom_nk_n, hom_nk_m = powers[i, k]
            coeffs = [f.random(rng) for _ in range(soc_k.ncols)]
            if all(c == f.zero for c in coeffs):
                coeffs[0] = f.one
            quot = _simple_sub_quotient(nk, i, (soc_k @ Matrix.column(f, coeffs)).col(0))
            lhs = hom_nk_n - hom_dim(quot, n)
            rhs = hom_nk_m - hom_dim(quot, m)
            ok = lhs <= rhs
            entry = {
                "vertex": i,
                "k": k,
                "socle_vector": [str(c) for c in coeffs],
                "lhs": lhs,
                "rhs": rhs,
                "ok": ok,
            }
            details.append(entry)
            if not ok and witness is None:
                witness = entry | {"kind": "quotient"}
                break
    context = {
        "criterion": "nc2",
        "mode": "sampling",
        "field": f.name,
        "conclusive": witness is not None,
        "trials": config.trials,
    }
    return Verdict(holds=witness is None, witness=witness, details=details, context=context)


def test_nc2_sampling_matches_literal_quotients():
    """Over Q each sampled bracket is an evaluation rank on Hom(n, y); the
    verdicts, payloads included, equal those of the literal quotients on
    seeded A2, A3, D4, Kronecker(2) and Kronecker(3) pairs."""
    rng = random.Random(41)
    pairs = failing = 0
    for q in (A2, A3, d4_subspace(), kronecker(2), kronecker(3)):
        for _ in range(6):
            n, m = (
                random_representation(
                    q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)), QQ,
                    seed=rng.randrange(10**6), box=3,
                )
                for _ in range(2)
            )
            for config in (CheckConfig(), CheckConfig(trials=64, seed=3)):
                got = check_nc2(n, m, config).to_json()
                assert got == _check_nc2_sampled_quotients(n, m, config).to_json(), (n.dims, m.dims)
                failing += not got["holds"]
            pairs += 1
    assert pairs >= 30 and 5 <= failing <= 2 * pairs - 5


def test_nc2_builds_no_quotient_power_or_hom_basis(monkeypatch):
    """The subspace scan takes its brackets from the Hom kernel in gflin:
    no quotient, no power, no hom_basis and no hom_dim call.  The sampled
    mode over Q reads its actions off one hom_basis per target, Hom(n, n)
    and Hom(n, m), and builds no quotient or power either."""

    def refuse(*args, **kwargs):
        raise AssertionError("nc2 must not call this")

    real_basis = rep.hom_basis
    for module in (rep, criteria):
        for name in ("hom_basis", "quotient", "power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    calls, bases = [], []
    real = criteria.hom_dim
    monkeypatch.setattr(criteria, "hom_dim", lambda x, y: calls.append(1) or real(x, y))
    for field in (F2, F3, QQ):
        n = random_representation(A3, (2, 2, 1), field, seed=4, box=3)
        m = random_representation(A3, (1, 2, 2), field, seed=5, box=3)
        for x, y in ((n, m), (m, n), (n, n), (kronecker3_pi(field), kronecker3_m(field))):
            if field.is_finite:
                v = _check_nc2_subspaces(x, y)
            else:
                with monkeypatch.context() as patch:
                    patch.setattr(criteria, "hom_basis", lambda a, b: bases.append((a, b)) or real_basis(a, b))
                    bases.clear()
                    v = check_nc2(x, y, CheckConfig(trials=32))
                assert bases == [(x, x), (x, y)]
            assert v.details
    assert calls == []


def test_nc2_flow_reads_multiplicities_only(monkeypatch):
    """The type-A flow reads n and m only through `decompose`, which reads
    ([U, x])_U off the table's presentations: no hom_dim at all.  R_i
    comes off the roots, so even on a cold table, whose socle_reach is not
    computed yet, there is no Hom basis, Hom evaluation, socle, quotient or
    power."""
    pairs = []
    for field in (F2, F3, GF(4)):
        for q in (A3, ALT_A3):
            n = random_representation(q, (2, 2, 1), field, seed=4)
            m = random_representation(q, (1, 2, 2), field, seed=5)
            pairs += [(n, m), (m, n), (n, n)]
    monkeypatch.setattr(dynkin, "_TABLE_CACHE", {})
    for x, _ in pairs:
        cached_table(x.quiver, x.field)  # table set-up, not part of the check

    def refuse(*args, **kwargs):
        raise AssertionError("the flow must not call this")

    for module in (rep, criteria, dynkin):
        for name in ("hom_basis", "hom_evaluation_rows", "socle_at", "_socles", "quotient", "power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    calls = []
    real = rep.hom_dim
    for module in (criteria, dynkin):
        monkeypatch.setattr(module, "hom_dim", lambda x, y: calls.append(1) or real(x, y))
    cold = 0
    for x, y in pairs:
        table = cached_table(x.quiver, x.field)
        cold += "socle_reach" not in vars(table)
        calls.clear()
        v = check_nc2(x, y)
        assert v.context["mode"] == "type-a-flow" and v.details
        assert len(calls) == 0
    assert cold == 6  # one first check per table


def test_an_criterion_and_flow_decompose_each_representation_once(table_a3_f2, monkeypatch):
    """an_criterion (on its own table) and the flow (on the cached one)
    share each representation's multiplicities: a cold A3/F_2 pair makes
    two hom_into calls, and repeating both makes none, whether the pair
    holds (with an_criterion's embedding) or fails."""
    cached_table(A3, F2)
    calls = []
    real = dynkin.IndecomposableTable.hom_into
    monkeypatch.setattr(dynkin.IndecomposableTable, "hom_into", lambda t, x: calls.append(x) or real(t, x))
    for holds in (True, False):
        n = random_representation(A3, (1, 2, 1), F2, seed=11)
        m = direct_sum([n, random_representation(A3, (1, 1, 1), F2, seed=12)])
        x, y = (n, m) if holds else (m, n)
        for expected in (2, 0):
            calls.clear()
            v_an = an_criterion(x, y, table_a3_f2)
            v_flow = check_nc2(x, y)
            assert v_an.holds == v_flow.holds == holds and v_flow.context["mode"] == "type-a-flow"
            assert len(calls) == expected
    assert table_a3_f2 is not cached_table(A3, F2)


def _type_a_pairs(field, count: int):
    """Seeded pairs (n, m) on equioriented and alternating A3 and A4 and a
    mixed A5.  In turn, m is n plus a random summand (n embeds), a random
    representation of n's dimension vector, or any random representation,
    so that many pairs hold and many fail."""
    rng = random.Random(f"type-a:{field}")
    for q in (A3, ALT_A3, a_n(4), ALT_A4, MIXED_A5):
        for k in range(count):
            nv = q.vertex_count
            n = random_representation(q, tuple(rng.randint(0, 2) for _ in range(nv)), field,
                                      seed=rng.randrange(10**6))
            x = random_representation(q, tuple(rng.randint(0, 1) for _ in range(nv)), field,
                                      seed=rng.randrange(10**6))
            if k % 3 == 0:
                m = direct_sum([n, x])
            else:
                dims = n.dims if k % 3 == 1 else tuple(rng.randint(0, 2) for _ in range(nv))
                m = random_representation(q, dims, field, seed=rng.randrange(10**6))
            yield n, m


@pytest.mark.parametrize("field", [F2, F3, GF(4)], ids=str)
def test_nc2_flow_matches_subspace_scan(field):
    """On type A the flow's holds and checked equal the subspace scan's,
    which stays the independent oracle; its ledger has one entry per socle
    vertex, with lhs the socle dimension."""
    holding = pairs = 0
    for n, m in _type_a_pairs(field, 12):
        flow = check_nc2(n, m)
        scan = _check_nc2_subspaces(n, m)
        assert flow.context["mode"] == "type-a-flow"
        assert flow.holds == scan.holds, (n.quiver.arrows, n.dims, m.dims)
        assert flow.context["checked"] == scan.context["checked"]
        assert [(e["vertex"], e["lhs"]) for e in flow.details] == [
            (i, soc.ncols) for i, soc in _socles(n).items()
        ]
        assert all(e["ok"] == (e["lhs"] <= e["rhs"]) for e in flow.details)
        holding += flow.holds
        pairs += 1
    assert 0.3 * pairs <= holding <= 0.7 * pairs, (holding, pairs)


def _socle_reach_row(table, i: int, u: int) -> set[int]:
    """R_i(U, -) by its definition: the v such that some hom_basis(U, V)
    element is nonzero on socle_at(U, i), for U = table.reps[u]."""
    x = table.reps[u]
    soc = socle_at(x, i)
    if not soc.ncols:
        return set()
    return {
        v
        for v, y in enumerate(table.reps)
        if any(not (phi.vertex_mats[i] @ soc).is_zero() for phi in hom_basis(x, y))
    }


def _hall_witness_recomputes(n: Representation, m: Representation, w: dict) -> bool:
    """Whether w is a violated Hall inequality of (n, m), recomputed from
    `decompose` and R_i by its definition (`_socle_reach_row`): D =
    w["types"] is closed under R_i among n's summands with socle at the
    vertex, lhs = sum_D mu_U, rhs = sum of nu_V over R_i(D), and lhs > rhs."""
    table = cached_table(n.quiver, n.field)
    mu, nu = decompose(n, table), decompose(m, table)
    d = {table.root_index(r) for r in w["types"]}
    image = frozenset().union(*(_socle_reach_row(table, w["vertex"], u) for u in d))
    closed = all(mu.get(table.roots[v], 0) == 0 or v in d for v in image)
    lhs = sum(mu.get(table.roots[u], 0) for u in d)
    rhs = sum(nu.get(table.roots[v], 0) for v in image)
    return w["kind"] == "hall" and closed and (w["lhs"], w["rhs"]) == (lhs, rhs) and lhs > rhs


def test_nc2_flow_witness_recomputes():
    """Every failing verdict's witness recomputes from the multiplicities
    and R_i; the same witness with lhs or rhs moved, or a type dropped,
    does not."""
    failing = 0
    for field in (F2, F3):
        for n, m in _type_a_pairs(field, 6):
            v = check_nc2(n, m)
            if v.holds:
                continue
            w = v.witness
            assert _hall_witness_recomputes(n, m, w), (n.dims, m.dims, w)
            for mutated in (
                w | {"lhs": w["lhs"] + 1},
                w | {"rhs": w["rhs"] + 1},
                w | {"types": w["types"][:-1]},
            ):
                assert not _hall_witness_recomputes(n, m, mutated), mutated
            failing += 1
    assert failing >= 15, failing


def _a_orientations(nv: int):
    """Every orientation of the path 0 - 1 - ... - nv-1."""
    for flips in itertools.product((False, True), repeat=nv - 1):
        yield Quiver(nv, tuple((v + 1, v) if flip else (v, v + 1) for v, flip in enumerate(flips)))


def test_socle_reach_matches_its_definition(table_d4_f2):
    """The closed form equals R_i by its definition (`_socle_reach_row`) on
    every orientation of A2-A6, over F_2, and up to A5 also over F_3 and Q.
    It is read off interval supports, so a D4 table refuses it."""
    for nv in range(2, 7):
        for q in _a_orientations(nv):
            for f in (F2, F3, QQ) if nv < 6 else (F2,):
                table = build_table(q, f)
                want = tuple(
                    tuple(frozenset(_socle_reach_row(table, i, u)) for u in range(table.size))
                    for i in range(nv)
                )
                assert table.socle_reach == want, (q.arrows, f)
    with pytest.raises(ValueError, match="type A"):
        table_d4_f2.socle_reach


def test_nc2_flow_decides_pairs_beyond_the_class_budget(table_a3_f2):
    """An A3 representation with an 8-dimensional socle has more socle
    classes than CLASS_BUDGET: the scan refuses it, and the flow, which
    enumerates none, agrees with an_criterion on it."""
    n = assemble(table_a3_f2, {(0, 0, 1): 5, (0, 1, 1): 2, (1, 1, 1): 1})
    with pytest.raises(ValueError, match="class budget"):
        _check_nc2_subspaces(n, n)
    for m in (
        assemble(table_a3_f2, {(0, 0, 1): 5, (0, 1, 1): 2, (1, 1, 1): 2}),
        assemble(table_a3_f2, {(0, 0, 1): 6, (0, 1, 1): 1, (1, 1, 1): 1}),
    ):
        v = check_nc2(n, m)
        assert v.context["checked"] > CLASS_BUDGET
        assert v.holds == an_criterion(n, m, table_a3_f2).holds


def test_nc2_sampling_mode_on_rationals():
    n = kronecker3_pi(QQ)
    m = kronecker3_m(QQ)
    v = check_nc2(n, m, CheckConfig(trials=40, seed=0))
    assert v.holds
    assert not v.conclusive


def test_nc2_sampling_finds_violation():
    u12 = _m_over_q({(1, 1, 0): 1})
    m = _m_over_q({(1, 0, 0): 1, (0, 1, 0): 1})
    v = check_nc2(u12, m, CheckConfig(trials=64, seed=0))
    assert not v.holds
    assert v.conclusive  # a found violation is certified


def test_nc2_requires_matching_inputs():
    n = random_representation(A2, (1, 1), F2, seed=0)
    m = random_representation(A2, (1, 1), F3, seed=0)
    with pytest.raises(ValueError):
        check_nc2(n, m, CheckConfig())


LOOP = Quiver(1, ((0, 0),))


def _jordan(field, partition) -> Representation:
    """The loop acting on field^|partition| by nilpotent Jordan blocks of
    the given sizes."""
    blocks = [Matrix(field, [[int(c == r + 1) for c in range(k)] for r in range(k)]) for k in partition]
    return Representation(LOOP, field, (sum(partition),), [Matrix.block_diag(field, blocks)])


@pytest.mark.parametrize("field", [F2, QQ], ids=str)
def test_nc2_refuses_a_non_nilpotent_loop(field):
    """n = (x = 1) on the loop embeds neither into 0 nor into (x = 0), but
    its joint kernel is 0, so nc2 used to hold vacuously: now a ValueError."""
    n = Representation(LOOP, field, (1,), [Matrix(field, [[1]])])
    for m in (_jordan(field, ()), _jordan(field, (1,))):
        with pytest.raises(ValueError, match="not nilpotent"):
            check_nc2(n, m, CheckConfig())


def test_nc2_walks_the_paths_once(monkeypatch):
    """On a quiver with an oriented cycle check_nc2 tests nilpotency once,
    not once per socle vertex: one walk for a nilpotent representation of
    the 3-cycle, over F_3 (the class scan) and over Q (sampling)."""
    cycle = Quiver(3, ((0, 1), (1, 2), (2, 0)))
    walks = []
    real = rep._require_nilpotent
    monkeypatch.setattr(rep, "_require_nilpotent", lambda x: walks.append(x) or real(x))
    for field in (F3, QQ):
        one, zero = Matrix(field, [[1]]), Matrix(field, [[0]])
        n = Representation(cycle, field, (1, 1, 1), [one, one, zero])
        m = Representation(cycle, field, (1, 1, 1), [one, zero, zero])
        walks.clear()
        v = check_nc2(n, m, CheckConfig(trials=4))
        assert v.context["field"] == str(field) and len(walks) == 1


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_nc2_on_the_loop_is_jordan_partition_containment(field):
    """For nilpotent representations of the loop (modules over k[x]/(x^4))
    n embeds in m exactly when n's Jordan partition lies inside m's
    (Macdonald, Symmetric Functions and Hall Polynomials, II), and nc2
    decides it: every partition of 0-4 with parts at most 3, both ways."""
    partitions = [p for size in range(5) for p in _partitions(size, 3)]
    assert len(partitions) == 11
    held = 0
    for lam in partitions:
        for mu in partitions:
            inside = len(lam) <= len(mu) and all(a <= b for a, b in zip(lam, mu))
            v = check_nc2(_jordan(field, lam), _jordan(field, mu))
            assert v.conclusive and v.holds == inside, (lam, mu)
            held += inside
    assert 30 <= held <= 121 - 30


def _partitions(size: int, largest: int):
    """Partitions of size into parts at most largest, parts decreasing."""
    if size == 0:
        yield ()
    for part in range(min(size, largest), 0, -1):
        for rest in _partitions(size - part, part):
            yield (part,) + rest


def test_stable_embedding_implies_nc2():
    rng = random.Random(6)
    found_some = 0
    for trial in range(15):
        dn = tuple(rng.randint(0, 2) for _ in range(2))
        n = random_representation(A2, dn, F3, seed=rng.randrange(10**6))
        x = random_representation(A2, (1, 1), F3, seed=rng.randrange(10**6))
        if trial % 2:
            m = direct_sum([n, x])  # guarantees a split embedding
        else:
            dm = tuple(rng.randint(0, 2) for _ in range(2))
            m = random_representation(A2, dm, F3, seed=rng.randrange(10**6))
        report = search_stable_embedding(n, m, r_max=3, trials=32, seed=rng.randrange(10**6))
        if report.found:
            found_some += 1
            assert check_nc2(n, m, CheckConfig()).holds
    assert found_some >= 7


# ----------------------------------------------------------------------
# Equioriented type A


def test_path_order_detection():
    assert path_order(A3) == (0, 1, 2)
    assert path_order(Quiver(3, ((2, 1), (1, 0)))) == (2, 1, 0)
    assert path_order(Quiver(1, ())) == (0,)
    assert path_order(d4_subspace()) is None
    assert path_order(Quiver(3, ((0, 1), (2, 1)))) is None  # not equioriented


def test_an_criterion_reflexive(table_a3_f2):
    n = assemble(table_a3_f2, {(1, 1, 0): 1, (0, 0, 1): 2})
    v = an_criterion(n, n, table_a3_f2)
    assert v.holds
    emb = v.context["embedding"]
    assert is_injective_morphism(emb)


def test_an_criterion_sink_simple_into_interval(table_a2_f2):
    s2 = simple(A2, F2, 1)
    u12 = assemble(table_a2_f2, {(1, 1): 1})
    v = an_criterion(s2, u12, table_a2_f2)
    assert v.holds
    assert is_injective_morphism(v.context["embedding"])


def test_an_criterion_source_simple_fails(table_a2_f2):
    s1 = simple(A2, F2, 0)
    u12 = assemble(table_a2_f2, {(1, 1): 1})
    v = an_criterion(s1, u12, table_a2_f2)
    assert not v.holds
    assert v.witness["kind"] == "prefix-sum"
    assert (v.witness["i"], v.witness["j"]) == (1, 1)
    assert v.witness["lhs"] == 1 and v.witness["rhs"] == 0


def test_an_criterion_rejects_wrong_quiver(table_d4_f2):
    x = random_representation(d4_subspace(), (1, 1, 1, 1), F2, seed=0)
    with pytest.raises(ValueError):
        an_criterion(x, x, table_d4_f2)


def test_an_matches_nc2_on_random_pairs():
    """On equioriented A3 and A4 over F_2 and F_3, an_criterion holds
    exactly when nc2's flow does, and every embedding it builds is
    certified injective."""
    for q, field in itertools.product((A3, a_n(4)), (F2, F3)):
        table = cached_table(q, field)
        rng = random.Random(8)
        holding = 0
        for _ in range(30):
            mn = {r: rng.randint(0, 2) for r in table.roots}
            mm = {r: rng.randint(0, 2) for r in table.roots}
            n = assemble(table, {r: c for r, c in mn.items() if c})
            m = assemble(table, {r: c for r, c in mm.items() if c})
            va = an_criterion(n, m, table, seed=rng.randrange(10**6))
            vn = check_nc2(n, m, CheckConfig())
            assert vn.context["mode"] == "type-a-flow"
            assert va.holds == vn.holds
            if va.holds:
                emb = va.context["embedding"]
                assert is_injective_morphism(emb)
                assert emb.source.dims == n.dims and emb.target.dims == m.dims
                holding += 1
        assert holding, (q, field)


def _scrambled(x, rng):
    """x in another basis: x_v changed by a seeded invertible matrix g_v,
    so each arrow i -> j acts by g_j X g_i^-1."""
    f = x.field
    change = []
    for d in x.dims:
        g = Matrix(f, [[f.random(rng) for _ in range(d)] for _ in range(d)], ncols=d)
        while g.rank() < d:
            g = Matrix(f, [[f.random(rng) for _ in range(d)] for _ in range(d)], ncols=d)
        change.append((g, g.solve_matrix(Matrix.identity(f, d))))
    mats = [
        change[j][0] @ a @ change[i][1] if a.nrows and a.ncols else a
        for (i, j), a in zip(x.quiver.arrows, x.arrow_mats)
    ]
    return Representation(x.quiver, f, x.dims, mats)


def _scrambled_a_pairs(table, rng, count):
    """Seeded pairs of assembled forms over the table's equioriented
    quiver, in turn m = n plus random summands (n embeds) and random
    multiplicities, then each with n, m or both scrambled."""
    for k in range(count):
        mn = {r: c for r in table.roots if (c := rng.choice((0, 0, 1, 2)))}
        extra = {r: c for r in table.roots if (c := rng.choice((0, 0, 1)))}
        mm = {r: mn.get(r, 0) + extra.get(r, 0) for r in table.roots} if k % 2 else extra
        n0 = assemble(table, mn)
        m0 = assemble(table, {r: c for r, c in mm.items() if c})
        yield _scrambled(n0, rng), m0
        yield n0, _scrambled(m0, rng)
        yield _scrambled(n0, rng), _scrambled(m0, rng)


@pytest.mark.parametrize("field", [F2, F3, GF(4)], ids=str)
def test_an_embedding_in_scrambled_bases(field):
    """On equioriented A3, A4 and A4 in the opposite direction, with n, m
    or both in a seeded random basis, an_criterion never raises, holds
    exactly when nc2's flow does, and every embedding runs from n to m and
    is injective.  Each input's interval basis has the multiplicities of
    `decompose`, type by type, and spans every vertex."""
    holding = pairs = 0
    for q in (A3, a_n(4), opposite(a_n(4))):
        table = cached_table(q, field)
        order = path_order(q)
        rng = random.Random(f"scrambled:{q}:{field}")
        for n, m in _scrambled_a_pairs(table, rng, 10):
            verdict = an_criterion(n, m, table)
            assert verdict.holds == check_nc2(n, m).holds
            if verdict.holds:
                emb = verdict.context["embedding"]
                assert emb.source is n and emb.target is m
                assert is_injective_morphism(emb)
                holding += 1
            pairs += 1
            for x in (n, m):
                basis = criteria._interval_basis(x, table)
                assert collections.Counter(table.roots[u] for u, _ in basis) == decompose(x, table)
                at = collections.defaultdict(list)
                for u, chain in basis:
                    for t, vec in enumerate(chain):
                        at[order[table.intervals[u][0] - 1 + t]].append(vec)
                assert all(len(at[v]) == d == Matrix(field, at[v], ncols=d).rank() for v, d in enumerate(x.dims))
    assert pairs == 90 and 30 <= holding < pairs


def test_interval_basis_is_built_once_per_representation(monkeypatch):
    """A failing pair builds no interval basis.  The first holding pair
    builds each input's, one hom_basis per summand type, and keeps it on
    the input: a repeat call solves no Hom system and gives the same
    embedding."""
    table = build_table(A3, F2)
    rng = random.Random(3)
    n = _scrambled(assemble(table, {(1, 1, 1): 1, (0, 1, 1): 1, (0, 0, 1): 1}), rng)
    m = _scrambled(assemble(table, {(1, 1, 1): 2, (0, 1, 1): 1, (1, 1, 0): 1}), rng)
    calls = []
    real = criteria.hom_basis
    monkeypatch.setattr(criteria, "hom_basis", lambda x, y: calls.append(y) or real(x, y))
    assert not an_criterion(m, n, table).holds
    assert not calls
    first = an_criterion(n, m, table)
    assert first.holds
    assert [calls.count(x) for x in (n, m)] == [3, 3]
    assert n._interval_basis is criteria._interval_basis(n, table)

    def refuse(x, y):
        raise AssertionError("an interval basis was built twice")

    monkeypatch.setattr(criteria, "hom_basis", refuse)
    again = an_criterion(n, m, table)
    assert again.holds
    assert again.context["embedding"].vertex_mats == first.context["embedding"].vertex_mats


# ----------------------------------------------------------------------
# Dual surjection


def test_dual_surjection_reflexive():
    u = random_representation(A3, (1, 2, 1), F2, seed=9)
    assert check_dual_surjection(u, u, CheckConfig()).holds


def test_dual_surjection_projection_case(table_a3_f2):
    x = assemble(table_a3_f2, {(1, 1, 1): 1})
    p = build_projective(A3, 0, F2)
    u = direct_sum([p, x])
    v = check_dual_surjection(u, x, CheckConfig())
    assert v.holds
    from quiverrep.stable import search_stable_surjection
    from quiverrep.rep import is_surjective_morphism

    report = search_stable_surjection(u, x, r_max=2, trials=64, seed=0)
    assert report.found and report.r == 1
    assert is_surjective_morphism(report.block_matrix)


def test_dual_surjection_failing_pair(table_a2_f2):
    # dual of the failing A2 embedding pair fails symmetrically
    u12 = assemble(table_a2_f2, {(1, 1): 1})
    m = direct_sum([simple(A2, F2, 0), simple(A2, F2, 1)])
    v = check_dual_surjection(m, u12, CheckConfig())
    assert not v.holds


def test_dual_surjection_equals_nc2_on_duals():
    rng = random.Random(10)
    for _ in range(20):
        du = tuple(rng.randint(0, 2) for _ in range(3))
        dv = tuple(rng.randint(0, 2) for _ in range(3))
        u = random_representation(A3, du, F2, seed=rng.randrange(10**6))
        w = random_representation(A3, dv, F2, seed=rng.randrange(10**6))
        direct = check_dual_surjection(u, w, CheckConfig())
        via_dual = check_nc2(dual(w), dual(u), CheckConfig())
        assert direct.holds == via_dual.holds


def test_dual_surjection_on_a3_matches_the_scan_on_duals():
    """On A3 the dual surjection criterion runs the flow on the duals; its
    holds and checked equal the subspace scan's there."""
    rng = random.Random(12)
    verdicts = []
    for q in (A3, ALT_A3):
        for f in (F2, F3):
            for k in range(8):
                w = random_representation(q, tuple(rng.randint(0, 2) for _ in range(3)), f,
                                          seed=rng.randrange(10**6))
                x = random_representation(q, tuple(rng.randint(0, 1) for _ in range(3)), f,
                                          seed=rng.randrange(10**6))
                # u = w + x surjects onto w; a random u may not
                u = direct_sum([w, x]) if k % 2 else random_representation(
                    q, tuple(rng.randint(0, 2) for _ in range(3)), f, seed=rng.randrange(10**6))
                direct = check_dual_surjection(u, w)
                scan = _check_nc2_subspaces(dual(w), dual(u))
                assert direct.context["mode"] == "type-a-flow"
                assert direct.holds == scan.holds, (q.arrows, f, u.dims, w.dims)
                assert direct.context["checked"] == scan.context["checked"]
                verdicts.append(direct.holds)
    assert 8 <= sum(verdicts) <= len(verdicts) - 8


# ----------------------------------------------------------------------
# Semistability


def test_semistable_zero_functional():
    m = random_representation(A2, (1, 1), F2, seed=11)
    v = is_semistable(m, (0, 0))
    assert v.holds


def test_semistable_kronecker_example():
    m = kronecker3_m(F2)
    v = is_semistable(m, (2, 1))
    assert v.holds  # this is the semistability behind the counterexample
    slope, arg = min_slope(m, (2, 1))
    assert slope == 0 and v.context["min_slope"] == 0


def test_semistable_fails_when_total_nonzero():
    m = kronecker3_m(F2)
    v = is_semistable(m, (1, 1))
    assert not v.holds
    assert v.witness["kind"] == "total"


def test_semistable_detects_destabilizing_subrep():
    # S_1 + S_2 on the 2-arrow Kronecker quiver: e(m) = 0 for e = (1, 1)
    # but the source simple is a subrepresentation of slope -1
    q = kronecker(2)
    m = Representation(
        q, F2, (1, 1), [Matrix.zeros(F2, 1, 1), Matrix.zeros(F2, 1, 1)]
    )
    v = is_semistable(m, (1, 1))
    assert not v.holds
    assert v.witness["kind"] == "subrep"
    assert v.witness["e(N)"] < 0


def test_semistable_dynkin_route_matches_enumeration(table_a3_f2):
    rng = random.Random(12)
    for _ in range(10):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        m = random_representation(A3, dims, F2, seed=rng.randrange(10**6))
        e = tuple(rng.randint(-2, 2) for _ in range(3))
        e = tuple(abs(x) for x in e)
        via_table = min_slope(m, e, table=table_a3_f2)
        via_enum = min_slope(m, e)
        assert via_table[0] == via_enum[0]


def test_verdict_contract():
    with pytest.raises(ValueError):
        Verdict(holds=False)
    v = Verdict(holds=True, context={"conclusive": False})
    assert not v.conclusive
    assert v.to_json()["holds"] is True
