import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverrep import dynkin, rep, stable
from quiverrep.dynkin import (
    IndecomposableTable,
    assemble,
    build_table,
    cached_table,
    canonical_decomposition,
    check_generic_embedding,
    decompose,
    generic_rep,
    indecomposable,
    positive_roots,
)
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.quiver import Quiver, a_n, d4_subspace, dim_leq, euler_form, kronecker
from quiverrep.rep import (
    build_projective,
    direct_sum,
    ext_dim,
    hom_dim,
    is_injective_morphism,
    random_representation,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_positive_roots_a2():
    assert positive_roots(a_n(2)) == [(0, 1), (1, 0), (1, 1)]


def test_positive_roots_a3_count():
    assert len(positive_roots(a_n(3))) == 6


def test_positive_roots_d4():
    roots = positive_roots(d4_subspace())
    assert len(roots) == 12
    assert (2, 1, 1, 1) in roots


def _brute_force_roots(q):
    """The roots by testing every vector with entries up to 6 (the largest
    entry of any ADE root), the oracle for the generated roots."""
    return sorted(
        d
        for d in itertools.product(range(7), repeat=q.vertex_count)
        if any(d) and euler_form(q, d, d) == 1
    )


def _orientations(n, edges):
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield Quiver(n, tuple((t, s) if f else (s, t) for (s, t), f in zip(edges, flips)))


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


D4_EDGES = [(0, 1), (0, 2), (0, 3)]
D5_EDGES = [(0, 1), (0, 2), (0, 3), (3, 4)]
E6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
E6 = Quiver(6, tuple(E6_EDGES))
E6_ALTERNATING = Quiver(6, ((0, 1), (2, 1), (2, 3), (4, 3), (5, 2)))
# path 1 - ... - 6 plus 3 -> 7, and path 1 - ... - 7 plus 3 -> 8
E7 = Quiver(7, tuple(_path_edges(6)) + ((2, 6),))
E8 = Quiver(8, tuple(_path_edges(7)) + ((2, 7),))


def test_positive_roots_match_brute_force_on_every_orientation():
    cases = [(n, _path_edges(n)) for n in range(1, 6)] + [(4, D4_EDGES), (5, D5_EDGES)]
    for n, edges in cases:
        for q in _orientations(n, edges):
            assert positive_roots(q) == _brute_force_roots(q), q.arrows


def test_positive_roots_match_brute_force_on_e6():
    for q in (E6, E6_ALTERNATING):
        assert positive_roots(q) == _brute_force_roots(q)


def test_positive_roots_of_e7_e8_a9():
    e8 = Quiver(8, ((1, 0),) + tuple(_path_edges(7)[1:]) + ((7, 2),))
    a9 = Quiver(9, ((1, 0), (1, 2), (3, 2), (3, 4), (4, 5), (6, 5), (7, 6), (7, 8)))
    for q, expected in ((E7, 63), (e8, 120), (a9, 45)):
        roots = positive_roots(q)
        assert len(roots) == expected
        assert roots == sorted(set(roots))
        assert all(euler_form(q, d, d) == 1 for d in roots)


@pytest.mark.parametrize("q", [a_n(3), d4_subspace(), E6, E6_ALTERNATING], ids=["A3", "D4", "E6", "E6-alternating"])
def test_unit_euler_rows_are_euler_form_on_unit_vectors(q):
    table = build_table(q, GF(2))
    units = [tuple(int(v == w) for w in range(q.vertex_count)) for v in range(q.vertex_count)]
    assert table.euler_from_root == tuple(tuple(euler_form(q, r, u) for u in units) for r in table.roots)
    assert table.euler_into_root == tuple(tuple(euler_form(q, u, r) for u in units) for r in table.roots)
    # by bilinearity the rows give <root, e> and <e, root> as dot products
    e = tuple(range(1, q.vertex_count + 1))
    for r, out, into in zip(table.roots, table.euler_from_root, table.euler_into_root):
        assert sum(c * x for c, x in zip(out, e)) == euler_form(q, r, e)
        assert sum(c * x for c, x in zip(into, e)) == euler_form(q, e, r)


def test_positive_roots_reject_non_dynkin():
    with pytest.raises(ValueError):
        positive_roots(kronecker(3))


def test_indecomposable_simple_roots():
    x = indecomposable(a_n(2), (1, 0), F5)
    assert x.dims == (1, 0) and hom_dim(x, x) == 1


def test_indecomposable_a3_middle_root():
    x = indecomposable(a_n(3), (1, 1, 1), F5)
    assert hom_dim(x, x) == 1
    for m in x.arrow_mats:
        assert m.rank() == 1


def test_indecomposable_d4_big_root():
    x = indecomposable(d4_subspace(), (2, 1, 1, 1), F5)
    assert hom_dim(x, x) == 1
    p1 = build_projective(d4_subspace(), 0, F5)
    assert hom_dim(p1, x) == 2


def test_indecomposable_rejects_non_roots():
    with pytest.raises(ValueError):
        indecomposable(a_n(2), (2, 0), F5)


def test_table_invariants(table_a3_f5):
    t = table_a3_f5
    assert t.size == 6
    for i in range(t.size):
        assert t.hom_matrix[i][i] == 1
        assert t.ext_entry(i, i) == 0
    _assert_unitriangular_in_hom_order(t)


def _assert_unitriangular_in_hom_order(t):
    order = t.hom_order
    assert sorted(order) == list(range(t.size))
    for a in range(t.size):
        for b in range(a):
            assert t.hom_matrix[order[a]][order[b]] == 0, (order[a], order[b])


def test_table_projective_injective_roots(table_a3_f5):
    t = table_a3_f5
    proj = {t.roots[i] for i in t.projective}
    inj = {t.roots[i] for i in t.injective}
    assert proj == {(1, 1, 1), (0, 1, 1), (0, 0, 1)}
    assert inj == {(1, 0, 0), (1, 1, 0), (1, 1, 1)}


def test_decompose_unit(table_a3_f5):
    t = table_a3_f5
    for k, rep in enumerate(t.reps):
        assert decompose(rep, t) == {t.roots[k]: 1}


def test_decompose_explicit_sum(table_a3_f5):
    t = table_a3_f5
    u12 = t.reps[t.root_index((1, 1, 0))]
    u23 = t.reps[t.root_index((0, 1, 1))]
    x = direct_sum([u12, u23, u23])
    assert decompose(x, t) == {(1, 1, 0): 1, (0, 1, 1): 2}


def test_decompose_random_roundtrip(table_a3_f5, table_d4_f5):
    rng = random.Random(0)
    for t in (table_a3_f5, table_d4_f5):
        for _ in range(20):
            mults = {r: rng.randint(0, 3) for r in t.roots}
            mults = {r: m for r, m in mults.items() if m}
            x = assemble(t, mults)
            assert decompose(x, t) == mults


def _fraction_solve(x, t):
    """Multiplicities by solving hom_matrix . m = ([U, x])_U over Q."""
    hq = Matrix(QQ, [[Fraction(v) for v in row] for row in t.hom_matrix])
    sol = hq.solve([Fraction(hom_dim(u, x)) for u in t.reps])
    assert all(v.denominator == 1 for v in sol)
    return {r: int(v) for r, v in zip(t.roots, sol) if v}


def test_decompose_of_random_reps_matches_fraction_solve(
    table_a3_f2, table_a3_f5, table_a3_q, table_d4_f2, table_d4_f5
):
    table_d4_q = build_table(d4_subspace(), QQ)
    table_e6_f3 = build_table(E6, F3)
    rng = random.Random(1)
    for t in (table_a3_f2, table_a3_f5, table_a3_q, table_d4_f2, table_d4_f5, table_d4_q, table_e6_f3):
        n = t.quiver.vertex_count
        for k in range(12):
            d = tuple(rng.randint(0, 3) for _ in range(n))
            x = random_representation(t.quiver, d, t.field, seed=k, box=3)
            assert decompose(x, t) == _fraction_solve(x, t)


def test_decompose_solves_no_linear_system(table_d4_f5, monkeypatch):
    x = random_representation(d4_subspace(), (2, 1, 1, 1), F5, seed=3)
    expected = _fraction_solve(x, table_d4_f5)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose re-solved the Hom system")

    monkeypatch.setattr(Matrix, "solve", refuse)
    monkeypatch.setattr(Matrix, "solve_matrix", refuse)
    assert decompose(x, table_d4_f5) == expected


def test_decompose_builds_no_hom_system(monkeypatch):
    """Once its table exists, decompose reads ([U, x])_U off the
    presentations, which it builds on first use: no hom_dim, no Hom basis,
    no solve, on a cold table as on a warm one."""
    table = build_table(E6, F3)
    xs = [random_representation(E6, (1, 2, 2, 1, 1, 1), F3, seed=k) for k in range(3)]
    xs.append(assemble(table, {(0, 1, 1, 0, 0, 0): 1, (1, 2, 3, 2, 1, 2): 2}))
    expected = [_fraction_solve(x, table) for x in xs]
    assert "presentations" not in vars(table)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose built a Hom system")

    for module in (rep, dynkin):
        monkeypatch.setattr(module, "hom_dim", refuse)
    for module in (rep, stable):
        monkeypatch.setattr(module, "hom_basis", refuse)
    monkeypatch.setattr(Matrix, "solve", refuse)
    monkeypatch.setattr(Matrix, "solve_matrix", refuse)
    assert [decompose(x, table) for x in xs] == expected


def _hom_into_mismatches(table, xs) -> list:
    """The x on which table.hom_into(x), read off the presentations,
    differs from the Hom-matrix route, one hom_dim per indecomposable."""
    return [x for x in xs if table.hom_into(x) != [hom_dim(u, x) for u in table.reps]]


def _seeded_reps(table, count: int, seed: int) -> list:
    """Seeded random representations over the table, every other one with
    a zero vertex, plus a direct sum of table indecomposables."""
    q, rng = table.quiver, random.Random(seed)
    xs = []
    for k in range(count):
        d = [rng.randint(1, 3) for _ in range(q.vertex_count)]
        if k % 2 == 0:
            d[rng.randrange(q.vertex_count)] = 0
        xs.append(random_representation(q, tuple(d), table.field, seed=rng.randrange(2**31), box=3))
    xs.append(assemble(table, {r: rng.randint(0, 2) for r in rng.sample(table.roots, 3)}))
    return xs


PRESENTATION_QUIVERS = (
    [q for n in range(2, 6) for q in _orientations(n, _path_edges(n))]
    + list(_orientations(4, D4_EDGES))[::7]  # all arrows out of the centre, all into it
    + [Quiver(5, ((1, 0), (0, 2), (3, 0), (3, 4))), E6_ALTERNATING]
)


@pytest.mark.parametrize("field", [F2, F3, GF(4), QQ], ids=str)
def test_hom_into_matches_hom_dim(field):
    """[U, x] from the projective presentations equals hom_dim(U, x) for
    every indecomposable U: every orientation of A2-A5, two of D4, D5 and
    E6, on seeded representations with and without zero vertices."""
    for k, q in enumerate(PRESENTATION_QUIVERS):
        table = build_table(q, field)
        xs = _seeded_reps(table, 4 if q.vertex_count < 6 else 2, seed=k)
        assert not _hom_into_mismatches(table, xs), q.arrows


@pytest.mark.parametrize("mutation", ["drop a relation", "change a coefficient"])
def test_hom_into_check_refuses_a_mutated_presentation(mutation):
    """The comparison above fails once a presentation loses a relation or
    a relation with several terms gets another coefficient.  The new
    coefficient is 0: scaling terms by units gives an equivalent
    presentation here, since each generator and relation can be rescaled
    and no cycle of terms links them."""
    table = build_table(Quiver(4, tuple(D4_EDGES)), F3)
    xs = _seeded_reps(table, 8, seed=1)
    assert not _hom_into_mismatches(table, xs)
    good = table.presentations
    u = next(u for u, (_, rels) in enumerate(good) if any(len(c) > 1 for _, c in rels))
    tops, rels = good[u]
    k = next(k for k, (_, c) in enumerate(rels) if len(c) > 1)
    if mutation == "drop a relation":
        rels = rels[:k] + rels[k + 1 :]
    else:
        b, ((l, _), *rest) = rels[k]
        rels = rels[:k] + ((b, ((l, F3.zero), *rest)),) + rels[k + 1 :]
    vars(table)["presentations"] = good[:u] + ((tops, rels),) + good[u + 1 :]
    assert _hom_into_mismatches(table, xs)


def test_presentations_are_certified_by_their_dimension_vector(monkeypatch):
    """A presentation whose P_0 - P_1 misses the root is a RuntimeError."""
    table = build_table(a_n(3), F2)
    real = dynkin._presentation
    monkeypatch.setattr(dynkin, "_presentation", lambda x, into: (real(x, into)[0], ()))
    with pytest.raises(RuntimeError, match="presentation"):
        table.presentations


def test_decompose_rejects_field_mismatch(table_a3_f5):
    x = random_representation(a_n(3), (1, 1, 1), F2, seed=0)
    with pytest.raises(ValueError):
        decompose(x, table_a3_f5)


def _refuse_hom_into(monkeypatch):
    def refuse(self, x):
        raise AssertionError("decompose recomputed [U, x]")

    monkeypatch.setattr(IndecomposableTable, "hom_into", refuse)


def test_decompose_caches_on_the_representation(monkeypatch):
    """A second decompose of the same object, with the same table or
    another one of its quiver and field, makes no hom_into call."""
    table = build_table(a_n(3), F2)
    x = random_representation(a_n(3), (2, 2, 1), F2, seed=7)
    assert not hasattr(x, "_decomposition")
    first = decompose(x, table)
    _refuse_hom_into(monkeypatch)
    assert decompose(x, table) == first
    assert decompose(x, build_table(a_n(3), F2)) == first


def test_decompose_cache_keeps_the_table_check():
    """A table over another field or quiver is still a ValueError once x
    has its multiplicities."""
    x = random_representation(a_n(3), (1, 2, 1), F2, seed=8)
    decompose(x, build_table(a_n(3), F2))
    for other in (build_table(a_n(3), F3), build_table(Quiver(3, ((0, 1), (2, 1))), F2)):
        with pytest.raises(ValueError, match="not over the table's"):
            decompose(x, other)


def test_decompose_returns_a_copy():
    """Mutating an answer does not change the next one."""
    table = build_table(d4_subspace(), F3)
    x = random_representation(d4_subspace(), (2, 1, 1, 1), F3, seed=2)
    first = decompose(x, table)
    expected = dict(first)
    first[(1, 0, 0, 0)] = 99
    first.clear()
    assert decompose(x, table) == expected


@pytest.mark.parametrize("q", [a_n(3), d4_subspace(), E6], ids=["A3", "D4", "E6"])
def test_cached_decomposition_matches_a_fresh_representation(q, monkeypatch):
    """On seeded inputs the cached answer, read with the same table and
    with another one, equals that of a fresh, uncached copy of x."""
    table = build_table(q, F3)
    xs = _seeded_reps(table, 4, seed=q.vertex_count)
    first = [decompose(x, table) for x in xs]
    fresh = [decompose(rep.Representation(x.quiver, x.field, x.dims, x.arrow_mats), table) for x in xs]
    assert first == fresh
    _refuse_hom_into(monkeypatch)
    assert [decompose(x, table) for x in xs] == fresh
    assert [decompose(x, build_table(q, F3)) for x in xs] == fresh


def _sampled_decomposition(q, e, table, seed=0, retries=64):
    """The decomposition of G_e by sampling, the oracle for the sink walk:
    decompose seeded random representations of dimension vector e until
    one has no Ext between its summands.  None when no sample certifies
    (over F_2 a generic representation can be rare)."""
    if not any(e):
        return {}
    for attempt in range(retries):
        x = random_representation(q, e, table.field, seed=seed + 15485863 * attempt, box=100)
        mults = decompose(x, table)
        idx = [table.root_index(r) for r in mults]
        if all(table.ext_entry(u, v) == 0 for u in idx for v in idx):
            return mults
    return None


A5_ALTERNATING = Quiver(5, ((0, 1), (2, 1), (2, 3), (4, 3)))
D5 = Quiver(5, tuple(D5_EDGES))
ORACLE_FIELDS = (F2, F3, F5, QQ)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_canonical_decomposition_matches_sampling_on_small_boxes(field):
    for q in (a_n(2), *_orientations(3, _path_edges(3)), d4_subspace()):
        t = build_table(q, field)
        for e in itertools.product(range(4), repeat=q.vertex_count):
            expected = _sampled_decomposition(q, e, t)
            assert expected is not None, (q.arrows, e)
            assert canonical_decomposition(q, e, t) == expected, (q.arrows, e)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_canonical_decomposition_matches_sampling_on_larger_quivers(field):
    rng = random.Random(f"larger:{field}")
    certified = total = 0
    for q in (A5_ALTERNATING, D5, E6, E7):
        t = build_table(q, field)
        for _ in range(12):
            e = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            expected = _sampled_decomposition(q, e, t)
            got = canonical_decomposition(q, e, t)
            total += 1
            if expected is not None:
                certified += 1
                assert got == expected, (q.arrows, e)
    # the sampler misses the generic module of a few of these over F_2
    assert certified >= total - (3 if field == F2 else 0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_canonical_decomposition_property(data):
    """On random orientations of A_n, D_n (n <= 6) and E6: the sink walk
    equals the sampling oracle, and G_e has no self-extensions."""
    kind = data.draw(st.sampled_from(("A", "D", "E")))
    if kind == "A":
        n = data.draw(st.integers(1, 6))
        edges = _path_edges(n)
    elif kind == "D":
        n = data.draw(st.integers(4, 6))
        edges = D4_EDGES + [(i, i + 1) for i in range(3, n - 1)]
    else:
        n, edges = 6, E6_EDGES
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    q = Quiver(n, tuple((t, s) if f else (s, t) for (s, t), f in zip(edges, flips)))
    e = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    table = cached_table(q, F3)
    mults = canonical_decomposition(q, e, table)
    assert mults == _sampled_decomposition(q, e, table)
    g = assemble(table, mults)
    assert g.dims == e and ext_dim(g, g) == 0


def test_canonical_decomposition_raises_when_its_certificate_fails(table_a3_f5, monkeypatch):
    monkeypatch.setattr(IndecomposableTable, "ext_entry", lambda self, u, v: 1)
    with pytest.raises(RuntimeError, match="extensions"):
        canonical_decomposition(a_n(3), (1, 1, 0), table_a3_f5)


def test_generic_decomposition_draws_no_random_numbers(table_a3_f5, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(random, "Random", refuse)
    assert canonical_decomposition(a_n(3), (1, 2, 1), table_a3_f5) == {(0, 1, 0): 1, (1, 1, 1): 1}
    assert generic_rep(a_n(3), (1, 2, 1), F5, table_a3_f5).dims == (1, 2, 1)
    assert check_generic_embedding(a_n(3), (0, 1, 0), (1, 2, 1), table_a3_f5) is True
    # Hom(G_e, G_d) has dimension 1 here, so its 5 combinations are scanned
    holds, mor = check_generic_embedding(a_n(3), (0, 1, 0), (1, 2, 1), table_a3_f5, witness=True)
    assert holds and is_injective_morphism(mor)


def test_canonical_decomposition_examples(table_a2_f5):
    t = table_a2_f5
    assert canonical_decomposition(a_n(2), (1, 2), t) == {(1, 1): 1, (0, 1): 1}
    assert canonical_decomposition(a_n(2), (0, 0), t) == {}
    # positive roots decompose as themselves
    for r in t.roots:
        assert canonical_decomposition(a_n(2), r, t) == {r: 1}


def test_canonical_decomposition_certificate(table_a3_f5):
    t = table_a3_f5
    for e in itertools.product(range(4), repeat=3):
        mults = canonical_decomposition(a_n(3), e, t)
        total = [0, 0, 0]
        for root, m in mults.items():
            for i, x in enumerate(root):
                total[i] += m * x
        assert tuple(total) == e
        idx = [t.root_index(r) for r in mults]
        for u in idx:
            for v in idx:
                assert t.ext_entry(u, v) == 0


def test_generic_rep_has_no_self_extensions(table_a3_f5):
    t = table_a3_f5
    for e in [(1, 2, 1), (2, 1, 2), (3, 3, 3)]:
        g = generic_rep(a_n(3), e, F5, t)
        assert g.dims == e
        assert ext_dim(g, g) == 0


def test_decompose_of_generic_matches_canonical(table_a3_f5):
    t = table_a3_f5
    for e in [(1, 1, 1), (2, 1, 0), (1, 2, 2)]:
        g = generic_rep(a_n(3), e, F5, t)
        assert decompose(g, t) == canonical_decomposition(a_n(3), e, t)


def test_check_generic_embedding_trivial(table_a2_f5):
    t = table_a2_f5
    assert check_generic_embedding(a_n(2), (0, 0), (1, 1), t) is True
    assert check_generic_embedding(a_n(2), (1, 1), (1, 1), t) is True


def test_check_generic_embedding_a2(table_a2_f5):
    t = table_a2_f5
    assert check_generic_embedding(a_n(2), (0, 1), (1, 1), t) is True
    assert check_generic_embedding(a_n(2), (1, 0), (1, 1), t) is False
    with pytest.raises(ValueError):
        check_generic_embedding(a_n(2), (2, 0), (1, 1), t)


def test_check_generic_embedding_witnesses(table_a3_f3, table_a3_f5, table_a3_q):
    # a positive verdict comes with an explicit certified embedding over
    # every one of these fields
    for t in (table_a3_f3, table_a3_f5, table_a3_q):
        for e in itertools.product(range(3), repeat=3):
            for d in itertools.product(range(3), repeat=3):
                if not dim_leq(e, d):
                    continue
                holds = check_generic_embedding(a_n(3), e, d, t)
                if holds:
                    _, mor = check_generic_embedding(a_n(3), e, d, t, witness=True)
                    assert mor is not None
                    assert is_injective_morphism(mor)
                    assert mor.source.dims == e and mor.target.dims == d


def test_table_rejects_non_unimodular_hom_matrix(table_a2_f5):
    # roots (0,1), (1,0), (1,1): a 2 in both corners keeps the Hom matrix
    # invertible over Q (det -3), but its inverse is not integral.  The
    # second matrix has an integral inverse (det -1), yet Hom runs both ways
    # between the first two roots, so no order makes it unitriangular.
    t = table_a2_f5
    assert t.hom_matrix == ((1, 0, 1), (0, 1, 0), (0, 1, 1))
    for hom in (((1, 0, 2), (0, 1, 0), (2, 1, 1)), ((1, 1, 0), (2, 1, 0), (0, 0, 1))):
        with pytest.raises(RuntimeError, match="not unitriangular in any order"):
            IndecomposableTable(t.quiver, t.field, t.roots, t.reps, hom)


def test_table_over_small_field(table_d4_f2):
    t = table_d4_f2
    assert t.size == 12
    for i in range(t.size):
        assert hom_dim(t.reps[i], t.reps[i]) == 1



@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
@pytest.mark.parametrize(
    "q, hard_root",
    [(E7, (1, 1, 2, 2, 2, 1, 1)), pytest.param(E8, (0, 1, 2, 2, 2, 2, 1, 1), marks=pytest.mark.slow)],
    ids=["E7", "E8"],
)
def test_e7_e8_tables_build_in_hom_order(q, hard_root, field):
    t = build_table(q, field)
    assert t.size == len(positive_roots(q))
    assert hard_root in t.roots  # random sampling could not certify it over F_2
    assert all(x.dims == r for x, r in zip(t.reps, t.roots))
    _assert_unitriangular_in_hom_order(t)
    rng = random.Random(f"{q.vertex_count}:{field}")
    for _ in range(2):
        mults = {r: rng.randint(1, 2) for r in sorted(rng.sample(t.roots, 3))}
        assert decompose(assemble(t, mults), t) == mults


@pytest.mark.parametrize("q", [a_n(3), d4_subspace(), E6, E6_ALTERNATING], ids=["A3", "D4", "E6", "E6alt"])
@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_closed_form_hom_matrix_matches_hom_dim(q, field):
    t = build_table(q, field)
    assert t.hom_matrix == tuple(tuple(hom_dim(u, v) for v in t.reps) for u in t.reps)


@pytest.mark.parametrize("q", [a_n(3), d4_subspace(), E6, E6_ALTERNATING], ids=["A3", "D4", "E6", "E6alt"])
def test_table_euler_values_match_the_euler_form(q):
    t = build_table(q, F2)
    assert t.euler == tuple(tuple(euler_form(q, u, v) for v in t.roots) for u in t.roots)


def test_build_table_draws_no_random_representations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_table sampled a representation")

    monkeypatch.setattr(random, "Random", refuse)
    for q in (d4_subspace(), E6_ALTERNATING):
        for field in (F3, QQ):
            assert build_table(q, field) == build_table(q, field)


def test_reflection_functor_matrices_have_entries_zero_and_units():
    for q in (E6, E6_ALTERNATING, E7):
        for r in positive_roots(q):
            x = indecomposable(q, r, QQ)
            assert all(e in (0, 1, -1) for m in x.arrow_mats for row in m.rows for e in row)


@pytest.mark.parametrize("q", [a_n(3), d4_subspace(), E6], ids=["A3", "D4", "E6"])
def test_q_tables_stay_indecomposable_in_every_counting_order(q):
    t = build_table(q, QQ, reduction_orders=(2, 3, 4, 5, 7, 8, 9, 11, 13))
    assert t.size == len(positive_roots(q))


def test_reduction_orders_reuse_the_end_certificate(monkeypatch):
    # `indecomposable` certifies End = 1 over Q; `rep.reductions` takes
    # that as its reference instead of computing it again
    real = rep.hom_dim

    def finite_fields_only(x, y):
        assert x.field.is_finite, "dim End over Q computed twice"
        return real(x, y)

    monkeypatch.setattr(rep, "hom_dim", finite_fields_only)
    monkeypatch.setattr(rep, "hom_dims_mod", lambda x, y, primes: None)
    t = build_table(a_n(3), QQ, reduction_orders=(2, 3, 5))
    assert all(x._reductions[0] == 1 for x in t.reps)


def test_reduction_orders_check_refuses_instead_of_retrying(monkeypatch):
    real = rep.hom_dim

    def end_two_over_f3(x, y):
        return 2 if x.field == F3 else real(x, y)

    # the End decision is `rep.reductions`'; without the modular
    # elimination it checks each characteristic with `hom_dim`
    monkeypatch.setattr(rep, "hom_dim", end_two_over_f3)
    monkeypatch.setattr(rep, "hom_dims_mod", lambda x, y, primes: None)
    build_table(a_n(3), QQ, reduction_orders=(2, 5))
    with pytest.raises(RuntimeError, match="F_3"):
        build_table(a_n(3), QQ, reduction_orders=(2, 3))


@pytest.mark.parametrize("q", [a_n(3), a_n(4), Quiver(3, ((2, 1), (1, 0)))], ids=str)
@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_intervals_are_the_roots_along_the_path_order(q, field):
    """Every root of equioriented A_n is an interval along the path order,
    each interval once."""
    table = build_table(q, field)
    order = dynkin.path_order(q)
    spans = {(min(order.index(v) for v in range(len(r)) if r[v]) + 1,
              max(order.index(v) for v in range(len(r)) if r[v]) + 1) for r in table.roots}
    assert set(table.intervals) == spans and len(spans) == table.size


@pytest.mark.parametrize("q", [Quiver(3, ((0, 1), (2, 1))), d4_subspace()], ids=str)
def test_intervals_refuse_other_quivers(q):
    table = build_table(q, F2)
    with pytest.raises(ValueError):
        table.intervals
