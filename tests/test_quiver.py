import heapq
import itertools
import json
import random

import pytest

from quiverrep.criteria import path_order
from quiverrep.quiver import (
    Quiver,
    a_n,
    check_dimvector,
    d4_subspace,
    euler_form,
    functional,
    is_acyclic,
    is_dynkin,
    kronecker,
    load_quiver,
    opposite,
    quiver_from_json,
    quiver_to_json,
    save_quiver,
)


def test_check_dimvector_normalizes_and_rejects():
    assert check_dimvector(a_n(3), [1, "2", 0]) == (1, 2, 0)
    assert check_dimvector(a_n(2), (x for x in (0, 3))) == (0, 3)
    assert check_dimvector(Quiver(0, ()), []) == ()
    with pytest.raises(ValueError, match="length 2 != vertex count 3"):
        check_dimvector(a_n(3), (1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        check_dimvector(a_n(3), (1, -1, 0))
    with pytest.raises(ValueError):
        check_dimvector(a_n(2), ("x", 1))


def test_euler_a2_diagonal():
    assert euler_form(a_n(2), (1, 1), (1, 1)) == 1


def test_euler_k3_off_diagonal():
    assert euler_form(kronecker(3), (1, 0), (0, 1)) == -3


def test_euler_kk_slope_functional():
    # on the k-arrow Kronecker quiver the functional of e = (k-1, 1) is
    # dim-at-sink minus dim-at-source
    for k in (2, 3, 5):
        q = kronecker(k)
        e = (k - 1, 1)
        for n1, n2 in itertools.product(range(4), repeat=2):
            assert functional(q, e, (n1, n2)) == n2 - n1


def test_functional_is_linear():
    rng = random.Random(0)
    q = d4_subspace()
    e = (2, 1, 1, 1)
    for _ in range(20):
        d1 = tuple(rng.randint(0, 4) for _ in range(4))
        d2 = tuple(rng.randint(0, 4) for _ in range(4))
        s = tuple(a + b for a, b in zip(d1, d2))
        assert functional(q, e, s) == functional(q, e, d1) + functional(q, e, d2)
    assert functional(q, e, (0, 0, 0, 0)) == 0


def test_euler_biadditive():
    rng = random.Random(1)
    q = a_n(3)
    for _ in range(30):
        d1, d2, e = (tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(3))
        s = tuple(a + b for a, b in zip(d1, d2))
        assert euler_form(q, s, e) == euler_form(q, d1, e) + euler_form(q, d2, e)


def test_tits_positive_definite_on_dynkin():
    for q in (a_n(3), d4_subspace()):
        n = q.vertex_count
        for e in itertools.product(range(5), repeat=n):
            if any(e):
                assert euler_form(q, e, e) >= 1


def test_opposite_involution_and_examples():
    a2 = a_n(2)
    assert opposite(a2).arrows == ((1, 0),)
    assert opposite(opposite(a2)) == a2
    k3 = kronecker(3)
    assert opposite(k3).arrows == ((1, 0), (1, 0), (1, 0))
    d4 = d4_subspace()
    assert all(t == 0 for _, t in opposite(d4).arrows)


def test_opposite_euler_swap():
    rng = random.Random(2)
    q = d4_subspace()
    for _ in range(20):
        d = tuple(rng.randint(0, 3) for _ in range(4))
        e = tuple(rng.randint(0, 3) for _ in range(4))
        assert euler_form(q, d, e) == euler_form(opposite(q), e, d)


def test_dynkin_recognition():
    assert a_n(1).dynkin_type == "A1"
    assert a_n(4).dynkin_type == "A4"
    assert d4_subspace().dynkin_type == "D4"
    # any orientation is fine
    assert Quiver(3, ((1, 0), (1, 2))).dynkin_type == "A3"
    # E6: a path of 5 with a middle branch
    e6 = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
    assert e6.dynkin_type == "E6"
    # rejects: multi-arrows, cycles, branch of three long arms
    assert not is_dynkin(kronecker(2))
    assert not is_dynkin(Quiver(3, ((0, 1), (1, 2), (2, 0))))
    star = Quiver(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
    assert not is_dynkin(star)
    assert not is_dynkin(Quiver(2, ()))  # disconnected


def test_acyclicity_and_topological_order():
    assert is_acyclic(a_n(4))
    assert a_n(4).topological_order == (0, 1, 2, 3)
    assert not is_acyclic(Quiver(2, ((0, 1), (1, 0))))
    assert not is_acyclic(Quiver(1, ((0, 0),)))


def _heap_topological_order(q):
    """Reference order: repeatedly take the smallest vertex all of whose
    in-arrows come from vertices already taken; None with a cycle."""
    indeg = [0] * q.vertex_count
    for _, t in q.arrows:
        indeg[t] += 1
    heap = [v for v in range(q.vertex_count) if indeg[v] == 0]
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for s, t in q.arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heapq.heappush(heap, t)
    return tuple(order) if len(order) == q.vertex_count else None


def _walked_path_order(q):
    """Reference path order of an equioriented A_n: n - 1 arrows, no vertex
    with two out- or two in-arrows, and one source whose walk along the
    out-arrows reaches every vertex; else None."""
    n = q.vertex_count
    if n == 0 or q.arrow_count != n - 1:
        return None
    outs = {}
    indeg = [0] * n
    for s, t in q.arrows:
        if s in outs:
            return None
        outs[s] = t
        indeg[t] += 1
    if any(d > 1 for d in indeg):
        return None
    starts = [v for v in range(n) if indeg[v] == 0]
    if len(starts) != 1:
        return None
    order = [starts[0]]
    while order[-1] in outs:
        order.append(outs[order[-1]])
    return tuple(order) if len(order) == n else None


def _orientations(n, edges):
    """Every orientation of a graph on n vertices, under its own numbering
    and under a seeded renumbering with the arrows listed in another order."""
    rng = random.Random(n * 100 + len(edges))
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)]
        perm = rng.sample(range(n), n)
        yield Quiver(n, tuple(arrows))
        yield Quiver(n, tuple(rng.sample([(perm[s], perm[t]) for s, t in arrows], len(arrows))))


def _view_cases():
    """(quiver, expected Dynkin type) for every orientation of A1-A5, D4, D5
    and E6, Kronecker(2) and (3), a loop, a 2-cycle and a disconnected
    quiver."""
    for n in range(1, 6):
        for q in _orientations(n, [(i, i + 1) for i in range(n - 1)]):
            yield q, f"A{n}"
    for name, n, edges in (
        ("D4", 4, [(0, 1), (0, 2), (0, 3)]),
        ("D5", 5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
        ("E6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
    ):
        for q in _orientations(n, edges):
            yield q, name
    for q in (kronecker(2), kronecker(3), opposite(kronecker(3)), Quiver(1, ((0, 0),)),
              Quiver(2, ((0, 1), (1, 0))), Quiver(4, ((1, 0), (3, 2)))):
        yield q, None


def test_views_match_brute_force_references():
    cases = list(_view_cases())
    equioriented = 0
    for q, kind in cases:
        assert q.dynkin_type == kind, q.arrows
        assert q.topological_order == _heap_topological_order(q), q.arrows
        assert path_order(q) == _walked_path_order(q), q.arrows
        equioriented += path_order(q) is not None
        indexed = [(i, s, t) for i, (s, t) in enumerate(q.arrows)]
        outs = [(i, s, t) for s, out in enumerate(q.out_arrows) for i, t in out]
        ins = [(i, s, t) for t, into in enumerate(q.in_arrows) for i, s in into]
        assert outs == sorted(indexed, key=lambda a: (a[1], a[0])), q.arrows
        assert ins == sorted(indexed, key=lambda a: (a[2], a[0])), q.arrows
    # the orders the smallest-first rule decides: several sources at once
    assert sum(len({v for v, into in enumerate(q.in_arrows) if not into}) > 1 for q, _ in cases) >= 100
    assert equioriented == 2 * (1 + 2 + 2 + 2 + 2)


def test_views_leave_equality_and_hash_alone():
    for q, _ in _view_cases():
        fresh = Quiver(q.vertex_count, q.arrows, q.labels)
        views = (q.in_arrows, q.out_arrows, q.topological_order, q.dynkin_type)
        assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
        assert {q: 1}[fresh] == 1
        # computed once: a second read returns the same objects
        assert all(a is b for a, b in zip(views, (q.in_arrows, q.out_arrows, q.topological_order, q.dynkin_type)))


def test_quiver_json_roundtrip(tmp_path):
    q = Quiver(3, ((0, 1), (0, 2)), labels=("x", "y", "z"))
    data = quiver_to_json(q)
    assert data == {"vertices": ["x", "y", "z"], "arrows": [["x", "y"], ["x", "z"]]}
    assert quiver_from_json(json.loads(json.dumps(data))) == q
    path = tmp_path / "q.json"
    save_quiver(q, path)
    assert load_quiver(path) == q


def test_quiver_json_accepts_indices():
    q = quiver_from_json({"vertices": ["a", "b"], "arrows": [[0, 1]]})
    assert q.arrows == ((0, 1),)
    with pytest.raises(ValueError):
        quiver_from_json({"vertices": ["a"], "arrows": [["a", "bogus"]]})
    labels = ["1", "2", "3"]
    for arrows in ([[1, "2"]], [[0, 1], ["2", "3"]], [[True, 2]], [["1", True]]):
        with pytest.raises(ValueError):  # one endpoint kind per file, and no booleans
            quiver_from_json({"vertices": labels, "arrows": arrows})


def test_invalid_quivers_rejected():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 5),))
    with pytest.raises(ValueError):
        Quiver(2, (), labels=("x",))
    with pytest.raises(ValueError):
        euler_form(a_n(2), (1,), (1, 1))
