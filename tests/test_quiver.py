import itertools
import json
import random

import pytest

from quiverrep.quiver import (
    Quiver,
    a_n,
    check_dimvector,
    d4_subspace,
    dynkin_type,
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
    topological_order,
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
    assert dynkin_type(a_n(1)) == "A1"
    assert dynkin_type(a_n(4)) == "A4"
    assert dynkin_type(d4_subspace()) == "D4"
    # any orientation is fine
    assert dynkin_type(Quiver(3, ((1, 0), (1, 2)))) == "A3"
    # E6: a path of 5 with a middle branch
    e6 = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
    assert dynkin_type(e6) == "E6"
    # rejects: multi-arrows, cycles, branch of three long arms
    assert not is_dynkin(kronecker(2))
    assert not is_dynkin(Quiver(3, ((0, 1), (1, 2), (2, 0))))
    star = Quiver(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
    assert not is_dynkin(star)
    assert not is_dynkin(Quiver(2, ()))  # disconnected


def test_acyclicity_and_topological_order():
    assert is_acyclic(a_n(4))
    assert topological_order(a_n(4)) == (0, 1, 2, 3)
    assert not is_acyclic(Quiver(2, ((0, 1), (1, 0))))
    assert not is_acyclic(Quiver(1, ((0, 0),)))


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
