"""Worked counterexample data: the three-arrow Kronecker pair and the D4
field-dependence pair, with matrices emitted bit-exactly."""

from __future__ import annotations

import os

from .exactlin import QQ, FieldSpec, Matrix
from .quiver import Quiver, d4_subspace, kronecker
from .rep import Morphism, Representation, build_projective, power, save_morphism, save_rep

KRONECKER_M_MATRICES = (
    ((1, 0, 0), (0, 0, 0), (0, 0, -1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
)

KRONECKER_G_I = (
    (0, 1),
    (1, 0),
    (0, 0),
    (1, 0),
    (0, 0),
    (0, 1),
)

KRONECKER_G_J = (
    (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 1),
    (0, 0, 0, -1, 0, 0),
)

D4_X_MATRICES = (
    ((1, 0),),
    ((0, 1),),
    ((1, 1),),
)


def kronecker3_quiver() -> Quiver:
    return kronecker(3)


def kronecker3_m(field: FieldSpec = QQ) -> Representation:
    q = kronecker3_quiver()
    mats = [Matrix(field, rows) for rows in KRONECKER_M_MATRICES]
    return Representation(q, field, (3, 3), mats)


def kronecker3_pi(field: FieldSpec = QQ) -> Representation:
    return build_projective(kronecker3_quiver(), 0, field)


def kronecker3_g(field: FieldSpec = QQ) -> Morphism:
    """The injective morphism P_i^2 -> M^2 printed in the source example."""
    pi2 = power(kronecker3_pi(field), 2)
    m2 = power(kronecker3_m(field), 2)
    gi = Matrix(field, KRONECKER_G_I)
    gj = Matrix(field, KRONECKER_G_J)
    return Morphism(pi2, m2, [gi, gj])


def d4_quiver() -> Quiver:
    return d4_subspace()

def d4_p1(field: FieldSpec = QQ) -> Representation:
    return build_projective(d4_quiver(), 0, field)


def d4_x(field: FieldSpec = QQ) -> Representation:
    """The five-dimensional indecomposable: three pairwise distinct line
    kernels in the central plane."""
    q = d4_quiver()
    mats = [Matrix(field, rows) for rows in D4_X_MATRICES]
    return Representation(q, field, (2, 1, 1, 1), mats)


def write_fixtures(directory, field: FieldSpec = QQ) -> list[str]:
    """Emit kronecker3.{m,pi,g}.json and d4.{p1,x}.json; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    written = []

    def emit(name, obj, saver):
        path = os.path.join(directory, name)
        saver(obj, path)
        written.append(path)

    emit("kronecker3.m.json", kronecker3_m(field), save_rep)
    emit("kronecker3.pi.json", kronecker3_pi(field), save_rep)
    emit("kronecker3.g.json", kronecker3_g(field), save_morphism)
    emit("d4.p1.json", d4_p1(field), save_rep)
    emit("d4.x.json", d4_x(field), save_rep)
    return written
