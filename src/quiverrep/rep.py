"""Representations, morphisms, and Hom/Ext linear algebra."""

from __future__ import annotations

import json
import random
from itertools import accumulate
from math import prod
from operator import mul, sub

from . import gflin
from .exactlin import FieldSpec, Matrix, rank_modulo
from .quiver import (
    DimVector,
    Quiver,
    check_dimvector,
    euler_form,
    is_acyclic,
    opposite,
    quiver_from_json,
    quiver_to_json,
)


class Representation:
    """Vector spaces at the vertices, one exact matrix per arrow.

    The matrix of an arrow a: i -> j has shape dims[j] x dims[i] and acts on
    column vectors.  Treated as immutable: four answers that depend only
    on the matrices are cached on the object, in slots that `__init__`
    leaves unset.  `dynkin.decompose` keeps its multiplicities in
    `_decomposition`; `an_criterion` keeps an interval basis of a
    representation of equioriented type A in `_interval_basis`;
    `reductions` keeps (dim End over x's field, {order: reduction or None})
    in `_reductions`, whose End entry `dynkin.indecomposable` fills from its
    certificate; `grassmannian.counting_poly` keeps the enumeration oracle
    of a reduction over a finite field in `_oracle`.
    """

    __slots__ = (
        "quiver", "field", "dims", "arrow_mats", "_decomposition", "_interval_basis", "_reductions",
        "_oracle",
    )

    def __init__(self, quiver: Quiver, field: FieldSpec, dims: DimVector, arrow_mats):
        dims = check_dimvector(quiver, dims)
        arrow_mats = tuple(arrow_mats)
        if len(arrow_mats) != quiver.arrow_count:
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(quiver.arrows, arrow_mats):
            if m.field != field:
                raise ValueError("arrow matrix over the wrong field")
            if m.shape != (dims[t], dims[s]):
                raise ValueError(
                    f"arrow ({s},{t}) matrix has shape {m.shape}, expected {(dims[t], dims[s])}"
                )
        self.quiver = quiver
        self.field = field
        self.dims = dims
        self.arrow_mats = arrow_mats

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.arrow_mats == other.arrow_mats
        )

    def __hash__(self) -> int:
        return hash((self.quiver, self.field, self.dims, self.arrow_mats))

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims}, field={self.field})"

    def change_field(self, new_field: FieldSpec) -> "Representation":
        if new_field == self.field:
            return self
        return Representation(
            self.quiver, new_field, self.dims, [m.change_field(new_field) for m in self.arrow_mats]
        )


def zero_representation(q: Quiver, field: FieldSpec) -> Representation:
    dims = tuple(0 for _ in range(q.vertex_count))
    mats = [Matrix.zeros(field, 0, 0) for _ in q.arrows]
    return Representation(q, field, dims, mats)


def simple(q: Quiver, field: FieldSpec, vertex: int) -> Representation:
    dims = tuple(1 if v == vertex else 0 for v in range(q.vertex_count))
    mats = [Matrix.zeros(field, dims[t], dims[s]) for s, t in q.arrows]
    return Representation(q, field, dims, mats)


class Morphism:
    """Per-vertex matrices intertwining two representations exactly."""

    __slots__ = ("source", "target", "vertex_mats")

    def __init__(self, source: Representation, target: Representation, vertex_mats, validate: bool = True):
        if source.quiver != target.quiver:
            raise ValueError("morphism endpoints live over different quivers")
        if source.field != target.field:
            raise ValueError("morphism endpoints live over different fields")
        vertex_mats = tuple(vertex_mats)
        if len(vertex_mats) != source.quiver.vertex_count:
            raise ValueError("one matrix per vertex required")
        for v, m in enumerate(vertex_mats):
            if m.shape != (target.dims[v], source.dims[v]):
                raise ValueError(
                    f"vertex {v} matrix has shape {m.shape}, expected {(target.dims[v], source.dims[v])}"
                )
        self.source = source
        self.target = target
        self.vertex_mats = vertex_mats
        if validate and not self.intertwines():
            raise ValueError("matrices do not satisfy the intertwining relations")

    def intertwines(self) -> bool:
        for (s, t), xa, ya in zip(
            self.source.quiver.arrows, self.source.arrow_mats, self.target.arrow_mats
        ):
            if (self.vertex_mats[t] @ xa).rows != (ya @ self.vertex_mats[s]).rows:
                return False
        return True

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other: X -> Y, self: Y -> Z)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        mats = [a @ b for a, b in zip(self.vertex_mats, other.vertex_mats)]
        return Morphism(other.source, self.target, mats, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.vertex_mats == other.vertex_mats
        )

    def __repr__(self) -> str:
        return f"Morphism({self.source.dims} -> {self.target.dims})"


def identity_morphism(x: Representation) -> Morphism:
    return Morphism(x, x, [Matrix.identity(x.field, d) for d in x.dims], validate=False)


def is_injective_morphism(f: Morphism) -> bool:
    return all(m.rank() == m.ncols for m in f.vertex_mats)


def is_surjective_morphism(f: Morphism) -> bool:
    return all(m.rank() == m.nrows for m in f.vertex_mats)


# ----------------------------------------------------------------------
# Hom and Ext


def _check_pair(x: Representation, y: Representation):
    if x.quiver is not y.quiver and x.quiver != y.quiver:
        raise ValueError("representations live over different quivers")
    if x.field is not y.field and x.field != y.field:
        raise ValueError("representations live over different fields")


def _hom_offsets(x: Representation, y: Representation) -> tuple[list[int], int]:
    """Where each vertex's block of Hom unknowns starts, and their count."""
    _check_pair(x, y)
    offsets = list(accumulate(map(mul, x.dims, y.dims), initial=0))
    return offsets, offsets.pop()


def _intertwining_blocks(x: Representation, y: Representation, offsets):
    """The intertwining equations, one block per arrow and row.

    Unknowns are the entries of the vertex matrices f_v (shape y_v x x_v),
    flattened row-major, blocks starting at `offsets`.  For an arrow
    a: i -> j the equation at (r, c) expresses (f_j X_a - Y_a f_i)[r, c] = 0.
    Row r of the arrow yields the block (plus_base, cols, minus): equation
    (r, c) has the terms X_a[t, c] f_j[r, t] at unknown plus_base + t, for
    the (t, X_a[t, c]) pairs of cols[c], and the terms Y_a[r, s] f_i[s, c]
    at unknown c + u, for the (u, Y_a[r, s]) pairs of minus; nonzero
    coefficients only.  The plus terms of one equation sit at distinct
    unknowns.  cols is shared between the blocks of an arrow.
    """
    for (i, j), xa, ya in zip(x.quiver.arrows, x.arrow_mats, y.arrow_mats):
        xi, xj = x.dims[i], x.dims[j]
        if not (xi and y.dims[j]):
            continue
        # column c of X_a, as (t, X_a[t, c]) pairs
        if xj:
            cols = [[(t, v) for t, v in enumerate(col) if v] for col in zip(*xa.rows)]
        else:
            cols = [()] * xi
        base_i, plus_base = offsets[i], offsets[j]
        for yrow in ya.rows:
            yield plus_base, cols, [(base_i + s * xi, v) for s, v in enumerate(yrow) if v]
            plus_base += xj


def _equation_rows(blocks, ncols: int, zero, sub) -> list[tuple]:
    """The equations of `_intertwining_blocks` as dense coefficient rows,
    with the field's sub."""
    rows = []
    for plus_base, cols, minus in blocks:
        for c, col in enumerate(cols):
            row = [zero] * ncols
            for t, v in col:
                row[plus_base + t] = v
            for u, v in minus:
                row[c + u] = sub(row[c + u], v)
            rows.append(tuple(row))
    return rows


def _hom_system(x: Representation, y: Representation) -> Matrix:
    """Coefficient matrix of the intertwining equations
    (`_intertwining_blocks`), one row per equation."""
    f = x.field
    offsets, ncols = _hom_offsets(x, y)
    rows = _equation_rows(_intertwining_blocks(x, y, offsets), ncols, f.zero, f.sub)
    return Matrix(f, rows, validate=False, ncols=ncols)


def _unflatten_morphism(x: Representation, y: Representation, vec) -> Morphism:
    f = x.field
    mats = []
    pos = 0
    for v in range(x.quiver.vertex_count):
        r, c = y.dims[v], x.dims[v]
        rows = tuple(tuple(vec[pos + i * c + j] for j in range(c)) for i in range(r))
        mats.append(Matrix(f, rows, validate=False, ncols=c))
        pos += r * c
    return Morphism(x, y, mats, validate=False)


def hom_basis(x: Representation, y: Representation) -> tuple[Morphism, ...]:
    """A basis of Hom(x, y) as explicit morphisms."""
    kern = _hom_system(x, y).kernel_basis()
    return tuple(_unflatten_morphism(x, y, kern.col(j)) for j in range(kern.ncols))


def hom_evaluation_rows(
    gf: gflin.Handle, x: Representation, y: Representation, bases
) -> tuple[int, dict]:
    """The action of Hom(x, y) on subspaces of x over a finite field, in
    gflin's row format for the handle gf: h = dim Hom(x, y) and, for each
    vertex v of `bases` (a dict of column bases B_v of subspaces of x_v),
    the stacked table T_v = B_v^T [phi_1,v^T | ... | phi_h,v^T] over a
    basis phi_1, ..., phi_h of Hom(x, y).

    T_v has one row per column of B_v and h * y_v entries per row, grouped
    by basis element: u T_v holds the h evaluations (phi_b,v B_v u)^T side
    by side.  The intertwining equations are converted to gf's format by
    `gflin.pack_rows` and their kernel is taken by
    `gflin.right_kernel_rows`; no `Matrix` is built after the bases.
    """
    offsets, ncols = _hom_offsets(x, y)
    equations = _equation_rows(_intertwining_blocks(x, y, offsets), ncols, 0, x.field.sub)
    kern = gflin.right_kernel_rows(gf, gflin.pack_rows(gf, equations), ncols)
    tables = {}
    for v, b in bases.items():
        off, r, c = offsets[v], y.dims[v], x.dims[v]
        # the rows of every phi_b,v, stacked, times B_v: (h*y_v) x s_v
        blocks = gflin.row_blocks(gf, kern, ncols, off, r, c)
        evaluations = gflin.matmul_rows(gf, blocks, gflin.pack_rows(gf, b.rows), b.ncols)
        tables[v] = gflin.transpose_rows(gf, evaluations, b.ncols)
    return len(kern), tables


def hom_dim(x: Representation, y: Representation) -> int:
    system = _hom_system(x, y)
    return system.ncols - system.rank()


def hom_dims_mod(x: Representation, y: Representation, primes) -> dict[int, int] | None:
    """dim Hom(x mod p, y mod p) for every prime p in `primes`, for x and y
    over Q, from one elimination of their Hom system modulo the product of
    the primes (`exactlin.rank_modulo`); None when an entry's denominator
    shares a prime with it or the elimination finds no unit pivot.

    The system of x mod p is the rational system reduced mod p, and its
    kernel dimension over F_{p^k} does not depend on k.
    """
    primes = sorted(set(primes))
    modulus = prod(primes)
    offsets, ncols = _hom_offsets(x, y)
    blocks = _intertwining_blocks(x, y, offsets)
    try:
        rows = [
            [v and v.numerator * pow(v.denominator, -1, modulus) for v in row]
            for row in _equation_rows(blocks, ncols, 0, sub)
        ]
    except ValueError:  # a denominator not invertible mod the product
        return None
    rank = rank_modulo(rows, modulus)
    return None if rank is None else dict.fromkeys(primes, ncols - rank)


def reductions(m: Representation, orders) -> dict[int, Representation | None]:
    """m over Q reduced into F_q for each order q in `orders`, or None where
    the reduction changes dim End.

    Computed once per representation: the answers are kept on m (its
    `_reductions` slot), so a later call reuses dim End over Q, each
    characteristic's reduction and verdict, and each order's reduced
    `Representation`, and returns the same objects in a fresh dict.

    dim End is computed over Q (`hom_dim`) and modulo every new
    characteristic at once (`hom_dims_mod`); only where that elimination
    cannot decide, once per characteristic over F_p.  m is reduced once per
    characteristic: its reduction into F_{p^k} has its entries in F_p, so
    it reuses F_p's entries and verdict.  A denominator that a
    characteristic divides is `Matrix.change_field`'s ValueError, and such
    a call keeps nothing.
    """
    fields = {q: FieldSpec.of_order(q) for q in orders}
    end, reduced = getattr(m, "_reductions", None) or (None, {})
    mod_p = {}
    for f in fields.values():
        p = f.characteristic
        if p not in reduced and p not in mod_p:
            mod_p[p] = m.change_field(FieldSpec.of_order(p))
    if mod_p:
        if end is None:
            end = hom_dim(m, m)
        end_mod = hom_dims_mod(m, m, mod_p) or {p: hom_dim(x, x) for p, x in mod_p.items()}
        reduced.update((p, x if end_mod[p] == end else None) for p, x in mod_p.items())
        m._reductions = end, reduced
    for q, f in fields.items():
        if q not in reduced:
            x = reduced[f.characteristic]
            reduced[q] = None if x is None else x.change_field(f)
    return {q: reduced[q] for q in fields}


def ext_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1(x, y) = dim Hom(x, y) - <dim x, dim y> (hereditary case).

    The same elimination gives the dimension a second time, as the cokernel
    of the standard two-term projective resolution's Hom sequence; the two
    answers must agree, or a RuntimeError reports the internal
    inconsistency.  The check costs nothing beyond that one elimination.
    """
    _check_pair(x, y)
    if not is_acyclic(x.quiver):
        raise ValueError("Ext^1 formula requires an acyclic quiver")
    system = _hom_system(x, y)
    rk = system.rank()
    ext = system.ncols - rk - euler_form(x.quiver, x.dims, y.dims)
    coker = system.nrows - rk
    if coker != ext:
        raise RuntimeError(f"Ext cross-check failed: cokernel gives {coker}, Euler identity gives {ext}")
    return ext


# ----------------------------------------------------------------------
# Socle, subspaces, quotients


def socle_at(x: Representation, vertex: int) -> Matrix:
    """Basis (columns) of the joint kernel of the arrow maps leaving vertex.

    That kernel is the socle at vertex only when x is nilpotent, so on a
    quiver with an oriented cycle a non-nilpotent x is a ValueError
    (`_require_nilpotent`); acyclic quivers skip the test.
    """
    if not is_acyclic(x.quiver):
        _require_nilpotent(x)
    return _arrow_kernel(x, vertex)


def _socles(x: Representation) -> dict[int, Matrix]:
    """The nonzero socles of x, by vertex: `socle_at` at every vertex, with
    one nilpotency walk for all of them."""
    if not is_acyclic(x.quiver):
        _require_nilpotent(x)
    return {v: soc for v in range(x.quiver.vertex_count) if (soc := _arrow_kernel(x, v)).ncols}


def _arrow_kernel(x: Representation, vertex: int) -> Matrix:
    """Basis (columns) of the joint kernel of the arrow maps leaving vertex."""
    outgoing = [x.arrow_mats[i] for i, _ in x.quiver.out_arrows[vertex]]
    if not outgoing:
        return Matrix.identity(x.field, x.dims[vertex])
    return Matrix.vstack(outgoing).kernel_basis()


def _require_nilpotent(x: Representation) -> None:
    """ValueError unless every path of length total_dim acts as 0 on x.

    A non-nilpotent x has simple subrepresentations other than the S_v
    (the one-loop quiver with x = 1 has no S_v in it at all), so the joint
    kernels of `socle_at` miss them.  Walks the spans of the images of the
    paths of length 1, 2, ..., total_dim, one row basis per vertex: the sum
    of the arrows' images, not the image of their sum, which parallel
    arrows a and -a would make 0 whatever a is.
    """
    f = x.field
    span = [Matrix.identity(f, d) for d in x.dims]
    for _ in range(x.total_dim):
        images = [[Matrix.zeros(f, 0, d)] for d in x.dims]
        for (s, t), a in zip(x.quiver.arrows, x.arrow_mats):
            images[t].append(span[s] @ a.transpose())
        span = []
        for t, blocks in enumerate(images):
            red, pivots = Matrix.vstack(blocks).rref()
            span.append(Matrix(f, red.rows[: len(pivots)], validate=False, ncols=x.dims[t]))
    if any(b.nrows for b in span):
        raise ValueError("representation is not nilpotent: its socle is not the kernel of the arrows")


def _column_span_contains(span: Matrix, vecs: Matrix) -> bool:
    if vecs.ncols == 0:
        return True
    return Matrix.hstack([span, vecs]).rank() == span.rank()


def check_subspaces_stable(x: Representation, sub) -> None:
    """Raise unless the per-vertex column bases are arrow-stable."""
    sub = list(sub)
    if len(sub) != x.quiver.vertex_count:
        raise ValueError("one subspace basis per vertex required")
    for v, b in enumerate(sub):
        if b.nrows != x.dims[v]:
            raise ValueError(f"subspace basis at vertex {v} has wrong ambient dimension")
        if b.ncols and b.rank() != b.ncols:
            raise ValueError(f"subspace basis at vertex {v} is not independent")
    for (s, t), m in zip(x.quiver.arrows, x.arrow_mats):
        image = m @ sub[s]
        if not _column_span_contains(sub[t], image):
            raise ValueError(f"subspaces not stable under arrow ({s},{t})")


def quotient(x: Representation, sub) -> tuple[Representation, Morphism]:
    """Quotient of x by an arrow-stable family of subspaces.

    `sub` is one column-basis Matrix per vertex.  Returns the quotient
    representation together with the projection morphism; the projection's
    kernel is exactly the given family.
    """
    check_subspaces_stable(x, sub)
    f = x.field
    sub = list(sub)
    change = []  # per-vertex invertible C = [basis | completion]
    projections = []
    for v in range(x.quiver.vertex_count):
        b = sub[v]
        d = x.dims[v]
        s = b.ncols
        pivot_rows = b.transpose().rref()[1] if s else ()
        pivset = set(pivot_rows)
        completion = [j for j in range(d) if j not in pivset][: d - s]
        cols = [b.col(j) for j in range(s)]
        for j in completion:
            cols.append(tuple(f.one if i == j else f.zero for i in range(d)))
        c = Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, d, 0)
        if d and c.rank() != d:
            raise RuntimeError("basis completion failed")
        cinv = c.solve_matrix(Matrix.identity(f, d)) if d else Matrix.zeros(f, 0, 0)
        if cinv is None:
            raise RuntimeError("basis completion not invertible")
        change.append((c, cinv, s))
        proj = Matrix(f, cinv.rows[s:], validate=False, ncols=d)
        projections.append(proj)
    new_dims = tuple(x.dims[v] - sub[v].ncols for v in range(x.quiver.vertex_count))
    new_mats = []
    for (sv, tv), m in zip(x.quiver.arrows, x.arrow_mats):
        c_s, _, rank_s = change[sv]
        _, cinv_t, rank_t = change[tv]
        full = cinv_t @ m @ c_s if x.dims[sv] and x.dims[tv] else Matrix.zeros(f, x.dims[tv], x.dims[sv])
        block = full.submatrix(range(rank_t, x.dims[tv]), range(rank_s, x.dims[sv]))
        lower_left = full.submatrix(range(rank_t, x.dims[tv]), range(rank_s))
        if not lower_left.is_zero():
            raise RuntimeError("quotient matrix not well defined; stability check failed")
        new_mats.append(block)
    quot = Representation(x.quiver, f, new_dims, new_mats)
    proj = Morphism(x, quot, projections)
    return quot, proj


# ----------------------------------------------------------------------
# Direct sums and powers


def direct_sum(xs) -> Representation:
    xs = list(xs)
    if not xs:
        raise ValueError("direct_sum of an empty family needs a quiver; use zero_representation")
    q, f = xs[0].quiver, xs[0].field
    for x in xs:
        if x.quiver != q or x.field != f:
            raise ValueError("direct_sum requires the same quiver and field")
    dims = tuple(sum(x.dims[v] for x in xs) for v in range(q.vertex_count))
    mats = [
        Matrix.block_diag(f, [x.arrow_mats[a] for x in xs]) for a in range(q.arrow_count)
    ]
    return Representation(q, f, dims, mats)


def power(x: Representation, r: int) -> Representation:
    if r < 0:
        raise ValueError("power must be nonnegative")
    if r == 0:
        return zero_representation(x.quiver, x.field)
    if r == 1:
        return x
    return direct_sum([x] * r)


# ----------------------------------------------------------------------
# Random representations


def random_representation(
    q: Quiver, d: DimVector, field: FieldSpec, seed: int, box: int = 100
) -> Representation:
    """Arrow matrices with seeded uniform entries (integer box over Q)."""
    d = check_dimvector(q, d)
    rng = random.Random(seed)
    mats = []
    for s, t in q.arrows:
        rows = tuple(tuple(field.random(rng, box) for _ in range(d[s])) for _ in range(d[t]))
        mats.append(Matrix(field, rows, validate=False, ncols=d[s]))
    return Representation(q, field, d, mats)


# ----------------------------------------------------------------------
# Projectives, injectives, duals


def _paths_from(q: Quiver, start: int):
    """All directed paths out of `start` as arrow-index tuples, sorted."""
    if not is_acyclic(q):
        raise ValueError("path enumeration requires an acyclic quiver")
    paths = {v: [] for v in range(q.vertex_count)}
    paths[start].append(())
    stack = [((), start)]
    while stack:
        path, v = stack.pop()
        for idx, t in q.out_arrows[v]:
            newp = path + (idx,)
            paths[t].append(newp)
            stack.append((newp, t))
    return {v: sorted(ps, key=lambda p: (len(p), p)) for v, ps in paths.items()}


def build_projective(q: Quiver, vertex: int, field: FieldSpec) -> Representation:
    """Indecomposable projective P_vertex: basis = paths out of the vertex."""
    paths = _paths_from(q, vertex)
    dims = tuple(len(paths[v]) for v in range(q.vertex_count))
    index = {v: {p: i for i, p in enumerate(paths[v])} for v in range(q.vertex_count)}
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        m = [[field.zero] * dims[s] for _ in range(dims[t])]
        for p, col in index[s].items():
            row = index[t][p + (a,)]
            m[row][col] = field.one
        mats.append(Matrix(field, tuple(tuple(r) for r in m), validate=False, ncols=dims[s]))
    return Representation(q, field, dims, mats)


def dual(x: Representation) -> Representation:
    """The k-linear dual: a representation of the opposite quiver with
    transposed arrow matrices."""
    return Representation(
        opposite(x.quiver), x.field, x.dims, [m.transpose() for m in x.arrow_mats]
    )


def dual_morphism(f: Morphism) -> Morphism:
    """Dual of a morphism: direction reverses, vertex matrices transpose."""
    return Morphism(
        dual(f.target), dual(f.source), [m.transpose() for m in f.vertex_mats], validate=False
    )


def build_injective(q: Quiver, vertex: int, field: FieldSpec) -> Representation:
    """Indecomposable injective I_vertex, the dual of the opposite projective."""
    return dual(build_projective(opposite(q), vertex, field))


# ----------------------------------------------------------------------
# Serialization
#
# {"quiver": {...}, "field": "Q" | "F_q", "dims": [...],
#  "matrices": [[[entries]], ...]} with matrices positional in the
# quiver's arrow order.  Rational entries serialize as "p/q" or "p".


def _entry_to_json(field: FieldSpec, x):
    if field.is_rationals:
        return str(x)
    return int(x)


def rep_to_json(x: Representation) -> dict:
    return {
        "quiver": quiver_to_json(x.quiver),
        "field": x.field.name,
        "dims": list(x.dims),
        "matrices": [
            [[_entry_to_json(x.field, e) for e in row] for row in m.rows] for m in x.arrow_mats
        ],
    }


def rep_from_json(data: dict) -> Representation:
    """Parse a representation, raising ValueError on any malformed structure."""
    if not isinstance(data, dict):
        raise ValueError("a representation must be a JSON object")
    q = quiver_from_json(data["quiver"])
    field = FieldSpec.parse(data["field"])
    dims = data["dims"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ValueError("dims must be a list of integers")
    dims = check_dimvector(q, dims)
    matrices = data["matrices"]
    if not isinstance(matrices, list) or len(matrices) != q.arrow_count:
        raise ValueError(f"matrices must be a list of {q.arrow_count} matrices, one per arrow")
    mats = [
        _matrix_from_json(field, rows, dims[t], dims[s], f"arrow ({s},{t})")
        for (s, t), rows in zip(q.arrows, matrices)
    ]
    return Representation(q, field, dims, mats)


def _matrix_from_json(field: FieldSpec, rows, nrows: int, ncols: int, where: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows or any(
        not isinstance(r, list) or len(r) != ncols for r in rows
    ):
        raise ValueError(f"{where} needs a list of {nrows} rows of {ncols} entries")
    return Matrix(field, rows, ncols=ncols)


def save_rep(x: Representation, path) -> None:
    with open(path, "w") as fh:
        json.dump(rep_to_json(x), fh, indent=1)


def load_rep(path) -> Representation:
    with open(path) as fh:
        return rep_from_json(json.load(fh))


def morphism_to_json(f: Morphism) -> dict:
    field = f.source.field
    return {
        "source": rep_to_json(f.source),
        "target": rep_to_json(f.target),
        "vertex_matrices": [
            [[_entry_to_json(field, e) for e in row] for row in m.rows] for m in f.vertex_mats
        ],
    }


def morphism_from_json(data: dict) -> Morphism:
    """Parse a morphism, raising ValueError on any malformed structure."""
    if not isinstance(data, dict):
        raise ValueError("a morphism must be a JSON object")
    src = rep_from_json(data["source"])
    tgt = rep_from_json(data["target"])
    if src.quiver != tgt.quiver:
        raise ValueError("morphism endpoints live over different quivers")
    matrices = data["vertex_matrices"]
    n = src.quiver.vertex_count
    if not isinstance(matrices, list) or len(matrices) != n:
        raise ValueError(f"vertex_matrices must be a list of {n} matrices, one per vertex")
    mats = [
        _matrix_from_json(src.field, rows, tgt.dims[v], src.dims[v], f"vertex {v}")
        for v, rows in enumerate(matrices)
    ]
    return Morphism(src, tgt, mats)


def save_morphism(f: Morphism, path) -> None:
    with open(path, "w") as fh:
        json.dump(morphism_to_json(f), fh, indent=1)


def load_morphism(path) -> Morphism:
    with open(path) as fh:
        return morphism_from_json(json.load(fh))
