"""Dynkin-specific machinery: positive roots, indecomposables by reflection
functors, decomposition read off their projective presentations, the type-A
socle reach R_i read off the roots, the intervals of equioriented type A, and
generic representations."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate
from operator import mul

from .exactlin import FieldSpec, Matrix
from .quiver import (
    DimVector,
    Quiver,
    check_dimvector,
    dim_leq,
    dim_sub,
    euler_form,
    opposite,
    require_dynkin,
)
from .rep import (
    Representation,
    _paths_from,
    direct_sum,
    hom_dim,
    reductions,
    zero_representation,
)

def positive_roots(q: Quiver) -> list[DimVector]:
    """All d > 0 with <d, d> = 1, sorted; requires Dynkin.

    Grown level by level from the simple roots: for a positive root d and
    a simple root s, d + s is a root exactly when (d, s) = <d,s> + <s,d>
    is -1, and every positive root is reached this way.
    """
    require_dynkin(q)
    n = q.vertex_count
    simple = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    roots: set[DimVector] = set()
    level = set(simple)
    while level:
        roots |= level
        level = {
            tuple(x + y for x, y in zip(d, s))
            for d in level
            for s in simple
            if euler_form(q, d, s) + euler_form(q, s, d) == -1
        }
    return sorted(roots)


def path_order(q: Quiver):
    """Vertices of an equioriented A_n quiver in path order, or None: a
    type A quiver with no two arrows into or out of one vertex is a
    directed path, whose one topological order is its path order."""
    if not (q.dynkin_type or "").startswith("A"):
        return None
    if any(len(arrows) > 1 for arrows in q.in_arrows + q.out_arrows):
        return None
    return q.topological_order


def _sinks(q: Quiver):
    """The sink walk of BGP reflection functors, endless: the smallest sink
    k of the current orientation and the arrows into it, {arrow index:
    source}; those arrows are then reversed, so k becomes a source.  Every
    vertex recurs, since a vertex only becomes a sink again after all its
    neighbours were reflected."""
    arrows = list(q.arrows)
    while True:
        k = min(v for v in range(q.vertex_count) if all(s != v for s, _ in arrows))
        into = {a: s for a, (s, t) in enumerate(arrows) if t == k}
        yield k, into
        for a, s in into.items():
            arrows[a] = (k, s)


def _reflect(d: list[int], k: int, neighbours) -> None:
    """s_k on a dimension vector, in place: d_k becomes the sum over the
    neighbours of k minus d_k."""
    d[k] = sum(d[j] for j in neighbours) - d[k]


def indecomposable(q: Quiver, root: DimVector, field: FieldSpec) -> Representation:
    """The indecomposable of a positive root, by BGP reflection functors.

    Reflecting d at sinks of the current orientation, d -> s_k(d), reaches
    a simple root alpha_k (Bernstein-Gelfand-Ponomarev, 1973).  Starting
    from the simple S_k, the functors S_k^- undo those reflections in
    reverse order: at a source k of the current orientation, V_k is
    replaced by the cokernel of V_k -> (+)_j V_j, and the reversed arrows
    j -> k are the blocks of the quotient map.  The matrices have entries
    in {0, +-1}.  Certified by dim End = 1, else RuntimeError; the
    certificate is kept on x, so `rep.reductions` does not compute it again.
    """
    root = check_dimvector(q, root)
    if euler_form(q, root, root) != 1 or not any(root):
        raise ValueError(f"{root} is not a positive root")
    require_dynkin(q)
    dims = list(root)
    steps = []
    walk = _sinks(q)
    while sum(dims) != 1:
        k, into = next(walk)
        _reflect(dims, k, into.values())
        steps.append((k, into))
    # maps of S_k are zero; an arrow gets a matrix once an endpoint is rebuilt
    mats: dict[int, Matrix] = {}

    def current(a: int, rows: int, cols: int) -> Matrix:
        return mats[a] if a in mats else Matrix.zeros(field, dims[rows], dims[cols])

    for k, into in reversed(steps):
        stacked = Matrix.vstack([current(a, j, k) for a, j in into.items()])
        coker = stacked.transpose().kernel_basis().transpose()
        col = 0
        for a, j in into.items():
            mats[a] = coker.submatrix(range(coker.nrows), range(col, col + dims[j]))
            col += dims[j]
        dims[k] = coker.nrows
    x = Representation(q, field, root, [current(a, t, s) for a, (s, t) in enumerate(q.arrows)])
    if hom_dim(x, x) != 1:
        raise RuntimeError(f"the reflection-functor module of {root} over {field} has End != 1")
    x._reductions = 1, {}
    return x


def _paths(q: Quiver) -> dict[tuple[int, int], tuple[int, ...]]:
    """The path a -> b as arrow indices, for every (a, b) that one joins,
    (a, a) included; at most one per pair, since the underlying graph of a
    Dynkin quiver is a tree."""
    return {(a, b): p for a in range(q.vertex_count) for b, ps in _paths_from(q, a).items() for p in ps}


def _presentation(x: Representation, into) -> tuple[tuple[int, ...], tuple]:
    """A minimal projective presentation P_1 -> P_0 -> x -> 0 of a
    representation x of a Dynkin quiver, as (tops, relations); `into`
    lists (b, ((arrow, source), ...)) for every vertex b in topological
    order.

    P_0 = (+)_l P_{tops[l]}, one summand per generator of x's top.  Vertex
    by vertex in topological order, pi_b: (P_0)_b -> x_b sends the path
    from generator l to its image in x_b; its columns are X_a pi_i for the
    arrows a: i -> b, then unit vectors of x_b complementing their span,
    which become the generators at b.  One elimination of
    (X_a pi_i ... | I) gives both.  A free column of pi_b that is not
    already free in the pi_i it comes through gives a relation: its kernel
    vector, which vanishes at the generators at b.  These vectors and the
    kernels of the pi_i (mapped along the arrows) form a basis of ker pi_b,
    so the relations are a basis of the top of ker(P_0 -> x) = P_1.  A
    relation (b, ((l, c_l), ...)) is the element sum_l c_l p_l of
    (P_0)_b, p_l the path tops[l] -> b; every p_l has length >= 1.
    """
    f = x.field
    dot, one = f.row_ops[0], f.one
    tops: list[int] = []
    relations = []
    image = {}  # b -> (generator of each column of pi_b, the columns, generators of the free ones)
    for b, arrows in into:
        d = x.dims[b]
        labels, cols, carried = [], [], set()
        for a, i in arrows:
            lab, pi, free = image[i]
            labels += lab
            cols += [tuple(dot(row, c) for row in x.arrow_mats[a].rows) for c in pi]
            carried |= free
        width = len(labels)
        if width and d:
            rows = [[c[r] for c in cols] + [one if k == r else f.zero for k in range(d)] for r in range(d)]
            red, pivots = Matrix(f, rows, validate=False, ncols=width + d).rref()
        else:  # no columns or no rows: (X_a pi_i ... | I) is already reduced
            red, pivots = None, tuple(range(width, width + d))
        row_of = {p: r for r, p in enumerate(pivots) if p < width}
        free = [j for j in range(width) if j not in row_of]
        for j in free:
            if labels[j] not in carried:
                coeffs = [(labels[j], one)]
                coeffs += [(labels[p], f.neg(red.rows[r][j])) for p, r in row_of.items() if red.rows[r][j]]
                relations.append((b, tuple(sorted(coeffs))))
        fresh = [p - width for p in pivots if p >= width]
        image[b] = (
            labels + list(range(len(tops), len(tops) + len(fresh))),
            cols + [tuple(one if r == k else f.zero for r in range(d)) for k in fresh],
            {labels[j] for j in free},
        )
        tops += [b] * len(fresh)
    return tuple(tops), tuple(relations)


def _phi(f: FieldSpec, dims, comp, tops, relations) -> Matrix:
    """Phi_U(x) of `IndecomposableTable.hom_into`, with x_p = comp[a, b]."""
    scale, zero, one = f.row_ops[1], f.zero, f.one
    offsets = list(accumulate((dims[a] for a in tops), initial=0))
    width = offsets.pop()
    rows = []
    for b, coeffs in relations:
        blocks = [(offsets[l], c, comp[tops[l], b].rows) for l, c in coeffs]
        for r in range(dims[b]):
            row = [zero] * width
            for start, c, block in blocks:
                seg = block[r]
                row[start : start + len(seg)] = seg if c == one else scale(c, seg)
            rows.append(row)
    return Matrix(f, rows, validate=False, ncols=width)


@dataclass(frozen=True)
class IndecomposableTable:
    """All indecomposables of a Dynkin quiver plus their Hom matrix.

    hom_matrix[u][v] = dim Hom(reps[u], reps[v]) = max(<u, v>, 0): the
    category is directed (Ringel, 1998), so Hom and Ext between two
    indecomposables are never both nonzero.  It is unitriangular in an
    order refining Hom-nonvanishing; the table keeps one as hom_order and
    refuses to exist without it.  Roots are kept in lexicographic order.
    projective and injective hold the indices of the roots of the
    projectives and injectives, found by path counts.  euler[u][v] =
    <u, v>, computed with the table.  Views that not every caller needs
    (presentations, socle_reach, intervals, and the Euler rows on unit
    vectors, euler_from_root and euler_into_root) are built on first use.
    """

    quiver: Quiver
    field: FieldSpec
    roots: tuple[DimVector, ...]
    reps: tuple[Representation, ...]
    hom_matrix: tuple[tuple[int, ...], ...]
    euler: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)
    hom_order: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)
    projective: frozenset[int] = dc_field(init=False, repr=False, compare=False)
    injective: frozenset[int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "euler", _euler_values(self.quiver, self.roots))
        for i in range(self.size):
            if self.hom_matrix[i][i] != 1:
                raise RuntimeError("table invalid: an entry has End dimension != 1")
            if self.ext_entry(i, i) != 0:
                raise RuntimeError("table invalid: an entry has self-extensions")
        before = {v: [u for u, h in enumerate(col) if h and u != v]
                  for v, col in enumerate(zip(*self.hom_matrix))}
        try:
            object.__setattr__(self, "hom_order", tuple(TopologicalSorter(before).static_order()))
        except CycleError:
            raise RuntimeError("table invalid: Hom matrix is not unitriangular in any order") from None
        q = self.quiver
        for name, quiver in (("projective", q), ("injective", opposite(q))):
            dims = {tuple(map(len, _paths_from(quiver, v).values())) for v in range(q.vertex_count)}
            object.__setattr__(self, name, frozenset(i for i, r in enumerate(self.roots) if r in dims))

    @property
    def size(self) -> int:
        return len(self.roots)

    def multiplicities(self, hom_into, dims: DimVector) -> list[int]:
        """Multiplicities mu of the indecomposables in an x of dimension vector
        dims with ([U, x])_U = hom_into, indexed like roots: back-substitution
        in reverse hom_order, where mu is still 0 at u and before it when u is
        reached.  A negative entry or a wrong total is a RuntimeError (a
        corrupted table, or x is not over the table's quiver)."""
        mu = [0] * self.size
        for u in reversed(self.hom_order):
            mu[u] = hom_into[u] - sum(map(mul, self.hom_matrix[u], mu))
        for root, value in zip(self.roots, mu):
            if value < 0:
                raise RuntimeError(f"negative multiplicity {value} at root {root}")
        if tuple(sum(map(mul, mu, column)) for column in zip(*self.roots)) != dims:
            raise RuntimeError("decomposition does not reconstruct the dimension vector")
        return mu

    @functools.cached_property
    def presentations(self) -> tuple[tuple[tuple[int, ...], tuple], ...]:
        """A minimal projective presentation (tops, relations) of each
        indecomposable, indexed like roots (`_presentation`); a projective
        P_a is ((a,), ()).  Certified: dim P_0 - dim P_1 is the root, else
        RuntimeError.  Computed on first use."""
        q = self.quiver
        paths = _paths(q)
        proj = [tuple(int((a, b) in paths) for b in range(q.vertex_count)) for a in range(q.vertex_count)]
        top_of = {d: a for a, d in enumerate(proj)}
        into = [(b, q.in_arrows[b]) for b in q.topological_order]
        out = []
        for root, x in zip(self.roots, self.reps):
            tops, relations = ((top_of[root],), ()) if root in top_of else _presentation(x, into)
            net = [sum(proj[a][v] for a in tops) - sum(proj[b][v] for b, _ in relations) for v in range(len(root))]
            if tuple(net) != root:
                raise RuntimeError(f"the presentation of {root} has dimension vector {tuple(net)}")
            out.append((tops, relations))
        return tuple(out)

    def hom_into(self, x: Representation) -> list[int]:
        """([U, x])_U for every indecomposable U, indexed like roots.

        Hom(-, x) is left exact and Hom(P_a, x) = x_a, so a presentation
        (tops, relations) of U gives [U, x] = sum_l x_{a_l} - rank Phi_U(x)
        with a_l = tops[l]: Phi_U(x) has one block row per relation
        (b, ((l, c_l), ...)), whose block at generator l is c_l x_{p_l}
        for the path p_l: a_l -> b.  The composites x_p are computed once
        per call; a projective costs no elimination, and a Phi that is one
        block c x_p has the rank of x_p.  ValueError when x is not over the
        table's quiver and field.
        """
        self.require_rep(x)
        f, dims, mats = x.field, x.dims, x.arrow_mats
        comp = {}
        for a, b, arrow, i in self._composite_steps:
            comp[a, b] = mats[arrow] if i == a else mats[arrow] @ comp[a, i]
        hom = []
        for tops, relations in self.presentations:
            if not relations:
                rank = 0
            elif len(relations) == 1 and len(relations[0][1]) == 1:
                ((b, ((l, _),)),) = relations
                rank = comp[tops[l], b].rank()
            else:
                rank = _phi(f, dims, comp, tops, relations).rank()
            hom.append(sum(dims[a] for a in tops) - rank)
        return hom

    @functools.cached_property
    def _composite_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, arrow, i) for every nontrivial path a -> b whose last arrow
        is i -> b, shortest first, so x_{a->b} = X_arrow x_{a->i} is built
        from a composite already at hand (X_arrow itself when i = a)."""
        arrows = self.quiver.arrows
        steps = sorted((len(p), a, b, p[-1]) for (a, b), p in _paths(self.quiver).items() if p)
        return tuple((a, b, arrow, arrows[arrow][0]) for _, a, b, arrow in steps)

    @functools.cached_property
    def socle_reach(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """R_i for every vertex i: socle_reach[i][u] holds the v such that
        some f in Hom(reps[u], reps[v]) is nonzero on soc_i(reps[u]).

        Type A only, else ValueError.  There the indecomposables are
        intervals (Gabriel, 1972): soc_i(U) is U_i when no arrow i -> j has
        U_j != 0, and 0 otherwise, and a nonzero f between two of them is
        nonzero exactly at the vertices both supports share.  So R_i(U, V)
        holds when soc_i(U) != 0, [U, V] != 0 and V_i != 0, read off the
        roots and the Hom matrix; it does not depend on the field.
        """
        q = self.quiver
        if not (q.dynkin_type or "").startswith("A"):
            raise ValueError("socle_reach is read off interval supports, so type A only")
        return tuple(
            tuple(
                frozenset(v for v, y in enumerate(self.roots) if y[i] and self.hom_matrix[u][v])
                if x[i] and not any(x[t] for _, t in q.out_arrows[i])
                else frozenset()
                for u, x in enumerate(self.roots)
            )
            for i in range(q.vertex_count)
        )

    @functools.cached_property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """(i, j) for every root, indexed like roots: its support as the
        1-based interval i..j along the path order of an equioriented A_n
        (`path_order`).  ValueError on any other quiver; a root that is not
        an interval is a RuntimeError (a corrupted table)."""
        order = path_order(self.quiver)
        if order is None:
            raise ValueError("intervals are read along a path order, so equioriented type A only")
        position = {v: p + 1 for p, v in enumerate(order)}
        out = []
        for root in self.roots:
            support = sorted(position[v] for v, x in enumerate(root) if x)
            if any(x > 1 for x in root) or support != list(range(support[0], support[-1] + 1)):
                raise RuntimeError("type A root is not an interval; table corrupted")
            out.append((support[0], support[-1]))
        return tuple(out)

    @functools.cached_property
    def euler_from_root(self) -> tuple[tuple[int, ...], ...]:
        """<root, eps_v> for every root and vertex v, indexed like roots: by
        bilinearity <root, e> is a dot product with e.  Computed with
        `euler_form` on first use, so tables that no criterion reads build
        none."""
        units = _unit_vectors(self.quiver)
        return tuple(tuple(euler_form(self.quiver, r, u) for u in units) for r in self.roots)

    @functools.cached_property
    def euler_into_root(self) -> tuple[tuple[int, ...], ...]:
        """<eps_v, root> for every root and vertex v, indexed like roots;
        computed as `euler_from_root` is."""
        units = _unit_vectors(self.quiver)
        return tuple(tuple(euler_form(self.quiver, u, r) for u in units) for r in self.roots)

    def require_rep(self, x: Representation) -> None:
        """ValueError unless x is over the table's quiver and field."""
        if x.quiver != self.quiver:
            raise ValueError("representation is not over the table's quiver")
        if x.field != self.field:
            raise ValueError("representation is not over the table's field")

    def root_index(self, root: DimVector) -> int:
        return self.roots.index(tuple(root))

    def ext_entry(self, u: int, v: int) -> int:
        return self.hom_matrix[u][v] - self.euler[u][v]


def build_table(
    q: Quiver, field: FieldSpec, seed: int = 0, reduction_orders: tuple[int, ...] = ()
) -> IndecomposableTable:
    """The table of a Dynkin quiver over `field`, with no random draws.

    `seed` is ignored: the table does not depend on it.  Over Q, each
    indecomposable reduced into each of `reduction_orders` must keep
    End = 1, as decided by `rep.reductions`, so the reps can feed
    finite-field point counts; a failure is a RuntimeError, never a retry.
    """
    require_dynkin(q)
    roots = tuple(positive_roots(q))
    reps = tuple(indecomposable(q, r, field) for r in roots)
    if field.is_rationals and reduction_orders:
        for x in reps:
            for order, reduced in reductions(x, reduction_orders).items():
                if reduced is None:
                    raise RuntimeError(f"the indecomposable of {x.dims} has End != 1 over F_{order}")
    hom = tuple(tuple(max(x, 0) for x in row) for row in _euler_values(q, roots))
    return IndecomposableTable(q, field, roots, reps, hom)


def _unit_vectors(q: Quiver) -> list[DimVector]:
    n = q.vertex_count
    return [tuple(int(v == w) for w in range(n)) for v in range(n)]


def _euler_values(q: Quiver, dims) -> tuple[tuple[int, ...], ...]:
    """<u, v> for every pair of dimension vectors in dims, as the integer
    product D E D^T with the Euler matrix E (1 on the diagonal, minus the
    number of arrows i -> j at (i, j))."""
    n = q.vertex_count
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for s, t in q.arrows:
        e[s][t] -= 1
    de = [[sum(u[i] * e[i][j] for i in range(n)) for j in range(n)] for u in dims]
    return tuple(tuple(sum(a * b for a, b in zip(row, v)) for v in dims) for row in de)


def decompose(x: Representation, table: IndecomposableTable) -> dict[DimVector, int]:
    """Multiplicities of the indecomposables in x, from ([U, x])_U read off
    the table's projective presentations (`IndecomposableTable.hom_into`)
    by its back-substitution (`IndecomposableTable.multiplicities`).

    By Krull-Schmidt they belong to x alone, and every table of x's quiver
    and field lists the same roots, so the first call caches them on x
    (a `Representation` is treated as immutable) and later calls, with any
    such table, return a copy.  A table over another quiver or field is a
    ValueError, cached or not.
    """
    table.require_rep(x)
    mults = getattr(x, "_decomposition", None)
    if mults is None:
        mu = table.multiplicities(table.hom_into(x), x.dims)
        mults = x._decomposition = {root: m for root, m in zip(table.roots, mu) if m}
    return dict(mults)


def assemble(table: IndecomposableTable, mults: dict[DimVector, int]) -> Representation:
    """Direct sum of table indecomposables with the given multiplicities,
    summands ordered by root."""
    parts = []
    for root in table.roots:
        m = mults.get(tuple(root), 0)
        parts.extend([table.reps[table.root_index(root)]] * m)
    if not parts:
        return zero_representation(table.quiver, table.field)
    return direct_sum(parts)


def canonical_decomposition(q: Quiver, e: DimVector, table: IndecomposableTable) -> dict[DimVector, int]:
    """The decomposition of the generic representation G_e, by the sink walk.

    At a sink k the arrows into k are free coordinates, so generically
    (+)_j V_j -> V_k has rank min(e_k, sum_j e_j), and its cokernel splits
    off as split = e_k - sum_j e_j copies of the simple projective S_k.
    The reflection functor takes the rest, rigid without S_k summands, to
    the generic representation of s_k(e), mapping summands by s_k.  Every
    positive root becomes the simple root of the current sink at some step
    (BGP), so the walk ends at e = 0; a split at step i is the root alpha_k
    reflected back through the sinks of steps i-1, ..., 0 (the Dynkin case
    of Derksen-Weyman, 2002).  Certified: Ext vanishes between every two
    summands, else RuntimeError.
    """
    e = check_dimvector(q, e)
    if q != table.quiver:
        raise ValueError("table is for a different quiver")
    d = list(e)
    steps = []
    mults: dict[DimVector, int] = {}
    walk = _sinks(q)
    while any(d):
        k, into = next(walk)
        split = d[k] - sum(d[j] for j in into.values())
        if split > 0:
            root = [int(v == k) for v in range(q.vertex_count)]
            for j, before in reversed(steps):
                _reflect(root, j, before.values())
            mults[tuple(root)] = mults.get(tuple(root), 0) + split
            d[k] -= split
        _reflect(d, k, into.values())
        steps.append((k, into))
    idx = [table.root_index(r) for r in mults]
    if any(table.ext_entry(u, v) for u in idx for v in idx):
        raise RuntimeError(f"the summands {sorted(mults)} of G_{e} have extensions between them")
    return dict(sorted(mults.items()))


def generic_rep(
    q: Quiver,
    e: DimVector,
    field: FieldSpec,
    table: IndecomposableTable,
) -> Representation:
    """The generic representation G_e as an explicit direct sum."""
    if field != table.field:
        raise ValueError("generic_rep requires a table over the requested field")
    return assemble(table, canonical_decomposition(q, e, table))


def check_generic_embedding(
    q: Quiver,
    e: DimVector,
    d: DimVector,
    table: IndecomposableTable,
    witness: bool = False,
    seed: int = 0,
    trials: int = 256,
):
    """Whether G_e embeds into G_d, i.e. Ext(G_e, G_{d-e}) = 0.

    With witness=True returns (holds, morphism-or-None), otherwise just
    holds.  The witness, an injective morphism G_e -> G_d, comes from the
    stable-embedding search at r = 1 (`stable.search_stable_embedding`,
    with `trials` and `seed`): Hom(G_e, G_d) is scanned exhaustively when
    |F|^dim Hom <= `stable.EXHAUSTIVE_LIMIT`, so a None witness there
    certifies that no injective morphism exists over F; otherwise it is
    sampled, and None only means none was found.  A negative verdict has
    no witness and runs no search.
    """
    from .stable import search_stable_embedding

    e = check_dimvector(q, e)
    d = check_dimvector(q, d)
    if not dim_leq(e, d):
        raise ValueError(f"e = {e} is not coordinatewise below d = {d}")
    me = canonical_decomposition(q, e, table)
    md = canonical_decomposition(q, dim_sub(d, e), table)
    ext = 0
    for ru, mu in me.items():
        for rv, mv in md.items():
            ext += mu * mv * table.ext_entry(table.root_index(ru), table.root_index(rv))
    holds = ext == 0
    if not witness:
        return holds
    if not holds:
        return holds, None
    ge = assemble(table, me)
    gd = assemble(table, canonical_decomposition(q, d, table))
    report = search_stable_embedding(ge, gd, r_max=1, trials=trials, seed=seed)
    return holds, report.block_matrix


_TABLE_CACHE: dict = {}


def cached_table(q: Quiver, field: FieldSpec) -> IndecomposableTable:
    """Process-local memoization of table construction."""
    key = (q, field)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = build_table(q, field)
    return _TABLE_CACHE[key]
