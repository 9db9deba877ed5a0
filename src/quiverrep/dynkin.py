"""Dynkin-specific machinery: positive roots, indecomposables by reflection
functors, Hom-matrix decomposition, and generic representations."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from graphlib import CycleError, TopologicalSorter

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
    hom_basis,
    hom_dim,
    is_injective_morphism,
    reductions,
    search_hom,
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
    in {0, +-1}.  Certified by dim End = 1, else RuntimeError.
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
    return x


@dataclass(frozen=True)
class IndecomposableTable:
    """All indecomposables of a Dynkin quiver plus their Hom matrix.

    hom_matrix[u][v] = dim Hom(reps[u], reps[v]) = max(<u, v>, 0): the
    category is directed (Ringel, 1998), so Hom and Ext between two
    indecomposables are never both nonzero.  It is unitriangular in an
    order refining Hom-nonvanishing; the table keeps one as hom_order and
    refuses to exist without it.  Roots are kept in lexicographic order.
    Path counts give the roots of the projectives and injectives.
    euler[u][v] = <u, v>, computed with the table.
    """

    quiver: Quiver
    field: FieldSpec
    roots: tuple[DimVector, ...]
    reps: tuple[Representation, ...]
    hom_matrix: tuple[tuple[int, ...], ...]
    euler: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)
    hom_order: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)
    _projective: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)
    _injective: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

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
        for name, quiver in (("_projective", q), ("_injective", opposite(q))):
            dims = {tuple(map(len, _paths_from(quiver, v).values())) for v in range(q.vertex_count)}
            object.__setattr__(self, name, tuple(i for i, r in enumerate(self.roots) if r in dims))

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
            mu[u] = hom_into[u] - sum(h * m for h, m in zip(self.hom_matrix[u], mu))
        for root, value in zip(self.roots, mu):
            if value < 0:
                raise RuntimeError(f"negative multiplicity {value} at root {root}")
        if tuple(sum(m * d for m, d in zip(mu, column)) for column in zip(*self.roots)) != dims:
            raise RuntimeError("decomposition does not reconstruct the dimension vector")
        return mu

    def root_index(self, root: DimVector) -> int:
        return self.roots.index(tuple(root))

    def ext_entry(self, u: int, v: int) -> int:
        return self.hom_matrix[u][v] - self.euler[u][v]

    def projective_root_indices(self) -> tuple[int, ...]:
        return self._projective

    def injective_root_indices(self) -> tuple[int, ...]:
        return self._injective


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
    """Multiplicities of the indecomposables in x, from ([U, x])_U by the
    table's back-substitution (`IndecomposableTable.multiplicities`)."""
    if x.quiver != table.quiver:
        raise ValueError("representation is not over the table's quiver")
    if x.field != table.field:
        raise ValueError("representation is not over the table's field")
    mu = table.multiplicities([hom_dim(u, x) for u in table.reps], x.dims)
    return {root: m for root, m in zip(table.roots, mu) if m}


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

    With witness=True also searches for an explicit injective morphism
    G_e -> G_d; returns (holds, morphism-or-None), otherwise just holds.
    """
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
    basis = hom_basis(ge, gd)
    if ge.total_dim == 0:
        return holds, basis.combination([ge.field.zero] * basis.dim)
    if basis.dim == 0:
        return holds, None
    return holds, search_hom(basis, is_injective_morphism, seed, trials)


_TABLE_CACHE: dict = {}


def cached_table(q: Quiver, field: FieldSpec) -> IndecomposableTable:
    """Process-local memoization of table construction."""
    key = (q, field)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = build_table(q, field)
    return _TABLE_CACHE[key]
