"""The embedding and Grassmannian criteria, each returning a Verdict with a
recomputable witness and a full inequality ledger."""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from . import gflin
from .dynkin import IndecomposableTable, cached_table, decompose, path_order
from .exactlin import Matrix
from .grassmannian import SubrepOracle, DEFAULT_BUDGET
from .quiver import (
    DimVector,
    check_dimvector,
    dim_leq,
    dim_sub,
    euler_form,
    functional,
    require_dynkin,
)
from .rep import (
    Morphism,
    Representation,
    dual,
    hom_basis,
    hom_dim,
    hom_evaluation_rows,
    is_injective_morphism,
    morphism_to_json,
    _socles,
)


class Verdict:
    """Outcome of a criterion check.

    holds=False always comes with a witness whose payload suffices to
    recompute the violated inequality.  `details` is the per-inequality
    ledger; `context` records mode, field, and any derived quantities.
    `details` may be given as a function of no arguments that builds the
    ledger instead of the list: it runs when `details` is first read (by
    `to_json`, `==` and `repr` too), and its list is kept, so a caller that
    reads only `holds`, `witness` and `context` never builds the ledger.
    Equality and repr are those of a dataclass of the four fields.
    """

    __hash__ = None

    def __init__(self, holds: bool, witness: dict | None = None, details=None, context: dict | None = None):
        if not holds and witness is None:
            raise ValueError("a failing verdict must carry a witness")
        self.holds = holds
        self.witness = witness
        self._details = [] if details is None else details
        self.context = {} if context is None else context

    @property
    def details(self) -> list:
        if callable(self._details):
            self._details = self._details()
        return self._details

    def _fields(self) -> tuple:
        return self.holds, self.witness, self.details, self.context

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "Verdict(holds={!r}, witness={!r}, details={!r}, context={!r})".format(*self._fields())

    @property
    def conclusive(self) -> bool:
        return self.context.get("conclusive", True)

    def to_json(self) -> dict:
        def sanitize(obj):
            if isinstance(obj, Morphism):
                return morphism_to_json(obj)
            if isinstance(obj, dict):
                return {k: sanitize(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [sanitize(x) for x in obj]
            return obj

        return {
            "holds": self.holds,
            "witness": sanitize(self.witness),
            "details": sanitize(self.details),
            "context": sanitize(self.context),
        }


# ----------------------------------------------------------------------
# Quiver Grassmannian criteria


class GrassmannianChecker:
    """Criterion evaluator for one representation against a table.

    The Hom dimensions [U, m] and [m, U] do not depend on the queried e,
    so they are computed once: [U, m] here, [m, U] = sum_V mu_V [V, U] over
    m's multiplicities mu on the first `irreducible` call, its only reader.
    The Euler side depends only on the table and e.  The table computes
    the rows <dim U, eps_v> and <eps_v, dim U> on the unit vectors for its
    first checker (`IndecomposableTable.euler_from_root` and
    `euler_into_root`), and keeps (<dim U, e>)_U and (<e, dim U>)_U for
    every e a checker on it asked for (`euler_sides`, a bounded memo).  So
    a query for an e seen before takes no dot product: it compares two
    tuples, and builds the witness from the first failing root.  The
    per-root ledger is built only when the verdict's `details` is read.
    The field's name, which every verdict reports, is read once.
    """

    def __init__(self, m: Representation, table: IndecomposableTable):
        require_dynkin(m.quiver)
        table.require_rep(m)
        self.m = m
        self.table = table
        self.field_name = m.field.name
        self.hom_into_m = tuple(hom_dim(u, m) for u in table.reps)
        # read here, so that a table builds its unit rows for its first
        # checker rather than inside some later query
        self.euler_from_root = table.euler_from_root
        self.euler_into_root = table.euler_into_root

    @functools.cached_property
    def hom_from_m(self) -> tuple[int, ...]:
        mu = self.table.multiplicities(self.hom_into_m, self.m.dims)
        return tuple(_dot(mu, column) for column in zip(*self.table.hom_matrix))

    def nonempty(self, e: DimVector) -> Verdict:
        m, table = self.m, self.table
        e = check_dimvector(m.quiver, e)
        context = {"criterion": "grassmannian-nonempty", "field": self.field_name, "e": list(e)}
        if not dim_leq(e, m.dims):
            # trivially false, and the scan below finds a violated
            # inequality: where e_v > m_v, the projective P_v has
            # [P_v, m] = m_v < e_v = <dim P_v, e> on an acyclic quiver
            context["dimension_count_failed"] = True
        hom, euler = self.hom_into_m, table.euler_sides(e)[0]
        witness = None
        if not all(map(operator.ge, hom, euler)):
            u = next(u for u, (lhs, rhs) in enumerate(zip(hom, euler)) if lhs < rhs)
            witness = {"kind": "indecomposable", "root": list(table.roots[u]), "hom": hom[u], "euler": euler[u]}
        details = functools.partial(_nonempty_ledger, table.roots, hom, euler)
        return Verdict(holds=witness is None, witness=witness, details=details, context=context)

    def irreducible(self, e: DimVector) -> Verdict:
        m, table = self.m, self.table
        e = check_dimvector(m.quiver, e)
        if not dim_leq(e, m.dims):
            raise ValueError(f"e = {e} is not below dim m = {m.dims}")
        rest = dim_sub(m.dims, e)
        # family 1: [m, U] <= <e, U> for non-injective U; family 2:
        # [U, m] <= <U, dim m - e> for non-projective U
        families = (
            (1, "non-injective", table.injective, self.hom_from_m, table.euler_sides(e)[1]),
            (2, "non-projective", table.projective, self.hom_into_m, table.euler_sides(rest)[0]),
        )
        witness = None
        for _, kind, skip, hom, euler in families:
            failing = [u for u, (lhs, rhs) in enumerate(zip(hom, euler)) if lhs > rhs and u not in skip]
            if failing:
                u = failing[0]
                witness = {"kind": kind, "root": list(table.roots[u]), "hom": hom[u], "euler": euler[u]}
                break
        holds = witness is None
        context = {
            "criterion": "grassmannian-irreducible",
            "sufficient_only": True,
            "field": self.field_name,
            "e": list(e),
        }
        if holds:
            context["dimension"] = euler_form(m.quiver, e, rest)
        details = functools.partial(_irreducible_ledger, table.roots, families)
        return Verdict(holds=holds, witness=witness, details=details, context=context)


def _nonempty_ledger(roots, hom, euler) -> list[dict]:
    """`nonempty`'s ledger: one entry per root, [U, m] >= <dim U, e>."""
    return [
        {"root": list(root), "hom": lhs, "euler": rhs, "ok": lhs >= rhs}
        for root, lhs, rhs in zip(roots, hom, euler)
    ]


def _irreducible_ledger(roots, families) -> list[dict]:
    """`irreducible`'s ledger: per family, one entry per root it does not
    skip, hom <= euler."""
    return [
        {"family": family, "root": list(root), "hom": hom[u], "euler": euler[u], "ok": hom[u] <= euler[u]}
        for family, _, skip, hom, euler in families
        for u, root in enumerate(roots)
        if u not in skip
    ]


def _dot(coeffs, x) -> int:
    return sum(map(operator.mul, coeffs, x))


def check_grassmannian_nonempty(
    m: Representation, e: DimVector, table: IndecomposableTable
) -> Verdict:
    """Subrepresentation of dimension vector e exists iff
    [U, m] >= <dim U, e> for every indecomposable U."""
    return GrassmannianChecker(m, table).nonempty(e)


def check_grassmannian_irreducible(
    m: Representation, e: DimVector, table: IndecomposableTable
) -> Verdict:
    """Sufficient criterion for irreducibility of Gr_e(m); on success the
    context carries the dimension <e, dim m - e>.  A failing verdict
    carries no irreducibility conclusion."""
    return GrassmannianChecker(m, table).irreducible(e)


# ----------------------------------------------------------------------
# The quotient estimate (nc2)


# Largest number of socle subspaces the exhaustive scan visits at a vertex.
CLASS_BUDGET = 200000


@dataclass
class CheckConfig:
    """Sampling knobs of the quotient-estimate checkers.

    Over a finite field nc2 is exhaustive (a flow on multiplicities on
    type A, a scan of the socle subspaces otherwise) and uses neither;
    over Q it draws `trials` samples seeded by `seed`.
    """

    trials: int = 256
    seed: int = 0


def _bracket_payload(i, k, vec, hom_nk_n, hom_nk_m, zn, zm):
    return {
        "vertex": i,
        "k": k,
        "socle_vector": vec,
        "brackets": {
            "[n^k,n]": hom_nk_n,
            "[n^k/S,n]": hom_nk_n - zn,
            "[n^k,m]": hom_nk_m,
            "[n^k/S,m]": hom_nk_m - zm,
        },
        "lhs": zn,
        "rhs": zm,
    }


def check_nc2(n: Representation, m: Representation, config: CheckConfig | None = None) -> Verdict:
    """Theorem-level quotient estimate on all quotients n^k -> n^k/S with S
    a simple subrepresentation and k <= [S, n]:

        [n^k, n] - [n^k/S, n] <= [n^k, m] - [n^k/S, m].

    Exhaustive over finite fields; sampled (evidence only) over Q.  Over a
    finite field, type A in any orientation is decided by one flow per
    socle vertex on the multiplicities of n and m (`_check_nc2_flow`);
    every other quiver by the scan of the End(n)-closed socle classes
    (`_check_nc2_subspaces`), whose ledger lists those classes.  Both set
    `context["checked"]` to the number of socle classes the estimate
    ranges over.
    """
    if n.quiver != m.quiver:
        raise ValueError("representations live over different quivers")
    if n.field != m.field:
        raise ValueError("representations live over different fields")
    if n.field.is_finite:
        if (n.quiver.dynkin_type or "").startswith("A"):
            return _check_nc2_flow(n, m)
        return _check_nc2_subspaces(n, m)
    return _check_nc2_sampling(n, m, config or CheckConfig())


def _max_flow(capacity: dict, source, sink) -> tuple[int, set]:
    """Maximum flow from source to sink through the arcs a -> b of
    capacity[a][b], by shortest augmenting paths (Edmonds-Karp).  Returns
    its value and the nodes the final residual network reaches from the
    source: the source side of a minimum cut."""
    residual = {a: dict(out) for a, out in capacity.items()}
    for a, out in capacity.items():
        for b in out:
            residual.setdefault(b, {}).setdefault(a, 0)
    value = 0
    while True:
        prev = {source: None}
        queue = [source]
        for a in queue:
            for b, c in residual[a].items():
                if c and b not in prev:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return value, set(prev)
        path = []
        b = sink
        while prev[b] is not None:
            path.append((prev[b], b))
            b = prev[b]
        amount = min(residual[a][b] for a, b in path)
        for a, b in path:
            residual[a][b] -= amount
            residual[b][a] += amount
        value += amount


def _check_nc2_flow(n: Representation, m: Representation) -> Verdict:
    """nc2 on a type-A quiver, in any orientation, over a finite field:
    Hall's condition on the multiplicities, one max flow per socle vertex.

    Write n = (+)_U U^mu_U and m = (+)_V V^nu_V (`decompose`), and let
    R_i(U, V) mean that some f in Hom(U, V) is nonzero on soc_i(U)
    (`IndecomposableTable.socle_reach`).  On type A every soc_i(U) has
    dimension <= 1, and morphisms map socles into socles, so R_i is
    reflexive on the U with soc_i(U) != 0 and transitive.  The idempotents
    and the full matrix blocks M_mu(F) of End(n) make each End(n)-closed
    socle class W_D = (+)_{U in D} soc_i(U)^mu_U, with D closed under R_i;
    then zn(W_D) = sum_D mu_U and zm(W_D) = sum_{V in R_i(D)} nu_V.  The
    closed classes decide nc2 (`_check_nc2_subspaces`), and the closure of
    any D has the same R_i(D) and no smaller sum, so nc2 at i is Hall's
    condition sum_D mu_U <= sum_{V in R_i(D)} nu_V for every D (P. Hall,
    1935).  It holds exactly when the flow from the U (capacity mu_U) along
    R_i to the V (capacity nu_V) saturates s_i = sum_U mu_U = dim soc_i(n).

    `details` has one entry per socle vertex, {vertex, lhs: s_i, rhs: the
    flow, ok}.  The witness is the R_i-closure D of the n-side of a minimum
    cut at the first failing vertex, with lhs = sum_D mu_U and rhs =
    sum_{V in R_i(D)} nu_V.  Nothing is enumerated, so there is no class
    budget; `context["checked"]` is still the class count sum_l [s_i, l]_q.
    """
    table = cached_table(n.quiver, n.field)
    mu, nu = ([x.get(r, 0) for r in table.roots] for x in (decompose(n, table), decompose(m, table)))
    details = []
    witness = None
    checked = 0
    for i, reach in enumerate(table.socle_reach):
        supply = {u: mu[u] for u, to in enumerate(reach) if mu[u] and to}
        if not supply:
            continue
        s_i = sum(supply.values())
        capacity = {"source": {("n", u): c for u, c in supply.items()}}
        for u in supply:
            capacity["n", u] = {("m", v): s_i for v in reach[u] if nu[v]}
        for v in range(table.size):
            if nu[v]:
                capacity["m", v] = {"sink": nu[v]}
        flow, cut = _max_flow(capacity, "source", "sink")
        checked += sum(gflin.gaussian_binomial(s_i, l, n.field.order) for l in range(1, s_i + 1))
        ok = s_i <= flow
        details.append({"vertex": i, "lhs": s_i, "rhs": flow, "ok": ok})
        if not ok and witness is None:
            cut_side = [u for u in supply if ("n", u) in cut]
            d = [w for w in supply if any(w in reach[u] for u in cut_side)]
            witness = {
                "kind": "hall",
                "vertex": i,
                "types": [list(table.roots[u]) for u in d],
                "lhs": sum(mu[u] for u in d),
                "rhs": sum(nu[v] for v in frozenset().union(*(reach[u] for u in d))),
            }
    context = {
        "criterion": "nc2",
        "mode": "type-a-flow",
        "field": n.field.name,
        "conclusive": True,
        "checked": checked,
    }
    return Verdict(holds=witness is None, witness=witness, details=details, context=context)


def _socle_rank_fn(gf: gflin.Handle, table, h: int, width: int):
    """rank of span{A_b u : b, u in U} as a function of the RREF rows of U,
    given in gf's row format, for the h actions A_b (width x s) stacked in
    `table` = [A_1^T | ... | A_h^T] (`rep.hom_evaluation_rows`).

    That span Z(U) is the sum, over the rows u of U, of the image spaces
    image(u) = span{A_b u : b}: the product u table cut into h rows of
    `width` entries, reduced once and memoised by the row.  The first l-1
    rows of an RREF class with l rows are themselves an RREF class, so

        Z(u_1, ..., u_l) = Z(u_1, ..., u_{l-1}) + image(u_l),

    and a class's reduced span is its prefix's span with only the last
    row's image eliminated into it (`gflin.extend_rref`), or the prefix's
    span itself once that is all of Z(socle).  The spans are memoised by
    class; a prefix not seen yet is computed first, so any call order gives
    the same ranks.
    """
    if not h or not width:
        return lambda coeffs: 0
    images: dict = {}
    spans: dict = {(): ()}
    # dim Z(socle): the rows of table cut apart are every A_b e_t
    full = len(gflin.rref_rows(gf, gflin.row_blocks(gf, table, h * width, 0, h, width)))

    def image(u) -> tuple:
        if u not in images:
            product = gflin.matmul_rows(gf, (u,), table, h * width)
            images[u] = gflin.rref_rows(gf, gflin.row_blocks(gf, product, h * width, 0, h, width))
        return images[u]

    def span(coeffs) -> tuple:
        if coeffs not in spans:
            prefix = span(coeffs[:-1])
            if len(prefix) == full:
                spans[coeffs] = prefix
            elif prefix:
                spans[coeffs] = gflin.extend_rref(gf, prefix, image(coeffs[-1]))
            else:
                spans[coeffs] = image(coeffs[-1])
        return spans[coeffs]

    def rank(coeffs) -> int:
        return len(span(coeffs))

    return rank


def _closed_classes(gf: gflin.Handle, s: int, rank_end, rank_hom):
    """nc2's class scan: the RREF classes U of F_q^s in enumeration order
    with rank_end(U) = dim U, each as (its rows as lists, rank_hom(U)).
    `stable.check_z_hypothesis` passes `len`, the identity's rank."""
    unpack = functools.cache(lambda u: gflin.unpack_rows(gf, (u,), s)[0])
    for l in range(1, s + 1):
        for coeffs in gflin.enumerate_rref(gf, s, l):
            if rank_end(coeffs) == l:
                yield [list(unpack(u)) for u in coeffs], rank_hom(coeffs)


def _check_nc2_subspaces(n: Representation, m: Representation) -> Verdict:
    """Exhaustive check, deduplicating socle vectors by their span.

    `check_nc2` takes this route over a finite field for every quiver but
    type A, which `_check_nc2_flow` decides; on type A the scan is the
    flow's independent oracle in the tests.

    A socle vector of n^k at vertex i is a k-tuple (u_1, ..., u_k) of
    socle vectors of n; the four brackets only depend on U = span(u_t),
    through dim Z_y(U) = [n^k, y] - [n^k/S, y] where Z_y is the action of
    Hom(n, y) on the socle.  Enumerating subspaces U of the socle (all
    dims up to [S_i, n]) therefore covers exactly the spec'd family.

    The classes are RREF row matrices in gflin's format (packed over F_2).
    Dropping the last row u_l of a class leaves its prefix class, and
    Z_y(u_1, ..., u_l) = Z_y(u_1, ..., u_{l-1}) + span{A_b u_l : b}, so a
    class costs one reduction of its last row's image into its prefix's
    span (`_socle_rank_fn`).  After the socles everything runs on gflin
    rows: the Hom kernels and action tables come from
    `rep.hom_evaluation_rows`, and each distinct row is unpacked once for
    the payload.

    `_closed_classes` checks only the End(n)-closed classes.  As id is in
    End(n), Z_n(U) contains U, so zn(U) >= dim U with equality exactly when
    U is End(n)-stable.  For any class U, W = Z_n(U), read in socle
    coordinates (End(n) maps the socle into itself), is such a class, with
    zn(W) = dim W = zn(U), and zm(W) = zm(U) because Hom(n, m) End(n) =
    Hom(n, m).  So U fails the estimate exactly when W does.  Every class
    still costs its n-side span (a prefix's span is needed for the next
    class), but the m-side rank and the ledger entry are built only for
    closed ones: `details` lists the closed classes in scan order, the
    witness is the first failing one, and `context["checked"]` counts
    every class covered, sum_l [s_i, l]_q per vertex.
    """
    f = n.field
    gf = gflin.handle(f.order)
    socles = _socles(n)
    hom_nn, tables_n = hom_evaluation_rows(gf, n, n, socles)
    hom_nm, tables_m = hom_evaluation_rows(gf, n, m, socles)
    details = []
    witness = None
    checked = 0
    for i, soc in socles.items():
        s_i = soc.ncols
        rank_n = _socle_rank_fn(gf, tables_n[i], hom_nn, n.dims[i])
        rank_m = _socle_rank_fn(gf, tables_m[i], hom_nm, m.dims[i])
        budget = sum(gflin.gaussian_binomial(s_i, l, gf.q) for l in range(1, s_i + 1))
        if budget > CLASS_BUDGET:
            raise ValueError(
                f"socle subspace count {budget} at vertex {i} exceeds the class budget"
            )
        checked += budget
        for vec, zm in _closed_classes(gf, s_i, rank_n, rank_m):
            l = len(vec)
            entry = _bracket_payload(i, l, vec, l * hom_nn, l * hom_nm, l, zm) | {"ok": l <= zm}
            details.append(entry)
            if not entry["ok"] and witness is None:
                witness = entry | {"kind": "quotient"}
    context = {
        "criterion": "nc2",
        "mode": "subspaces",
        "field": f.name,
        "conclusive": True,
        "checked": checked,
    }
    return Verdict(holds=witness is None, witness=witness, details=details, context=context)


def _evaluation_rank(acts: list[Matrix], c: Matrix) -> int:
    """dim span{A_b c_t : b, t}, the rank of [A_1 C | ... | A_h C]."""
    return Matrix.hstack([a @ c for a in acts]).rank() if acts else 0


def _check_nc2_sampling(n: Representation, m: Representation, config: CheckConfig) -> Verdict:
    """Sampled check over Q.

    The socle of n^k at vertex i is k diagonal copies of n's socle there,
    so a socle vector of n^k is k socle vectors soc c_1, ..., soc c_k of
    n, and each side of the estimate is the evaluation rank
    dim{f(s) : f in Hom(n^k, y)} = dim span{A_b c_t : b, t}, with
    A_b = phi_b,i soc the action on the socle of phi_b, the b-th morphism
    of `hom_basis(n, y)`.  No power or quotient is built.
    """
    if config.trials < 1:
        raise ValueError(f"trials = {config.trials}: nc2's sampling needs at least one sample")
    f = n.field
    rng = random.Random(config.seed)
    socles = _socles(n)
    details = []
    witness = None
    if socles:
        acts_n, acts_m = (
            {i: [phi.vertex_mats[i] @ soc for phi in basis] for i, soc in socles.items()}
            for basis in (hom_basis(n, n), hom_basis(n, m))
        )
        verts = sorted(socles)
        for _ in range(config.trials):
            i = verts[rng.randrange(len(verts))]
            s_i = socles[i].ncols
            k = rng.randint(1, s_i)
            coeffs = [f.random(rng) for _ in range(k * s_i)]
            if all(c == f.zero for c in coeffs):
                coeffs[0] = f.one
            # column t of C holds the coefficients of the t-th copy
            c = Matrix(f, [coeffs[a::s_i] for a in range(s_i)], validate=False, ncols=k)
            lhs = _evaluation_rank(acts_n[i], c)
            rhs = _evaluation_rank(acts_m[i], c)
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


# ----------------------------------------------------------------------
# Equioriented type A


def an_criterion(
    n: Representation,
    m: Representation,
    table: IndecomposableTable,
    seed: int = 0,
) -> Verdict:
    """Prefix-sum criterion for an embedding n -> m over equioriented A_n,
    with an explicit certified embedding on success.

    The embedding is read off interval bases of n and m
    (`_build_an_embedding`); nothing is searched for.  `seed` is ignored:
    the embedding does not depend on it."""
    if path_order(n.quiver) is None:
        raise ValueError("an_criterion requires an equioriented type A quiver")
    if n.quiver != m.quiver or n.field != m.field:
        raise ValueError("representations must share a quiver and a field")
    table.require_rep(n)
    intervals = table.intervals
    n_mults = decompose(n, table)
    m_mults = decompose(m, table)
    nv = n.quiver.vertex_count
    n_ij = {}
    m_ij = {}
    for root, ij in zip(table.roots, intervals):
        n_ij[ij] = n_mults.get(root, 0)
        m_ij[ij] = m_mults.get(root, 0)
    details = []
    witness = None
    for j in range(1, nv + 1):
        lhs = rhs = 0
        for i in range(1, j + 1):
            lhs += n_ij.get((i, j), 0)
            rhs += m_ij.get((i, j), 0)
            ok = lhs <= rhs
            details.append({"i": i, "j": j, "lhs": lhs, "rhs": rhs, "ok": ok})
            if not ok and witness is None:
                witness = {"kind": "prefix-sum", "i": i, "j": j, "lhs": lhs, "rhs": rhs}
    holds = witness is None
    context = {
        "criterion": "an-embedding",
        "field": n.field.name,
        "n_multiplicities": {str(k): v for k, v in sorted(n_ij.items()) if v},
        "m_multiplicities": {str(k): v for k, v in sorted(m_ij.items()) if v},
    }
    verdict = Verdict(holds=holds, witness=witness, details=details, context=context)
    if holds:
        emb = _build_an_embedding(n, m, table)
        if not is_injective_morphism(emb):
            raise RuntimeError("constructed type A embedding failed its injectivity certificate")
        verdict.context["embedding"] = emb
    return verdict


def _interval_basis(x: Representation, table: IndecomposableTable) -> tuple:
    """A basis of x over equioriented A_n in which x is a direct sum of
    intervals: one (u, chain) per summand, u its type's index in
    `table.intervals` and chain its vectors g, Ag, ..., A^(j-i) g at the
    positions i, ..., j of the path order, A the arrows along it.

    For a type U = i..j that `decompose` finds in x, Hom(U, x) read at U's
    top is the kernel of the path i -> j+1, so each element of
    hom_basis(U, x) gives a candidate generator g in x_i.  One is kept
    when it is independent of the image of the arrow into i and of the
    generators kept before it.  Taken in order of j, the generators kept
    at i are a basis of x_i modulo that image adapted to the kernels of
    the paths out of i, so their chains are a basis of x (Gabriel, 1972;
    Zomorodian and Carlsson, 2005).  A type whose count of generators is
    not its multiplicity is a RuntimeError.  Like the multiplicities, the
    basis is kept on x (its `_interval_basis` slot) and later calls
    return it."""
    basis = getattr(x, "_interval_basis", None)
    if basis is not None:
        return basis
    f, q, mats = x.field, x.quiver, x.arrow_mats
    dot = f.row_ops[0]
    order = path_order(q)
    mults = decompose(x, table)
    kept = {}  # vertex -> independent rows: the arrow's image, then the generators kept
    basis = []
    for u in sorted(range(table.size), key=lambda u: table.intervals[u][1]):
        count = mults.get(table.roots[u], 0)
        if not count:
            continue
        i, j = table.intervals[u]
        top = order[i - 1]
        if top not in kept:
            image = [row for a, _ in q.in_arrows[top] for row in mats[a].transpose().rows]
            red, pivots = Matrix(f, image, validate=False, ncols=x.dims[top]).rref()
            kept[top] = list(red.rows[: len(pivots)])
        rows = kept[top]
        for mor in hom_basis(table.reps[u], x):
            g = mor.vertex_mats[top].col(0)
            if Matrix(f, rows + [g], validate=False).rank() == len(rows):
                continue
            rows.append(g)
            chain = [g]
            for p in order[i - 1 : j - 1]:
                ((a, _),) = q.out_arrows[p]
                chain.append(tuple(dot(row, chain[-1]) for row in mats[a].rows))
            basis.append((u, tuple(chain)))
            count -= 1
        if count:
            raise RuntimeError(f"interval {(i, j)}: generators disagree with its multiplicity")
    x._interval_basis = basis = tuple(basis)
    return basis


def _build_an_embedding(n, m, table) -> Morphism:
    """An embedding n -> m read off their interval bases (`_interval_basis`).

    Per right end j, the summands i..j of n, in order of i, each take the
    summand k..j of m with the largest k <= i not yet taken; the prefix
    sums make that succeed.  Such a summand of n maps into its partner, so
    each chain vector of n goes to the partner's chain vector at the same
    vertex.  At each vertex v the chain vectors X_v of n are a basis and
    their images Y_v are given, so f_v solves f_v X_v = Y_v.  The
    `Morphism` check certifies that f intertwines the arrows."""
    intervals, order, f = table.intervals, path_order(n.quiver), n.field
    pools: dict = {}
    for u, chain in _interval_basis(m, table):
        k, j = intervals[u]
        pools.setdefault(j, []).append((k, chain))
    for pool in pools.values():
        pool.sort(key=lambda summand: summand[0])
    xs = [[] for _ in order]
    ys = [[] for _ in order]
    for u, chain in sorted(_interval_basis(n, table), key=lambda summand: intervals[summand[0]]):
        i, j = intervals[u]
        pool = pools.get(j, [])
        pick = max((t for t, (k, _) in enumerate(pool) if k <= i), default=None)
        if pick is None:
            raise RuntimeError("greedy interval matching failed despite prefix sums")
        k, target = pool.pop(pick)
        for t, vec in enumerate(chain):
            v = order[i - 1 + t]
            xs[v].append(vec)
            ys[v].append(target[i - k + t])
    mats = []
    for v, (a, b) in enumerate(zip(n.dims, m.dims)):
        # f_v X_v = Y_v, transposed: the rows are the chain vectors
        ft = Matrix(f, xs[v], validate=False, ncols=a).solve_matrix(Matrix(f, ys[v], validate=False, ncols=b))
        if ft is None:
            raise RuntimeError(f"the chain vectors of n at vertex {v} are not a basis")
        mats.append(ft.transpose())
    return Morphism(n, m, mats)


# ----------------------------------------------------------------------
# Dual surjection criterion


def check_dual_surjection(
    u: Representation, v: Representation, config: CheckConfig | None = None
) -> Verdict:
    """Criterion for surjections u^r -> v^r: the quotient estimate applied
    to the dual representations over the opposite quiver."""
    verdict = check_nc2(dual(v), dual(u), config)
    verdict.context = dict(verdict.context)
    verdict.context["criterion"] = "dual-surjection"
    verdict.context["interpretation"] = "holds iff u^r surjects onto v^r for large r"
    return verdict


# ----------------------------------------------------------------------
# Semistability


def realizable_subdims(
    m: Representation,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """All dimension vectors of subrepresentations of m.

    Dynkin route (table given): the Hom inequalities decide realizability.
    Otherwise m must live over a finite field and enumeration decides.
    """
    boxed = itertools.product(*(range(d + 1) for d in m.dims))
    if table is not None:
        checker = GrassmannianChecker(m, table)
        return [f_vec for f_vec in boxed if checker.nonempty(f_vec).holds]
    if not m.field.is_finite:
        raise ValueError(
            f"exhaustive semistability enumerates over a finite field, but m is over {m.field.name}"
        )
    oracle = SubrepOracle(m, budget)
    return [f_vec for f_vec in boxed if oracle.nonempty(f_vec)]


def min_slope(
    m: Representation,
    e: DimVector,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """min over subrepresentations N of e(N) = <dim N, e>, with an argmin."""
    e = check_dimvector(m.quiver, e)
    best = None
    best_f = None
    for f_vec in realizable_subdims(m, table=table, budget=budget):
        val = functional(m.quiver, e, f_vec)
        if best is None or val < best or (val == best and f_vec < best_f):
            best, best_f = val, f_vec
    return best, best_f


def is_semistable(
    m: Representation,
    e: DimVector,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """e-semistability: e(m) = 0 and e(N) >= 0 for all subrepresentations."""
    e = check_dimvector(m.quiver, e)
    total = functional(m.quiver, e, m.dims)
    slope, arg = min_slope(m, e, table=table, budget=budget)
    method = "dynkin-criterion" if table is not None else f"enumeration over F_{m.field.order}"
    context = {
        "criterion": "semistable",
        "e": list(e),
        "e(m)": total,
        "min_slope": slope,
        "min_slope_at": list(arg),
        "method": method,
        "field": m.field.name,
    }
    details = [{"e(m)": total, "min_slope": slope}]
    if total != 0:
        return Verdict(
            holds=False,
            witness={"kind": "total", "e(m)": total},
            details=details,
            context=context,
        )
    if slope < 0:
        return Verdict(
            holds=False,
            witness={"kind": "subrep", "dims": list(arg), "e(N)": slope},
            details=details,
            context=context,
        )
    return Verdict(holds=True, details=details, context=context)
