"""The embedding and Grassmannian criteria, each returning a Verdict with a
recomputable witness and a full inequality ledger."""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field as dc_field

from . import gflin
from .dynkin import IndecomposableTable, assemble, decompose
from .exactlin import Matrix
from .grassmannian import SubrepOracle, DEFAULT_BUDGET
from .quiver import (
    DimVector,
    Quiver,
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
    hom_evaluations,
    identity_morphism,
    is_injective_morphism,
    quotient,
    random_representation,
    search_hom,
    socle_at,
)


@dataclass
class Verdict:
    """Outcome of a criterion check.

    holds=False always comes with a witness whose payload suffices to
    recompute the violated inequality.  `details` is the per-inequality
    ledger; `context` records mode, field, and any derived quantities.
    """

    holds: bool
    witness: dict | None = None
    details: list = dc_field(default_factory=list)
    context: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    @property
    def conclusive(self) -> bool:
        return self.context.get("conclusive", True)

    def to_json(self) -> dict:
        from .rep import Morphism, morphism_to_json

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


def _require_table_match(x: Representation, table: IndecomposableTable):
    if x.quiver != table.quiver:
        raise ValueError("representation and table quivers differ")
    if x.field != table.field:
        raise ValueError("representation and table fields differ")


# ----------------------------------------------------------------------
# Quiver Grassmannian criteria


class GrassmannianChecker:
    """Criterion evaluator for one representation against a table.

    The Hom dimensions [U, m] and [m, U] do not depend on the queried e,
    so they are computed once: [U, m] here, [m, U] = sum_V mu_V [V, U] over
    m's multiplicities mu on the first `irreducible` call, its only reader.
    So are the Euler coefficients <dim U, eps_v> and <eps_v, dim U> on the
    unit vectors; by bilinearity, checking a given e is a dot product per root.
    """

    def __init__(self, m: Representation, table: IndecomposableTable):
        require_dynkin(m.quiver)
        _require_table_match(m, table)
        self.m = m
        self.table = table
        self.hom_into_m = tuple(hom_dim(u, m) for u in table.reps)
        self.injective = set(table.injective_root_indices())
        self.projective = set(table.projective_root_indices())
        q = m.quiver
        units = [tuple(int(v == w) for w in range(q.vertex_count)) for v in range(q.vertex_count)]
        self.euler_from_root = tuple(tuple(euler_form(q, r, u) for u in units) for r in table.roots)
        self.euler_into_root = tuple(tuple(euler_form(q, u, r) for u in units) for r in table.roots)

    @functools.cached_property
    def hom_from_m(self) -> tuple[int, ...]:
        mu = self.table.multiplicities(self.hom_into_m, self.m.dims)
        return tuple(_dot(mu, column) for column in zip(*self.table.hom_matrix))

    def nonempty(self, e: DimVector) -> Verdict:
        m, table = self.m, self.table
        e = check_dimvector(m.quiver, e)
        context = {"criterion": "grassmannian-nonempty", "field": m.field.name, "e": list(e)}
        if not dim_leq(e, m.dims):
            # trivially false; the theorem still guarantees a violated
            # inequality, which the scan below surfaces as the witness
            context["dimension_count_failed"] = True
        details = []
        witness = None
        for u, root in enumerate(table.roots):
            lhs = self.hom_into_m[u]
            rhs = _dot(self.euler_from_root[u], e)
            ok = lhs >= rhs
            details.append({"root": list(root), "hom": lhs, "euler": rhs, "ok": ok})
            if not ok and witness is None:
                witness = {"kind": "indecomposable", "root": list(root), "hom": lhs, "euler": rhs}
        if witness is None and context.get("dimension_count_failed"):
            # cannot happen for a valid table; keep a safe fallback witness
            witness = {"kind": "dimension-count", "e": list(e), "dims": list(m.dims)}
        return Verdict(holds=witness is None, witness=witness, details=details, context=context)

    def irreducible(self, e: DimVector) -> Verdict:
        m, table = self.m, self.table
        e = check_dimvector(m.quiver, e)
        if not dim_leq(e, m.dims):
            raise ValueError(f"e = {e} is not below dim m = {m.dims}")
        rest = dim_sub(m.dims, e)
        details = []
        witness = None
        # family 1: [m, U] <= <e, U> for non-injective U; family 2:
        # [U, m] <= <U, dim m - e> for non-projective U
        families = (
            (1, "non-injective", self.injective, self.hom_from_m, self.euler_into_root, e),
            (2, "non-projective", self.projective, self.hom_into_m, self.euler_from_root, rest),
        )
        for family, kind, skip, hom, euler, x in families:
            for u, root in enumerate(table.roots):
                if u in skip:
                    continue
                lhs, rhs = hom[u], _dot(euler[u], x)
                ok = lhs <= rhs
                details.append(
                    {"family": family, "root": list(root), "hom": lhs, "euler": rhs, "ok": ok}
                )
                if not ok and witness is None:
                    witness = {"kind": kind, "root": list(root), "hom": lhs, "euler": rhs}
        holds = witness is None
        context = {
            "criterion": "grassmannian-irreducible",
            "sufficient_only": True,
            "field": m.field.name,
            "e": list(e),
        }
        if holds:
            context["dimension"] = euler_form(m.quiver, e, rest)
        return Verdict(holds=holds, witness=witness, details=details, context=context)


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

    Over a finite field nc2 scans every socle subspace (the spans of the
    socle vectors of n^k, which the brackets only depend on) and uses
    neither; over Q it draws `trials` samples seeded by `seed`.
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


def _socles(n: Representation) -> dict[int, Matrix]:
    """The nonzero socles of n, by vertex."""
    return {i: soc for i in range(n.quiver.vertex_count) if (soc := socle_at(n, i)).ncols}


def check_nc2(n: Representation, m: Representation, config: CheckConfig | None = None) -> Verdict:
    """Theorem-level quotient estimate on all quotients n^k -> n^k/S with S
    a simple subrepresentation and k <= [S, n]:

        [n^k, n] - [n^k/S, n] <= [n^k, m] - [n^k/S, m].

    Exhaustive over finite fields; sampled (evidence only) over Q.  Over a
    finite field the ledger (`details`) lists only the End(n)-closed socle
    classes, which decide the verdict (`_check_nc2_subspaces`), and
    `context["checked"]` counts every class they cover.
    """
    if n.quiver != m.quiver:
        raise ValueError("representations live over different quivers")
    if n.field != m.field:
        raise ValueError("representations live over different fields")
    if n.field.is_finite:
        return _check_nc2_subspaces(n, m)
    return _check_nc2_sampling(n, m, config or CheckConfig())


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
            product = gflin.matmul_rows(gf, (u,), table)
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


def _check_nc2_subspaces(n: Representation, m: Representation) -> Verdict:
    """Exhaustive check, deduplicating socle vectors by their span.

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

    Only the End(n)-closed classes are checked.  Since id is in End(n),
    Z_n(U) contains U, so zn(U) >= dim U with equality exactly when U is
    End(n)-stable.  For any class U, W = Z_n(U), read in socle
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
    gf = gflin.GF2_PACKED if f.order == 2 else gflin.gfq(f.order)
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
        unpacked: dict = {}
        checked += budget
        for l in range(1, s_i + 1):
            for coeffs in gflin.enumerate_rref(gf, s_i, l):
                zn = rank_n(coeffs)
                if zn != l:
                    continue  # not closed: End(n) U is a closed class with the same zn, zm
                zm = rank_m(coeffs)
                ok = zn <= zm
                for u in coeffs:
                    if u not in unpacked:
                        unpacked[u] = gflin.unpack_rows(gf, (u,), s_i)[0]
                vec = [list(unpacked[u]) for u in coeffs]
                entry = _bracket_payload(i, l, vec, l * hom_nn, l * hom_nm, zn, zm)
                entry["ok"] = ok
                details.append(entry)
                if not ok and witness is None:
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
    dim{f(s) : f in Hom(n^k, y)} = dim span{A_b c_t : b, t}, with A_b the
    action of the b-th basis element of Hom(n, y) on the socle.  No power
    or quotient is built.
    """
    f = n.field
    rng = random.Random(config.seed)
    socles = _socles(n)
    details = []
    witness = None
    if socles:
        acts_n = hom_evaluations(n, n, socles)[1]
        acts_m = hom_evaluations(n, m, socles)[1]
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
# Random surjections


def _random_stable_subspaces(u: Representation, rng) -> list[Matrix]:
    """Seeded random arrow-stable family: random generators per vertex,
    closed under the arrow action."""
    f = u.field
    spans = []
    for v in range(u.quiver.vertex_count):
        d = u.dims[v]
        count = rng.randint(0, d)
        cols = [[f.random(rng, 5) for _ in range(d)] for _ in range(count)]
        mat = Matrix.from_cols(f, cols, nrows=d)
        spans.append(_column_space_basis(mat))
    changed = True
    while changed:
        changed = False
        for (s, t), mat in zip(u.quiver.arrows, u.arrow_mats):
            image = mat @ spans[s]
            if image.ncols == 0:
                continue
            stacked = Matrix.hstack([spans[t], image])
            basis = _column_space_basis(stacked)
            if basis.ncols != spans[t].ncols:
                spans[t] = basis
                changed = True
    return spans


def _column_space_basis(mat: Matrix) -> Matrix:
    pivots = mat.rref()[1]
    return mat.submatrix(range(mat.nrows), pivots)


def check_nc2_random_surjections(
    n: Representation, m: Representation, trials: int = 256, seed: int = 0, dim_bound: int = 3
) -> Verdict:
    """Spot-check the estimate on random surjections u -> v.

    A violation is a certified counterexample to the surjection form of
    the estimate; absence of violations is evidence only.
    """
    if n.quiver != m.quiver or n.field != m.field:
        raise ValueError("representations must share a quiver and a field")
    rng = random.Random(seed)
    q = n.quiver
    details = []
    witness = None
    for t in range(trials):
        dims = tuple(rng.randint(0, dim_bound) for _ in range(q.vertex_count))
        u = random_representation(q, dims, n.field, seed=rng.randrange(2**32))
        sub = _random_stable_subspaces(u, rng)
        v, _ = quotient(u, sub)
        lhs = hom_dim(u, n) - hom_dim(v, n)
        rhs = hom_dim(u, m) - hom_dim(v, m)
        ok = lhs <= rhs
        entry = {
            "trial": t,
            "u_dims": list(u.dims),
            "v_dims": list(v.dims),
            "lhs": lhs,
            "rhs": rhs,
            "ok": ok,
        }
        details.append(entry)
        if not ok:
            witness = entry | {"kind": "surjection"}
            break
    context = {
        "criterion": "nc2-random-surjections",
        "field": n.field.name,
        "conclusive": witness is not None,
        "trials": trials,
        "seed": seed,
    }
    return Verdict(holds=witness is None, witness=witness, details=details, context=context)


# ----------------------------------------------------------------------
# Equioriented type A


def path_order(q: Quiver):
    """Vertices of an equioriented A_n quiver in path order, or None."""
    n = q.vertex_count
    if n == 0:
        return None
    if q.arrow_count != n - 1:
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
    if len(order) != n:
        return None
    return tuple(order)


def _roots_as_intervals(table: IndecomposableTable, order) -> dict[int, tuple[int, int]]:
    """Map root index -> (i, j), 1-based interval along the path order."""
    position = {v: p + 1 for p, v in enumerate(order)}
    out = {}
    for idx, root in enumerate(table.roots):
        support = sorted(position[v] for v, x in enumerate(root) if x)
        if any(x > 1 for x in root) or support != list(range(support[0], support[-1] + 1)):
            raise RuntimeError("type A root is not an interval; table corrupted")
        out[idx] = (support[0], support[-1])
    return out


def an_criterion(
    n: Representation,
    m: Representation,
    table: IndecomposableTable,
    seed: int = 0,
) -> Verdict:
    """Prefix-sum criterion for an embedding n -> m over equioriented A_n,
    with an explicit certified embedding on success."""
    order = path_order(n.quiver)
    if order is None:
        raise ValueError("an_criterion requires an equioriented type A quiver")
    if n.quiver != m.quiver or n.field != m.field:
        raise ValueError("representations must share a quiver and a field")
    _require_table_match(n, table)
    intervals = _roots_as_intervals(table, order)
    n_mults = decompose(n, table)
    m_mults = decompose(m, table)
    nv = len(order)
    n_ij = {}
    m_ij = {}
    for idx, (i, j) in intervals.items():
        root = table.roots[idx]
        n_ij[(i, j)] = n_mults.get(root, 0)
        m_ij[(i, j)] = m_mults.get(root, 0)
    details = []
    witness = None
    for j in range(1, nv + 1):
        for i in range(1, j + 1):
            lhs = sum(n_ij.get((k, j), 0) for k in range(1, i + 1))
            rhs = sum(m_ij.get((k, j), 0) for k in range(1, i + 1))
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
        emb = _build_an_embedding(n, m, table, intervals, n_mults, m_mults, seed)
        if not is_injective_morphism(emb):
            raise RuntimeError("constructed type A embedding failed its injectivity certificate")
        verdict.context["embedding"] = emb
    return verdict


def _find_iso(a: Representation, b: Representation, seed: int, trials: int = 128) -> Morphism:
    """An isomorphism a -> b found by sampling Hom(a, b); requires a ~ b."""
    if a == b:
        return identity_morphism(a)

    def is_iso(mor: Morphism) -> bool:
        return all(mat.nrows == mat.ncols and mat.rank() == mat.nrows for mat in mor.vertex_mats)

    mor = search_hom(hom_basis(a, b), is_iso, seed, trials)
    if mor is None:
        raise RuntimeError("no isomorphism found by sampling; inputs may not be isomorphic")
    return mor


def _invert_iso(f: Morphism) -> Morphism:
    mats = []
    for mat in f.vertex_mats:
        inv = mat.solve_matrix(Matrix.identity(mat.field, mat.nrows))
        if inv is None:
            raise RuntimeError("vertex matrix not invertible")
        mats.append(inv)
    return Morphism(f.target, f.source, mats, validate=False)


def _build_an_embedding(n, m, table, intervals, n_mults, m_mults, seed) -> Morphism:
    # summand slots in table-root order, with multiplicity
    n_slots = []
    m_slots = []
    for idx, root in enumerate(table.roots):
        n_slots.extend([idx] * n_mults.get(root, 0))
        m_slots.extend([idx] * m_mults.get(root, 0))
    # match per right endpoint j
    target_of = {}
    for j in sorted(set(ij[1] for ij in intervals.values())):
        n_list = [(intervals[idx][0], pos) for pos, idx in enumerate(n_slots) if intervals[idx][1] == j]
        m_list = [(intervals[idx][0], pos) for pos, idx in enumerate(m_slots) if intervals[idx][1] == j]
        n_list.sort()
        pool = sorted(m_list)
        for i, npos in n_list:
            cands = [(i2, mpos) for i2, mpos in pool if i2 <= i]
            if not cands:
                raise RuntimeError("greedy interval matching failed despite prefix sums")
            pick = cands[-1]
            pool.remove(pick)
            target_of[npos] = pick[1]
    n0 = assemble(table, n_mults)
    m0 = assemble(table, m_mults)
    f = n.field
    # block morphism N0 -> M0
    blocks = {}
    for npos, mpos in target_of.items():
        src = table.reps[n_slots[npos]]
        tgt = table.reps[m_slots[mpos]]
        hb = hom_basis(src, tgt)
        emb = None
        for mor in hb.morphisms:
            if is_injective_morphism(mor):
                emb = mor
                break
        if emb is None:
            raise RuntimeError("no injective interval embedding found")
        blocks[(mpos, npos)] = emb
    n_off = _slot_offsets(table, n_slots)
    m_off = _slot_offsets(table, m_slots)
    mats = []
    for v in range(n.quiver.vertex_count):
        big = [[f.zero] * n0.dims[v] for _ in range(m0.dims[v])]
        for (mpos, npos), emb in blocks.items():
            sub = emb.vertex_mats[v]
            r0 = m_off[mpos][v]
            c0 = n_off[npos][v]
            for i, row in enumerate(sub.rows):
                for j, x in enumerate(row):
                    big[r0 + i][c0 + j] = x
        mats.append(Matrix(f, tuple(tuple(r) for r in big), validate=False, ncols=n0.dims[v]))
    e0 = Morphism(n0, m0, mats)
    alpha = _find_iso(n0, n, seed=seed + 11)
    beta = _find_iso(m0, m, seed=seed + 13)
    return beta.compose(e0).compose(_invert_iso(alpha))


def _slot_offsets(table, slots):
    """Per-slot, per-vertex offsets into the assembled direct sum."""
    offsets = []
    acc = [0] * table.quiver.vertex_count
    for idx in slots:
        offsets.append(tuple(acc))
        for v, x in enumerate(table.roots[idx]):
            acc[v] += x
    return offsets


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
    q_enum: int | None = None,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """All dimension vectors of subrepresentations of m.

    Dynkin route (table given): the Hom inequalities decide realizability.
    Otherwise m must live over the finite field of order q_enum and
    enumeration decides.
    """
    boxed = itertools.product(*(range(d + 1) for d in m.dims))
    if table is not None:
        checker = GrassmannianChecker(m, table)
        return [f_vec for f_vec in boxed if checker.nonempty(f_vec).holds]
    if not m.field.is_finite or (q_enum is not None and m.field.order != q_enum):
        raise ValueError("exhaustive semistability requires m over F_{q_enum}")
    oracle = SubrepOracle(m, budget)
    return [f_vec for f_vec in boxed if oracle.nonempty(f_vec)]


def min_slope(
    m: Representation,
    e: DimVector,
    q_enum: int | None = None,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """min over subrepresentations N of e(N) = <dim N, e>, with an argmin."""
    e = check_dimvector(m.quiver, e)
    best = None
    best_f = None
    for f_vec in realizable_subdims(m, q_enum=q_enum, table=table, budget=budget):
        val = functional(m.quiver, e, f_vec)
        if best is None or val < best or (val == best and f_vec < best_f):
            best, best_f = val, f_vec
    return best, best_f


def is_semistable(
    m: Representation,
    e: DimVector,
    q_enum: int | None = None,
    table: IndecomposableTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """e-semistability: e(m) = 0 and e(N) >= 0 for all subrepresentations."""
    e = check_dimvector(m.quiver, e)
    total = functional(m.quiver, e, m.dims)
    slope, arg = min_slope(m, e, q_enum=q_enum, table=table, budget=budget)
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
