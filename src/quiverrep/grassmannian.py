"""Brute-force subrepresentation enumeration over small finite fields.

This is the ground truth the Hom-inequality criteria are validated against,
so it runs on its own compact linear algebra (:mod:`quiverrep.gflin`) and
never consults the criteria.  Over F_2 the oracle holds its subspaces on
gflin's packed handle, one int per row; over any other field, on tuple rows
through arithmetic tables.  The search is written once against gflin's
row-space functions, which take either format; only ``__init__`` (the
arrow matrices and the whole spaces) and ``_rows_to_basis`` convert.

The search assigns one vertex subspace at a time, always picking the
unassigned vertex with the fewest admissible candidates.  A candidate at a
vertex is exact with respect to every arrow whose other endpoint is already
assigned: it must contain the forced span of the incoming images and lie in
the intersection of the outgoing preimages, so each leaf of the search is a
subrepresentation and infeasible branches die at a dimension count.  A
composite-path rank prune rejects impossible dimension vectors up front.

Once a single vertex v is left, every arrow at v has both endpoints
assigned, so the sandwich W <= U <= B is exact: the admissible U at v are
precisely the subspaces between the two bounds, and there are
[dim B - dim W, e_v - dim W]_q of them (a Gaussian binomial).  ``count``
adds that number instead of building each U.

``count`` also sums the leaves below the last two vertices in closed form.
Let v1 be the vertex the search would enumerate next, with bounds
W1 <= U1 <= B1, and v2 the other one, with bounds W2, B2 from the assigned
vertices alone.  With no arrow between them the leaves number b1 * b2, the
product of their branches.  With one arrow A the leaves below U1 depend
only on j = dim(U1 cap L):

- A: v1 -> v2.  U1 must lie in B = B1 cap A^-1(B2); then v2's lower bound
  grows to W2 + A(U1), of dimension w' = |W2| + e1 - j with L = A^-1(W2),
  and U1 has [|B2| - w', e2 - w']_q leaves.
- A: v2 -> v1.  U1 must contain W = W1 + A(W2); then v2's upper bound
  shrinks to B2 cap A^-1(U1), of dimension k0 + j with L = A(B2) and
  k0 = dim(B2 cap ker A), and U1 has [k0 + j - |W2|, e2 - |W2|]_q leaves.

The U1 are grouped by j in the quotient B/W, of dimension n, where L
leaves a subspace of dimension lam = dim((L + W) cap B / W): there are
q^((lam-i)(eps-i)) [lam, i]_q [n-lam, eps-i]_q subspaces of dimension
eps = e1 - |W| meeting it in dimension i (the terms of the q-Vandermonde
identity), and for them j = i + dim(L cap W).  With several arrows between
v1 and v2 (a Kronecker pair), or when v1 has a single candidate, ``count``
enumerates v1 and counts v2.

Either way ``count`` charges the budget the visits enumeration would: one
per candidate at each enumerated vertex and one per leaf, so b1 plus the
leaves below a closed-form pair.  Visits therefore still count echelon
patterns whichever operation ran, and a budget refusal happens exactly
when enumeration would refuse (its ``visits`` may include a pair's whole
charge).

``nonempty`` stops at the last vertex too: once a single vertex is left
and its sandwich holds a subspace, the search has found a leaf, and it
charges the one visit that enumerating that vertex's first candidate
would.  It does not close pairs: an existence search stops at the first
leaf, so its charge below a pair depends on the order of v1's candidates.
``first_subrep`` and ``enumerate`` need the rows of each leaf, so they
enumerate every vertex.

The candidates at a vertex depend only on its sandwich (e_v, span(w), B),
so the oracle memoizes each sandwich's candidate sequence, as it does
preimages, and a query for the next e replays the subspaces an earlier
query built instead of eliminating again.  The sequence is extended
lazily, one candidate when a consumer first reads that far, and every
consumer is charged one visit per candidate it reads, in the same order,
so answers and visits do not depend on what the oracle answered before.
The memo holds no more candidates than the visits already charged, the
same growth order as the preimage cache.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field

from . import gflin
from .exactlin import FieldSpec, Matrix
from .quiver import DimVector, check_dimvector, topological_order
# hom_dim is not called here, but perfbench's tracer test expects this
# module to bind it; drop it when that test stops listing the module
from .rep import Representation, hom_dim, reductions  # noqa: F401

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when enumeration visits more echelon patterns than allowed."""

    def __init__(self, visits: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {visits} echelon patterns visited, budget {budget}; "
            "shrink q, the dimensions, or raise the budget"
        )
        self.visits = visits
        self.budget = budget


class SubrepOracle:
    """Reusable enumerator for subrepresentations of one representation.

    Preimage computations are memoized per (arrow, target subspace), and
    candidate sequences per sandwich (see the module docstring), which pays
    off when many dimension vectors e are queried against the same
    representation.
    """

    def __init__(self, m: Representation, budget: int = DEFAULT_BUDGET):
        if budget < 0:
            raise ValueError(f"enumeration budget must be nonnegative, got {budget}")
        if not m.field.is_finite:
            raise ValueError("enumeration requires a finite ground field")
        order = topological_order(m.quiver)
        if order is None:
            raise ValueError("enumeration requires an acyclic quiver")
        self.m = m
        self.q = m.quiver
        gf = gflin.GF2_PACKED if m.field.order == 2 else gflin.gfq(m.field.order)
        self.gf = gf
        self.budget = budget
        self.process_order = tuple(reversed(order))
        self.arrow_rows = tuple(gflin.pack_rows(gf, mat.rows) for mat in m.arrow_mats)
        self.arrow_rows_t = tuple(
            gflin.pack_rows(gf, ([row[j] for row in mat.rows] for j in range(mat.ncols)))
            for mat in m.arrow_mats
        )
        # the whole space at each vertex, the bound of an unconstrained vertex
        self.full_rows = tuple(gflin.pack_rows(gf, gflin.identity_rows(d)) for d in m.dims)
        self.out_arrows = tuple(
            tuple((i, t) for i, (s, t) in enumerate(self.q.arrows) if s == v)
            for v in range(self.q.vertex_count)
        )
        self.in_arrows_ = tuple(
            tuple((i, s) for i, (s, t) in enumerate(self.q.arrows) if t == v)
            for v in range(self.q.vertex_count)
        )
        self._preimage_cache: dict = {}
        self._candidate_cache: dict = {}
        self._visits = 0
        self._path_nullities = self._composite_path_nullities()

    def _composite_path_nullities(self):
        """Nullity of the composite matrix of every directed path.

        Sound emptiness prune: a subrepresentation satisfies
        e_target >= e_source - nullity(path composite) for every path,
        because the image of an e_source-dimensional subspace under the
        composite has at least that dimension and must land inside the
        target subspace.
        """
        gf = self.gf
        out: list[tuple[int, int, int]] = []
        # composite rows for paths ending at each vertex, keyed by start
        frontier = {v: {v: self.full_rows[v]} for v in range(self.q.vertex_count)}
        order = tuple(reversed(self.process_order))  # a topological order
        for v in order:
            for arrow_idx, (s, t) in enumerate(self.q.arrows):
                if s != v:
                    continue
                mat = self.arrow_rows[arrow_idx]
                for start, comp in frontier[v].items():
                    composite = gflin.matmul_rows(gf, mat, comp)
                    rank = gflin.rank_rows(gf, composite)
                    out.append((start, t, self.m.dims[start] - rank))
                    cur = frontier[t].get(start)
                    # keep one composite per (start, end); all give valid prunes
                    if cur is None:
                        frontier[t][start] = composite
                    else:
                        out_rank = gflin.rank_rows(gf, cur)
                        if rank < out_rank:
                            frontier[t][start] = composite
        return tuple(out)

    def _path_prune_empty(self, e: DimVector) -> bool:
        return any(e[t] < e[s] - nullity for s, t, nullity in self._path_nullities)

    # -- plumbing ---------------------------------------------------------

    @property
    def visits(self) -> int:
        """Echelon-pattern visits charged by the last public operation."""
        return self._visits

    def _charge(self, n: int = 1) -> None:
        self._visits += n
        if self._visits > self.budget:
            raise BudgetExceeded(self._visits, self.budget)

    def _preimage(self, arrow_idx: int, sub_rows: gflin.Rows) -> gflin.Rows:
        key = (arrow_idx, sub_rows)
        got = self._preimage_cache.get(key)
        if got is None:
            s, t = self.q.arrows[arrow_idx]
            got = gflin.preimage_rows(
                self.gf, self.arrow_rows[arrow_idx], sub_rows, self.m.dims[s], self.m.dims[t]
            )
            self._preimage_cache[key] = got
        return got

    def _bounds(self, v: int, e_v: int, chosen: dict):
        """Exact bounds at v from the assigned neighbours: (w_rows, bound),
        the RREF span of the assigned incoming images and the intersection
        of the assigned outgoing preimages (the whole space when there are
        none).  Any admissible subspace U satisfies span(w) <= U <= bound.
        bound is None when len(w_rows) > e_v: no U of dimension e_v exists,
        and no preimage is computed."""
        gf = self.gf
        image_rows = []
        for arrow_idx, src in self.in_arrows_[v]:
            if src in chosen and chosen[src]:
                image_rows.extend(
                    gflin.matmul_rows(gf, chosen[src], self.arrow_rows_t[arrow_idx])
                )
        w_rows = gflin.rref_rows(gf, image_rows) if image_rows else ()
        if len(w_rows) > e_v:
            return w_rows, None
        bound = None
        for arrow_idx, tgt in self.out_arrows[v]:
            if tgt in chosen:
                pre = self._preimage(arrow_idx, chosen[tgt])
                if bound is None:
                    bound = pre
                else:
                    bound = gflin.intersect_rows(gf, bound, pre, self.m.dims[v])
        return w_rows, self.full_rows[v] if bound is None else bound

    def _sandwich(self, v: int, e_v: int, chosen: dict):
        """(w_rows, bound, branch_count): the bounds at v and the number of
        e_v-dimensional subspaces between them.  branch_count = 0 marks an
        infeasible vertex."""
        w_rows, bound = self._bounds(v, e_v, chosen)
        w = len(w_rows)
        if bound is None or e_v > len(bound):
            return w_rows, bound, 0
        if w and any(not gflin.row_in_span(self.gf, bound, row) for row in w_rows):
            return w_rows, bound, 0
        return w_rows, bound, gflin.gaussian_binomial(len(bound) - w, e_v - w, self.gf.q)

    def _candidates(self, e_v: int, w_rows, bound, branch: int):
        """Yield the ``branch`` admissible subspaces at v given its sandwich
        bounds, charging one visit before each.  They come from the memo of
        the sequence for (e_v, w_rows, bound), which builds a candidate only
        when a consumer first reads that far."""
        key = (e_v, w_rows, bound)
        memo = self._candidate_cache.get(key)
        if memo is None:
            memo = self._candidate_cache[key] = self._candidate_source(e_v, w_rows, bound)
        built, build_next = memo
        for i in range(branch):
            self._charge()
            # another consumer of the same sequence may have built further
            if i == len(built):
                built.append(build_next())
            yield built[i]

    def _candidate_source(self, e_v: int, w_rows, bound):
        """A fresh memo entry: (the candidates built so far, a function
        building the next one).  The candidates are span(w) plus the rows
        of each RREF coefficient matrix, in enumerate_rref's order, times a
        complement of span(w) in the bound."""
        gf = self.gf
        w = len(w_rows)
        if e_v == w:
            return [w_rows], None
        comp = gflin.complement_in(gf, w_rows, bound) if w else bound
        coeffs = gflin.enumerate_rref(gf, len(comp), e_v - w)
        return [], lambda: gflin.rref_rows(gf, w_rows + gflin.matmul_rows(gf, next(coeffs), comp))

    def _count_pair(self, e: DimVector, chosen: dict, best) -> int | None:
        """Leaves below a node whose two unassigned vertices are v1, the
        one the search would enumerate, and v2, by the rule in the module
        docstring; None when several arrows join them.  ``best`` is v1's
        (branch, v1, w1_rows, b1_rows)."""
        gf = self.gf
        b1, v1, w1_rows, b1_rows = best
        v2 = next(u for u in range(self.q.vertex_count) if u not in chosen and u != v1)
        forward = [a for a, t in self.out_arrows[v1] if t == v2]
        backward = [a for a, s in self.in_arrows_[v1] if s == v2]
        if not forward and not backward:
            return b1 * self._sandwich(v2, e[v2], chosen)[2]
        if len(forward) + len(backward) > 1:
            return None
        e1, e2 = e[v1], e[v2]
        w2_rows, b2_rows = self._bounds(v2, e2, chosen)
        if b2_rows is None or any(not gflin.row_in_span(gf, b2_rows, row) for row in w2_rows):
            return 0
        w2 = len(w2_rows)
        if forward:
            # A: v1 -> v2.  Below U1 <= A^-1(B2), W2' = W2 + A(U1) has
            # dimension w2 + e1 - dim(U1 cap A^-1(W2)), and B2' = B2.
            (a,) = forward
            bound = gflin.intersect_rows(gf, b1_rows, self._preimage(a, b2_rows), self.m.dims[v1])
            meet = self._preimage(a, w2_rows)
            beta2 = len(b2_rows)

            def leaves(j: int) -> int:
                w = w2 + e1 - j
                return gflin.gaussian_binomial(beta2 - w, e2 - w, gf.q)

            return self._count_by_meet(v1, e1, w1_rows, bound, meet, leaves)
        # A: v2 -> v1.  Below U1 >= A(W2), W2' = W2, and B2' = B2 cap A^-1(U1)
        # has dimension dim(B2 cap ker A) + dim(U1 cap A(B2)).
        (a,) = backward
        at = self.arrow_rows_t[a]
        if w2_rows:
            w1_rows = gflin.rref_rows(gf, w1_rows + gflin.matmul_rows(gf, w2_rows, at))
        meet = gflin.rref_rows(gf, gflin.matmul_rows(gf, b2_rows, at)) if b2_rows else ()
        k0 = len(gflin.intersect_rows(gf, b2_rows, self._preimage(a, ()), self.m.dims[v2]))

        def leaves(j: int) -> int:
            return gflin.gaussian_binomial(k0 + j - w2, e2 - w2, gf.q)

        return self._count_by_meet(v1, e1, w1_rows, b1_rows, meet, leaves)

    def _count_by_meet(self, v: int, e_v: int, w_rows, bound, meet, leaves) -> int:
        """Sum of leaves(dim(U cap meet)) over the e_v-dimensional U with
        span(w) <= U <= bound.

        In the quotient bound/W, of dimension n, the image of meet has
        dimension lam = dim(meet cap bound + W) - w, and
        q^((lam-i)(eps-i)) [lam, i]_q [n-lam, eps-i]_q of the eps-dimensional
        subspaces meet it in dimension i (the q-Vandermonde terms); for
        those, dim(U cap meet) = i + dim(meet cap W).
        """
        gf, q, dim_v = self.gf, self.gf.q, self.m.dims[v]
        w = len(w_rows)
        if any(not gflin.row_in_span(gf, bound, row) for row in w_rows):
            return 0
        eps, n = e_v - w, len(bound) - w
        if eps < 0 or eps > n:
            return 0
        meet_b = gflin.intersect_rows(gf, meet, bound, dim_v)
        lam = gflin.rank_rows(gf, meet_b + w_rows) - w if meet_b else 0
        shift = len(gflin.intersect_rows(gf, meet, w_rows, dim_v))
        return sum(
            q ** ((lam - i) * (eps - i))
            * gflin.gaussian_binomial(lam, i, q)
            * gflin.gaussian_binomial(n - lam, eps - i, q)
            * leaves(i + shift)
            for i in range(max(0, eps - n + lam), min(lam, eps) + 1)
        )

    def _dfs(self, e: DimVector, collect, early_exit: bool, tally=None) -> bool:
        """Most-constrained-vertex-first search; True if anything found.

        With ``tally``, the last unassigned vertex is counted rather than
        enumerated: its sandwich is exact, so ``tally(branch)`` stands for
        ``branch`` leaves, and ``branch`` visits are charged, or 1 with
        ``early_exit``, as enumeration stops at the first leaf.  Without
        ``early_exit`` so are the last two when at most one arrow joins them
        (`_count_pair`), charging the first one's branch plus the leaves, as
        enumerating it would.
        """
        nverts = self.q.vertex_count
        found = False

        def recurse(chosen: dict) -> bool:
            nonlocal found
            if len(chosen) == nverts:
                collect(chosen)
                found = True
                return early_exit
            if tally is not None and len(chosen) == nverts - 1:
                v = next(u for u in range(nverts) if u not in chosen)
                branch = self._sandwich(v, e[v], chosen)[2]
                if branch == 0:
                    return False
                # an existence search enumerating v would stop at its first
                # candidate, which is a leaf
                self._charge(1 if early_exit else branch)
                tally(branch)
                found = True
                return early_exit
            best = None
            for v in range(nverts):
                if v in chosen:
                    continue
                w_rows, bound, branch = self._sandwich(v, e[v], chosen)
                if branch == 0:
                    return False
                if best is None or branch < best[0]:
                    best = (branch, v, w_rows, bound)
                    if branch == 1:
                        break
            branch, v, w_rows, bound = best
            # a single candidate at v is cheaper to enumerate than to count
            if tally is not None and not early_exit and len(chosen) == nverts - 2 and branch > 1:
                leaves = self._count_pair(e, chosen, best)
                if leaves is not None:
                    self._charge(branch + leaves)
                    if not leaves:
                        return False
                    tally(leaves)
                    found = True
                    return early_exit
            for rows in self._candidates(e[v], w_rows, bound, branch):
                chosen[v] = rows
                if recurse(chosen):
                    del chosen[v]
                    return True
                del chosen[v]
            return False

        recurse({})
        return found

    # -- public operations ---------------------------------------------------

    def enumerate(self, e: DimVector) -> list[list[Matrix]]:
        """All subrepresentations of dimension vector e, as per-vertex
        column bases; every returned tuple passes an arrow-stability
        recheck."""
        self._visits = 0
        e = check_dimvector(self.q, e)
        if not all(k <= d for k, d in zip(e, self.m.dims)) or self._path_prune_empty(e):
            return []
        out = []

        def collect(chosen):
            out.append({v: rows for v, rows in chosen.items()})

        self._dfs(e, collect, early_exit=False)
        results = []
        for chosen in out:
            bases = [self._rows_to_basis(v, chosen[v]) for v in range(self.q.vertex_count)]
            self._recheck(bases)
            results.append(bases)
        return results

    def count(self, e: DimVector) -> int:
        """Number of subrepresentations of dimension vector e."""
        self._visits = 0
        e = check_dimvector(self.q, e)
        if not all(k <= d for k, d in zip(e, self.m.dims)) or self._path_prune_empty(e):
            return 0
        n = 0

        def tally(k: int) -> None:
            nonlocal n
            n += k

        self._dfs(e, lambda _: tally(1), early_exit=False, tally=tally)
        return n

    def nonempty(self, e: DimVector) -> bool:
        self._visits = 0
        e = check_dimvector(self.q, e)
        if not all(k <= d for k, d in zip(e, self.m.dims)) or self._path_prune_empty(e):
            return False
        return self._dfs(e, lambda chosen: None, early_exit=True, tally=lambda k: None)

    def first_subrep(self, e: DimVector):
        """Per-vertex column bases of the first subrepresentation found, or None."""
        self._visits = 0
        e = check_dimvector(self.q, e)
        if not all(k <= d for k, d in zip(e, self.m.dims)) or self._path_prune_empty(e):
            return None
        box: list = []

        def collect(chosen):
            box.append({v: rows for v, rows in chosen.items()})

        self._dfs(e, collect, early_exit=True)
        if not box:
            return None
        bases = [self._rows_to_basis(v, box[0][v]) for v in range(self.q.vertex_count)]
        self._recheck(bases)
        return bases

    def _rows_to_basis(self, v: int, rows: gflin.Rows) -> Matrix:
        f, n = self.m.field, self.m.dims[v]
        return Matrix.from_cols(f, [list(r) for r in gflin.unpack_rows(self.gf, rows, n)], nrows=n)

    def _recheck(self, bases) -> None:
        for (s, t), mat in zip(self.q.arrows, self.m.arrow_mats):
            image = mat @ bases[s]
            stacked = Matrix.hstack([bases[t], image])
            if stacked.rank() != bases[t].rank():
                raise RuntimeError("enumerated subspaces failed the stability recheck")


def enumerate_subreps(m: Representation, e: DimVector, budget: int = DEFAULT_BUDGET):
    return SubrepOracle(m, budget).enumerate(e)


def count(m: Representation, e: DimVector, q: int, budget: int = DEFAULT_BUDGET) -> int:
    return SubrepOracle(m.change_field(FieldSpec.of_order(q)), budget).count(e)


def nonempty(m: Representation, e: DimVector, q: int, budget: int = DEFAULT_BUDGET) -> bool:
    return SubrepOracle(m.change_field(FieldSpec.of_order(q)), budget).nonempty(e)


# ----------------------------------------------------------------------
# Counting polynomials


@dataclass
class GrassmannianCount:
    """Point counts of Gr_e(m) over several finite fields and, when the
    interpolation confirms, the counting polynomial (coefficients by
    ascending degree)."""

    dims: DimVector
    e: DimVector
    samples: list[tuple[int, int]]
    poly: list[int] | None = None
    rejected: list[int] = dc_field(default_factory=list)
    confirmed: bool = True
    # (q, echelon-pattern visits charged to the budget), parallel to samples
    visits: list[tuple[int, int]] = dc_field(default_factory=list)

    def poly_degree(self) -> int:
        if not self.poly:
            return -1
        return len(self.poly) - 1

    def leading_coefficient(self) -> int:
        if not self.poly:
            raise ValueError("no polynomial fitted")
        return self.poly[-1]

    def evaluate(self, q: int) -> int:
        if self.poly is None:
            raise ValueError("no polynomial fitted")
        acc = 0
        for c in reversed(self.poly):
            acc = acc * q + c
        return acc

    def poly_str(self) -> str:
        if self.poly is None:
            return "(none)"
        terms = []
        for i in range(len(self.poly) - 1, -1, -1):
            c = self.poly[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return " + ".join(terms) if terms else "0"


def _interpolate(points: list[tuple[int, int]]) -> list[int]:
    """Newton interpolation in integers; returns coefficients by ascending
    degree.

    Every divided difference must divide exactly, else ValueError.  That
    is the same as asking for integer coefficients: the divided
    differences of a polynomial with integer coefficients at integer
    points are integers, and the Newton basis (x - x_0)...(x - x_{k-1}) is
    monic with integer coefficients.
    """
    xs = [x for x, _ in points]
    divided = [y for _, y in points]
    n = len(points)
    coeffs = [divided[0]]
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            quo, rem = divmod(divided[i + 1] - divided[i], xs[i + level] - xs[i])
            if rem:
                raise ValueError(f"interpolation produced non-integer coefficients through {points}")
            nxt.append(quo)
        divided = nxt
        coeffs.append(divided[0])
    # expand the Newton form by Horner's rule: poly = poly * (x - x_k) + c_k
    poly = [coeffs[-1]]
    for k in range(n - 2, -1, -1):
        shifted = [0] + poly
        for i, a in enumerate(poly):
            shifted[i] -= xs[k] * a
        shifted[0] += coeffs[k]
        poly = shifted
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def counting_poly(
    m: Representation,
    e: DimVector,
    qs,
    budget: int = DEFAULT_BUDGET,
    confirm: bool = True,
) -> GrassmannianCount:
    """Count over each field order in qs and fit the minimal-degree
    polynomial through the samples.

    The representation must be given over Q with entries reducible modulo
    every requested order; an order where the reduction changes dim End is
    rejected (recorded in `rejected`).  The reductions and that decision
    come from `rep.reductions`, so F_4 and F_8 share F_2's verdict.  The
    fit, by Newton interpolation in integers, fails loudly when the samples
    do not overdetermine it (at least degree + 2 points are required, so at
    least one acts as a held-out confirmation), when a coefficient is
    non-integral, or when the degree exceeds the total dimension of m.
    """
    if not m.field.is_rationals:
        raise ValueError("counting_poly expects a representation over Q")
    e = check_dimvector(m.quiver, e)
    samples: list[tuple[int, int]] = []
    visits: list[tuple[int, int]] = []
    rejected: list[int] = []
    for q, mq in reductions(m, sorted(set(int(q) for q in qs))).items():
        if mq is None:
            rejected.append(q)
            continue
        oracle = SubrepOracle(mq, budget)
        samples.append((q, oracle.count(e)))
        visits.append((q, oracle.visits))
    result = GrassmannianCount(m.dims, e, samples, rejected=rejected, visits=visits)
    if len(samples) < 2:
        raise ValueError(f"not enough usable sample orders (got {len(samples)}): cannot fit")
    poly = _interpolate(samples)
    degree = len(poly) - 1
    if degree > m.total_dim:
        raise ValueError(f"fitted degree {degree} exceeds the cap dim m = {m.total_dim}")
    if len(samples) <= degree + 1:
        if confirm:
            raise ValueError(
                f"fit of degree {degree} through {len(samples)} samples is unconfirmed; "
                "supply at least one more field order"
            )
        result.confirmed = False
    result.poly = poly
    for q, c in samples:
        if result.evaluate(q) != c:
            raise ValueError("interpolated polynomial fails to reproduce a sample")
    return result


def export_csv(gc: GrassmannianCount, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "count"])
        for q, c in gc.samples:
            writer.writerow([q, c])
        writer.writerow([])
        writer.writerow(["polynomial", gc.poly_str()])

