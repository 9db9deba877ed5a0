"""Brute-force subrepresentation enumeration over small finite fields.

This is the ground truth the Hom-inequality criteria are validated against,
so it runs on its own compact linear algebra (:mod:`quiverrep.gflin`) and
never consults the criteria.

The search assigns one vertex subspace at a time, always picking the
unassigned vertex with the fewest admissible candidates.  A candidate at a
vertex is exact with respect to every arrow whose other endpoint is already
assigned: it must contain the forced span of the incoming images and lie in
the intersection of the outgoing preimages, so each leaf of the search is a
subrepresentation and infeasible branches die at a dimension count.  A
composite-path rank prune rejects impossible dimension vectors up front.

Once a single vertex v is left, every arrow at v has both endpoints
assigned, so the sandwich span(w) <= U <= span(w) + span(complement) is
exact: the admissible U at v are precisely the subspaces between the two
bounds, and there are [len(complement), e_v - w]_q of them (a Gaussian
binomial).  ``count`` adds that number instead of building each U, and
charges the budget one visit per U, as enumerating them would; visits
therefore still count echelon patterns whichever operation ran.  The other
operations need the rows of each leaf, or stop at the first one, so they
still enumerate the last vertex.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import gflin
from .exactlin import FieldSpec, Matrix
from .quiver import DimVector, check_dimvector, topological_order
from .rep import Representation, dual, hom_dim

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

    Preimage computations are memoized per (arrow, target subspace), which
    pays off when many dimension vectors e are queried against the same
    representation.
    """

    def __init__(self, m: Representation, budget: int = DEFAULT_BUDGET):
        if not m.field.is_finite:
            raise ValueError("enumeration requires a finite ground field")
        order = topological_order(m.quiver)
        if order is None:
            raise ValueError("enumeration requires an acyclic quiver")
        self.m = m
        self.q = m.quiver
        self.gf = gflin.gfq(m.field.order)
        self.budget = budget
        self.process_order = tuple(reversed(order))
        self.arrow_rows = tuple(tuple(tuple(r) for r in mat.rows) for mat in m.arrow_mats)
        self.arrow_rows_t = tuple(
            tuple(tuple(mat.rows[i][j] for i in range(mat.nrows)) for j in range(mat.ncols))
            for mat in m.arrow_mats
        )
        self.out_arrows = tuple(
            tuple((i, t) for i, (s, t) in enumerate(self.q.arrows) if s == v)
            for v in range(self.q.vertex_count)
        )
        self.in_arrows_ = tuple(
            tuple((i, s) for i, (s, t) in enumerate(self.q.arrows) if t == v)
            for v in range(self.q.vertex_count)
        )
        self._preimage_cache: dict = {}
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
        frontier = {
            v: {v: gflin.identity_rows(self.m.dims[v])} for v in range(self.q.vertex_count)
        }
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

    def _sandwich(self, v: int, e_v: int, chosen: dict):
        """Exact bounds at v from the assigned neighbours.

        Returns (w_rows, complement_rows, branch_count): any admissible
        subspace satisfies span(w) <= U <= span(w) + span(complement), and
        branch_count is the number of such U.  branch_count = 0 marks an
        infeasible vertex.
        """
        gf = self.gf
        dim_v = self.m.dims[v]
        image_rows = []
        for arrow_idx, src in self.in_arrows_[v]:
            if src in chosen and chosen[src]:
                image_rows.extend(
                    gflin.matmul_rows(gf, chosen[src], self.arrow_rows_t[arrow_idx])
                )
        w_rows = gflin.rref_rows(gf, image_rows) if image_rows else ()
        w = len(w_rows)
        if w > e_v:
            return w_rows, (), 0
        bound = None
        for arrow_idx, tgt in self.out_arrows[v]:
            if tgt in chosen:
                pre = self._preimage(arrow_idx, chosen[tgt])
                if bound is None:
                    bound = pre
                else:
                    bound = gflin.intersect_rows(gf, bound, pre, dim_v)
        if bound is None:
            bound = gflin.identity_rows(dim_v)
        if e_v > len(bound):
            return w_rows, (), 0
        if w and any(not gflin.row_in_span(gf, bound, row) for row in w_rows):
            return w_rows, (), 0
        comp = gflin.complement_in(gf, w_rows, bound) if w else bound
        branch = gflin.gaussian_binomial(len(comp), e_v - w, gf.q)
        return w_rows, comp, branch

    def _candidates(self, v: int, e_v: int, chosen: dict, w_rows, comp):
        """Yield the admissible subspaces at v given sandwich bounds."""
        gf = self.gf
        w = len(w_rows)
        if e_v == w:
            self._charge()
            yield w_rows
            return
        for coeffs in gflin.enumerate_rref(gf, len(comp), e_v - w):
            self._charge()
            rows = gflin.matmul_rows(gf, coeffs, comp)
            yield gflin.rref_rows(gf, w_rows + rows)

    def _dfs(self, e: DimVector, collect, early_exit: bool, tally=None) -> bool:
        """Most-constrained-vertex-first search; True if anything found.

        With ``tally``, the last unassigned vertex is counted rather than
        enumerated: its sandwich is exact, so ``tally(branch)`` stands for
        ``branch`` leaves, and ``branch`` visits are charged.
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
                self._charge(branch)
                tally(branch)
                found = True
                return early_exit
            best = None
            for v in range(nverts):
                if v in chosen:
                    continue
                w_rows, comp, branch = self._sandwich(v, e[v], chosen)
                if branch == 0:
                    return False
                if best is None or branch < best[0]:
                    best = (branch, v, w_rows, comp)
                    if branch == 1:
                        break
            _, v, w_rows, comp = best
            for rows in self._candidates(v, e[v], chosen, w_rows, comp):
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
        return self._dfs(e, lambda chosen: None, early_exit=True)

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
        f = self.m.field
        return Matrix.from_cols(f, [list(r) for r in rows], nrows=self.m.dims[v])

    def _recheck(self, bases) -> None:
        for (s, t), mat in zip(self.q.arrows, self.m.arrow_mats):
            image = mat @ bases[s]
            stacked = Matrix.hstack([bases[t], image])
            if stacked.rank() != bases[t].rank():
                raise RuntimeError("enumerated subspaces failed the stability recheck")


def enumerate_subreps(m: Representation, e: DimVector, budget: int = DEFAULT_BUDGET):
    return SubrepOracle(m, budget).enumerate(e)


def count(m: Representation, e: DimVector, q: int, budget: int = DEFAULT_BUDGET) -> int:
    mq = _over_order(m, q)
    return SubrepOracle(mq, budget).count(e)


def nonempty(m: Representation, e: DimVector, q: int, budget: int = DEFAULT_BUDGET) -> bool:
    mq = _over_order(m, q)
    return SubrepOracle(mq, budget).nonempty(e)


def _over_order(m: Representation, q: int) -> Representation:
    target = FieldSpec.of_order(q)
    if m.field == target:
        return m
    return m.change_field(target)


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


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Newton interpolation; returns coefficients by ascending degree."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    coeffs = [divided[0]]
    for level in range(1, n):
        divided = [
            (divided[i + 1] - divided[i]) / (xs[i + level] - xs[i])
            for i in range(n - level)
        ]
        coeffs.append(divided[0])
    # expand the Newton form
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1})
    for k, c in enumerate(coeffs):
        for i, a in enumerate(acc):
            poly[i] += c * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a
            nxt[i] -= xs[k] * a
        acc = nxt
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
    rejected (recorded in `rejected`).  The fit fails loudly when the
    samples do not overdetermine it (at least degree + 2 points are
    required, so at least one acts as a held-out confirmation), when a
    coefficient is non-integral, or when the degree exceeds the total
    dimension of m.
    """
    if not m.field.is_rationals:
        raise ValueError("counting_poly expects a representation over Q")
    e = check_dimvector(m.quiver, e)
    end_q = hom_dim(m, m)
    samples: list[tuple[int, int]] = []
    visits: list[tuple[int, int]] = []
    rejected: list[int] = []
    for q in sorted(set(int(q) for q in qs)):
        mq = m.change_field(FieldSpec.of_order(q))
        if hom_dim(mq, mq) != end_q:
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
    if any(c.denominator != 1 for c in poly):
        raise ValueError(f"interpolation produced non-integer coefficients: {poly}")
    if degree > m.total_dim:
        raise ValueError(f"fitted degree {degree} exceeds the cap dim m = {m.total_dim}")
    if len(samples) <= degree + 1:
        if confirm:
            raise ValueError(
                f"fit of degree {degree} through {len(samples)} samples is unconfirmed; "
                "supply at least one more field order"
            )
        result.confirmed = False
    result.poly = [int(c) for c in poly]
    for q, c in samples:
        if result.evaluate(q) != c:
            raise ValueError("interpolated polynomial fails to reproduce a sample")
    return result


def codimension_count(m: Representation, e: DimVector, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """|Gr^e(m)|, the Grassmannian of subrepresentations of codimension e.

    Computed over the opposite quiver: N of codimension e corresponds to
    the dual of m/N, a dimension-e subrepresentation of the dual of m, so
    |Gr^e(m)| = |Gr_e(dual m)| and also |Gr_e(m)| = |Gr_{dim m - e}(dual m)|.
    """
    e = check_dimvector(m.quiver, e)
    return count(dual(m), e, q, budget)


def export_csv(gc: GrassmannianCount, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "count"])
        for q, c in gc.samples:
            writer.writerow([q, c])
        writer.writerow([])
        writer.writerow(["polynomial", gc.poly_str()])

