"""Stable embeddings N^r -> M^r, the block-matrix lemma, and the generic
hom stabilization theorem."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from . import gflin
from .criteria import Verdict, min_slope
from .exactlin import FieldSpec, Matrix
from .grassmannian import DEFAULT_BUDGET
from .quiver import DimVector, check_dimvector, dim_scale, functional, kronecker
from .rep import (
    Morphism,
    Representation,
    hom_basis,
    hom_dim,
    power,
    random_representation,
    reductions,
)

EXHAUSTIVE_LIMIT = 200000
GRID_LIMIT = 2_000_000


@dataclass(frozen=True)
class ZSpace:
    """A subspace Z of Hom(V, W) spanned by explicit matrices."""

    field: FieldSpec
    v_dim: int
    w_dim: int
    basis: tuple[Matrix, ...]

    def __post_init__(self):
        for b in self.basis:
            if b.field != self.field or b.shape != (self.w_dim, self.v_dim):
                raise ValueError("Z-space basis matrix of the wrong shape or field")
        if self.basis:
            flat = Matrix(self.field, [list(b.flatten()) for b in self.basis], validate=False)
            if flat.rank() != len(self.basis):
                raise ValueError("Z-space basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def z_to_kronecker(z: ZSpace) -> Representation:
    """The representation of the k-arrow Kronecker quiver spanned by the
    Z-space basis maps V -> W."""
    q = kronecker(z.dim)
    return Representation(q, z.field, (z.v_dim, z.w_dim), list(z.basis))


@dataclass
class StableSearchReport:
    """Result of a randomized search for an injective block map."""

    found: bool
    r: int | None
    block_matrix: object | None  # Matrix (lemma level) or Morphism (representation level)
    trials_used: int
    seed: int
    per_r: list = dc_field(default_factory=list)
    reason: str | None = None

    def to_json(self) -> dict:
        from .rep import morphism_to_json

        block = self.block_matrix
        if isinstance(block, Morphism):
            block = morphism_to_json(block)
        elif isinstance(block, Matrix):
            block = [[str(x) for x in row] for row in block.rows]
        return {
            "found": self.found,
            "r": self.r,
            "trials_used": self.trials_used,
            "seed": self.seed,
            "per_r": self.per_r,
            "reason": self.reason,
            "block_matrix": block,
        }


@dataclass
class GenericHomEstimate:
    """Sampled upper bound for the generic hom dimension hom(m, r.e).

    The estimate is a minimum over samples, hence an upper bound for the
    true generic (minimal) value, nonincreasing as samples grow.
    """

    e: DimVector
    r: int
    estimate: int
    samples: int


# ----------------------------------------------------------------------
# The lemma hypothesis


def check_z_hypothesis(z: ZSpace, q_enum: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """dim Z(U) >= dim U for every subspace U of V, checked two ways:
    directly over the subspace lattice of V, and through the Kronecker
    representation's subrepresentation slopes.  The routes must agree."""
    if not z.field.is_finite or z.field.order != q_enum:
        raise ValueError("hypothesis check enumerates subspaces over F_{q_enum}")
    gf = gflin.gfq(q_enum)
    total = sum(gflin.gaussian_binomial(z.v_dim, d, q_enum) for d in range(z.v_dim + 1))
    if total > budget:
        raise ValueError(f"subspace lattice of size {total} exceeds the budget")
    details = []
    witness = None
    for d in range(1, z.v_dim + 1):
        for rows in gflin.enumerate_rref(gf, z.v_dim, d):
            basis_cols = Matrix.from_cols(z.field, [list(r) for r in rows], nrows=z.v_dim)
            if z.dim:
                image = Matrix.hstack([b @ basis_cols for b in z.basis])
                zdim = image.rank()
            else:
                zdim = 0
            ok = zdim >= d
            details.append({"U": [list(r) for r in rows], "dim_U": d, "dim_ZU": zdim, "ok": ok})
            if not ok and witness is None:
                witness = {
                    "kind": "subspace",
                    "U": [list(r) for r in rows],
                    "dim_U": d,
                    "dim_ZU": zdim,
                }
    direct_holds = witness is None

    # Kronecker route: e = (k-1, 1) has e(N) = dim N_2 - dim N_1, and the
    # hypothesis is exactly min-slope nonnegativity over subrepresentations.
    if z.dim:
        mk = z_to_kronecker(z)
        e = (z.dim - 1, 1)
        slope, arg = min_slope(mk, e, q_enum=q_enum, budget=budget)
        kron_holds = slope >= 0
    else:
        slope, arg, kron_holds = 0, (0, 0), True
    if kron_holds != direct_holds:
        raise RuntimeError(
            "internal disagreement: subspace route and Kronecker route differ "
            f"({direct_holds} vs {kron_holds})"
        )
    context = {
        "criterion": "z-hypothesis",
        "field": z.field.name,
        "kronecker_min_slope": slope,
        "kronecker_min_slope_at": list(arg),
        "routes_agree": True,
    }
    return Verdict(holds=direct_holds, witness=witness, details=details, context=context)


# ----------------------------------------------------------------------
# Injective block matrices: one search for Z-spaces and Hom spaces


def _random_coeff_grid(field: FieldSpec, rng, r: int, k: int):
    return [[[field.random(rng) for _ in range(k)] for _ in range(r)] for _ in range(r)]


def _block_matrices(field: FieldSpec, bases, dims, coeffs, r: int) -> list[Matrix]:
    """At each vertex v, the r x r block matrix whose (s, t) block is
    sum_l coeffs[s][t][l] * bases[v][l]; dims[v] is the (rows, cols)
    shape of one block."""
    zero = field.zero
    mats = []
    for basis, (rows, cols) in zip(bases, dims):
        big = [[zero] * (r * cols) for _ in range(r * rows)]
        for s in range(r):
            for t in range(r):
                block = None
                for c, b in zip(coeffs[s][t], basis):
                    if c != zero:
                        scaled = b.scale(c)
                        block = scaled if block is None else block + scaled
                if block is None:
                    continue
                for i, row in enumerate(block.rows):
                    big[s * rows + i][t * cols : (t + 1) * cols] = row
        mats.append(Matrix(field, big, validate=False, ncols=r * cols))
    return mats


def _grid_certificate_no_injective(field: FieldSpec, bases, dims) -> bool:
    """Over Q: certify that no combination of the basis maps is injective.

    Looks for a vertex where every maximal minor of the generic vertex
    matrix (entries linear in the h coordinates) vanishes identically,
    which is decided exactly by evaluating on the integer grid
    {0..s}^h, s = minor size: a polynomial of per-variable degree <= s
    vanishing there is zero.  Returns False when no single vertex carries
    the obstruction or the grid would exceed GRID_LIMIT evaluations.
    """
    for basis, (rows, cols) in zip(bases, dims):
        h = len(basis)
        if cols == 0 or (cols + 1) ** h * math.comb(rows, cols) > GRID_LIMIT:
            continue
        if all(
            _block_matrices(field, [basis], [(rows, cols)], [[point]], 1)[0].rank() < cols
            for point in itertools.product(range(cols + 1), repeat=h)
        ):
            return True
    return False


def _search_blocks(
    field: FieldSpec, bases, dims, r_max: int, trials: int, seed: int, space: str
) -> StableSearchReport:
    """Search r = 1..r_max for r x r coefficient grids whose assembled
    block matrix has full column rank at every vertex.

    bases[v] lists the h basis maps at vertex v, dims[v] their (rows,
    cols).  At each r: an exhaustive scan when |F|^(h r^2) <=
    EXHAUSTIVE_LIMIT, so a miss certifies impossibility at that r;
    otherwise, over Q at r = 1, the determinant-identity certificate;
    otherwise `trials` samples from one seeded generator carried across r.
    A found report carries the list of vertex block matrices.  An empty
    range, r_max < 1, is a ValueError.
    """
    if r_max < 1:
        raise ValueError(f"r_max = {r_max}: the search needs r_max >= 1")
    if all(cols == 0 for _, cols in dims):
        zero = _block_matrices(field, bases, dims, [[[]]], 1)
        return StableSearchReport(True, 1, zero, 0, seed, [])
    h = len(bases[0])
    if h == 0:
        return StableSearchReport(False, None, None, 0, seed, [], reason=f"{space} = 0")
    if any(rows < cols for rows, cols in dims):
        return StableSearchReport(
            False, None, None, 0, seed, [], reason="no injective map can exist at any r"
        )
    rng = random.Random(seed)
    per_r = []
    used = 0
    for r in range(1, r_max + 1):
        cells = h * r * r
        classes = field.order**cells if field.is_finite else math.inf
        exhaustive = classes <= EXHAUSTIVE_LIMIT
        if exhaustive:
            how = "exhaustive"
            grids = (
                [[flat[(s * r + t) * h : (s * r + t + 1) * h] for t in range(r)] for s in range(r)]
                for flat in itertools.product(field.elements(), repeat=cells)
            )
        elif r == 1 and field.is_rationals and _grid_certificate_no_injective(field, bases, dims):
            per_r.append({"r": 1, "status": "impossible (determinant identity)"})
            continue
        else:
            how = "sampled"
            grids = (_random_coeff_grid(field, rng, r, h) for _ in range(trials))
        for coeffs in grids:
            used += 1
            mats = _block_matrices(field, bases, dims, coeffs, r)
            if all(mat.rank() == mat.ncols for mat in mats):
                per_r.append({"r": r, "status": f"found ({how})"})
                return StableSearchReport(True, r, mats, used, seed, per_r)
        if exhaustive:
            per_r.append({"r": r, "status": "impossible (exhaustive)", "classes": classes})
        else:
            per_r.append({"r": r, "status": "not found (sampled)"})
    return StableSearchReport(False, None, None, used, seed, per_r, reason="budget exhausted")


def find_injective_block(
    z: ZSpace, r_max: int = 8, trials: int = 256, seed: int = 0
) -> StableSearchReport:
    """Search for F in M_{r x r}(Z) injective as a map V^r -> W^r,
    r = 1..r_max; a returned matrix is certified by exact rank.

    The search is the one of `search_stable_embedding` on a single vertex.
    A not-found report after sampling is inconclusive, never a disproof.
    """
    report = _search_blocks(
        z.field, [z.basis], [(z.w_dim, z.v_dim)], r_max, trials, seed, "Z"
    )
    if report.found:
        report.block_matrix = report.block_matrix[0]
    return report


# ----------------------------------------------------------------------
# Representation-level stable embeddings


def search_stable_embedding(
    n: Representation,
    m: Representation,
    r_max: int = 8,
    trials: int = 256,
    seed: int = 0,
) -> StableSearchReport:
    """Search for an injective morphism n^r -> m^r, r = 1..r_max, with
    r x r blocks of Hom(n, m)-basis combinations.

    Small finite coefficient spaces are scanned exhaustively (so a miss at
    that r is a certified impossibility); otherwise seeded sampling.  At
    r = 1 over Q a determinant-identity grid test can also certify
    impossibility.  A pair where some vertex of m is smaller than that of n
    is refused without a search.  A not-found report after the budget is
    inconclusive.
    """
    if n.quiver != m.quiver or n.field != m.field:
        raise ValueError("representations must share a quiver and a field")
    basis = hom_basis(n, m)
    report = _search_blocks(
        n.field,
        [[phi.vertex_mats[v] for phi in basis.morphisms] for v in range(n.quiver.vertex_count)],
        list(zip(m.dims, n.dims)),
        r_max,
        trials,
        seed,
        "Hom(n, m)",
    )
    if report.found:
        r = report.r
        report.block_matrix = Morphism(power(n, r), power(m, r), report.block_matrix, validate=False)
    return report


def search_stable_surjection(
    u: Representation, v: Representation, r_max: int = 8, trials: int = 256, seed: int = 0
) -> StableSearchReport:
    """Search for a surjection u^r -> v^r by dualizing the embedding search."""
    from .rep import dual, dual_morphism

    report = search_stable_embedding(dual(v), dual(u), r_max=r_max, trials=trials, seed=seed)
    if report.found and isinstance(report.block_matrix, Morphism):
        report.block_matrix = dual_morphism(report.block_matrix)
    return report


# ----------------------------------------------------------------------
# Generic hom dimensions


def generic_hom(
    m: Representation,
    e: DimVector,
    r: int,
    samples: int = 64,
    seed: int = 0,
) -> GenericHomEstimate:
    """min over sampled X of dim vector r.e of dim Hom(m, X): an upper
    bound for the generic hom dimension hom(m, r.e).  At least one sample
    is required."""
    e = check_dimvector(m.quiver, e)
    if samples < 1:
        raise ValueError(f"samples = {samples}: at least one sample is required")
    target = dim_scale(r, e)
    best = None
    for t in range(samples):
        x = random_representation(m.quiver, target, m.field, seed=seed + 31 * t)
        d = hom_dim(m, x)
        best = d if best is None else min(best, d)
        if best == max(0, functional(m.quiver, e, m.dims) * r):
            break  # cannot go below the Euler lower bound
    return GenericHomEstimate(e, r, best, samples)


def generic_rank_vector(
    m: Representation, e: DimVector, samples: int = 64, seed: int = 0
) -> DimVector:
    """Coordinatewise-maximal vertex rank vector of sampled maps from m to
    sampled representations of dimension vector e.  At least one sample is
    required."""
    e = check_dimvector(m.quiver, e)
    if samples < 1:
        raise ValueError(f"samples = {samples}: at least one sample is required")
    rng = random.Random(seed)
    best = [0] * m.quiver.vertex_count
    for t in range(samples):
        x = random_representation(m.quiver, e, m.field, seed=seed + 127 * t)
        basis = hom_basis(m, x)
        if basis.dim == 0:
            continue
        mor = basis.combination([m.field.random(rng) for _ in range(basis.dim)])
        for v, mat in enumerate(mor.vertex_mats):
            best[v] = max(best[v], mat.rank())
    return tuple(best)


@dataclass
class StabilizationReport:
    e: DimVector
    e_of_m: int
    entries: list  # (r, estimate, target)
    threshold: int | None
    hypothesis_checked: bool
    hypothesis_field: str | None
    inconclusive: bool

    def to_json(self) -> dict:
        return {
            "e": list(self.e),
            "e(m)": self.e_of_m,
            "entries": [list(x) for x in self.entries],
            "threshold": self.threshold,
            "hypothesis_checked": self.hypothesis_checked,
            "hypothesis_field": self.hypothesis_field,
            "inconclusive": self.inconclusive,
        }


def check_stabilization(
    m: Representation,
    e: DimVector,
    r_range=range(1, 9),
    samples: int = 64,
    q_enum: int = 5,
    seed: int = 0,
    assume_hypothesis: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> StabilizationReport:
    """Observe hom(m, r.e) = r.e(m) for large r, under the hypothesis
    e(N) >= 0 for all subrepresentations N of m.

    The hypothesis is verified by exhaustive min-slope over F_{q_enum}
    (reducing m if it is given over Q, by `rep.reductions`, where the
    reduction must keep dim End); with assume_hypothesis=True an
    unverifiable hypothesis is assumed and flagged.  Estimates below the
    target are impossible under the hypothesis and raise.  An empty
    r_range, one starting below r = 1, or samples < 1 is a ValueError.
    """
    e = check_dimvector(m.quiver, e)
    if not r_range or min(r_range) < 1:
        raise ValueError(f"r range {r_range} must be nonempty and start at r >= 1")
    if samples < 1:
        raise ValueError(f"samples = {samples}: at least one sample is required")
    hypothesis_checked = False
    hypothesis_field = None
    if m.field.is_finite:
        m_check = m
    else:
        try:
            m_check = reductions(m, [q_enum])[q_enum]
        except ValueError:
            m_check = None
    if m_check is not None:
        slope, arg = min_slope(m_check, e, q_enum=m_check.field.order, budget=budget)
        hypothesis_checked = True
        hypothesis_field = m_check.field.name
        if slope < 0:
            raise ValueError(
                f"hypothesis violated: subrepresentation of dims {arg} has e(N) = {slope} < 0"
            )
    elif not assume_hypothesis:
        raise ValueError(
            "cannot verify the hypothesis over the requested field; "
            "pass assume_hypothesis=True to proceed flagged"
        )
    e_of_m = functional(m.quiver, e, m.dims)
    entries = []
    for r in r_range:
        est = generic_hom(m, e, r, samples=samples, seed=seed + 1009 * r).estimate
        target = r * e_of_m
        if est < target:
            raise RuntimeError(
                f"estimate {est} below r*e(m) = {target} at r = {r}: impossible under the "
                "hypothesis; this signals a bug"
            )
        entries.append((r, est, target))
    threshold = None
    for r, est, target in reversed(entries):
        if est == target:
            threshold = r
        else:
            break
    inconclusive = threshold is None or entries[-1][1] != entries[-1][2]
    return StabilizationReport(
        e, e_of_m, entries, threshold, hypothesis_checked, hypothesis_field, inconclusive
    )
