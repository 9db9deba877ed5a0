"""Inputs, items and answers of the four benchmark workloads.

Each workload is a class whose constructor is the set-up (tables, suites,
case lists, generated files) and whose ``run`` method is one timed item.
``run`` returns the item's answer: only values fixed by the mathematics
(verdicts, counts, polynomial coefficients, the r at which an embedding
is first found, root counts, multiplicities), never witnesses or
embedding matrices, which a faster search may legitimately change.  It
raises ``CheckFailed`` when a cross-check inside the item fails.

Every input comes from ``random.Random(f"<workload>:<seed>")``: string
seeds hash with SHA-512, so the inputs do not depend on PYTHONHASHSEED.
The case-selection rules follow tests/test_acceptance.py (criteria 3, 4,
7 and 8); the sizes are chosen so one pass over the items takes a few
seconds on a 2-CPU host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from quiverrep import gflin
from quiverrep.criteria import CheckConfig, GrassmannianChecker, an_criterion, check_nc2
from quiverrep.dynkin import assemble, build_table
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.fixtures import write_fixtures
from quiverrep.grassmannian import SubrepOracle, counting_poly
from quiverrep.quiver import Quiver, a_n, d4_subspace, save_quiver
from quiverrep.rep import hom_dim, is_injective_morphism, random_representation, save_rep
from quiverrep.stable import ZSpace, check_z_hypothesis, z_to_kronecker
from run import worker_env

F2, F5 = GF(2), GF(5)
A3 = a_n(3)
D4 = d4_subspace()
E6 = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)), ("1", "2", "3", "4", "5", "6"))
COUNT_ORDERS = (2, 3, 4, 5, 7)
CONFIRM_ORDERS = (8, 9)
COUNT_BUDGET = 300000
ENUM_BUDGET = 10**7
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An item's answer failed a cross-check inside the item."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def answer_hash(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Shared suites (acceptance-suite rules)


def a3_multisets():
    """All 729 multisets of A3 indecomposables with multiplicities <= 2,
    as multiplicity vectors over the table's root order."""
    return list(itertools.product(range(3), repeat=6))


def a3_rep(table, mults):
    return assemble(table, {table.roots[i]: m for i, m in enumerate(mults) if m})


def a3_dims(table, mults):
    return tuple(sum(m * r[v] for m, r in zip(mults, table.roots)) for v in range(3))


def a3_size(table, mults):
    """Sort key by size: total dimension, then dimension vector."""
    dims = a3_dims(table, mults)
    return sum(dims), dims


def a3_socle_classes(table, mults):
    """Number of socle subspace classes nc2 scans for an A3 representation
    over F_2: the socle of an interval module 1 -> 2 -> 3 sits at its last
    vertex."""
    socle = [0, 0, 0]
    for m, root in zip(mults, table.roots):
        socle[max(v for v in range(3) if root[v])] += m
    return sum(gflin.gaussian_binomial(s, k, 2) for s in socle for k in range(1, s + 1))


def stratified(rng: random.Random, pool, key, n: int, fixed_top: int = 0):
    """n items from the pool sorted by a cost proxy, one from each of n
    consecutive strata: a uniform draw, except that the `fixed_top`
    costliest strata always give their middle item.  Every seed then gets
    a different set with the same spread of item costs, so a seed changes
    the inputs but not how much work a pass is; the few costliest items,
    which decide the tail, are the same for every seed."""
    ordered = sorted(pool, key=key)
    if len(ordered) <= n:
        return ordered
    bounds = [round(i * len(ordered) / n) for i in range(n + 1)]
    return [
        ordered[(lo + hi) // 2 if i >= n - fixed_top else rng.randrange(lo, hi)]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def d4_reps(rng: random.Random, count: int):
    """Seeded D4 representations of total dimension <= 8 over Q whose
    reduction into every counting order keeps dim End, as
    (rep over Q, rep over F_2)."""
    out = []
    while len(out) < count:
        dims = tuple(rng.randint(0, 3) for _ in range(4))
        if not 0 < sum(dims) <= 8:
            continue
        mq = random_representation(D4, dims, QQ, seed=rng.randrange(2**31), box=1)
        end_q = hom_dim(mq, mq)
        try:
            reductions = [mq.change_field(GF(o)) for o in COUNT_ORDERS + CONFIRM_ORDERS]
        except ValueError:
            continue
        if any(hom_dim(r, r) != end_q for r in reductions):
            continue
        out.append((mq, reductions[0]))
    return out


def dim_vectors(dims):
    return itertools.product(*(range(d + 1) for d in dims))


def admission_orders(dim: int):
    """Fit orders: the five required ones plus confirmation orders when the
    degree needs them; None when even those cannot confirm."""
    qs = list(COUNT_ORDERS)
    for extra in CONFIRM_ORDERS:
        if len(qs) >= dim + 2:
            break
        qs.append(extra)
    return qs if len(qs) >= dim + 2 else None


# ----------------------------------------------------------------------
# Workloads


class GrOracle:
    """Criterion against enumeration oracle: nonempty(e) for every e <= dim M."""

    name = "gr-oracle"
    A3_ITEMS = 260
    A3_FIXED_TOP = 25
    D4_ITEMS = 18

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.t_a3 = build_table(A3, F2, seed=0)
        self.t_d4 = build_table(D4, F2, seed=0)
        picks = stratified(rng, a3_multisets(), lambda m: a3_size(self.t_a3, m), self.A3_ITEMS, self.A3_FIXED_TOP)
        self.items = [("A3", list(m), a3_rep(self.t_a3, m), self.t_a3) for m in picks]
        self.items += [("D4", None, m2, self.t_d4) for _, m2 in d4_reps(rng, self.D4_ITEMS)]
        rng.shuffle(self.items)

    def run(self, item):
        kind, mults, m2, table = item
        checker = GrassmannianChecker(m2, table)
        oracle = SubrepOracle(m2)
        bits = []
        for e in dim_vectors(m2.dims):
            got = oracle.nonempty(e)
            check(checker.nonempty(e).holds == got, f"criterion != oracle at {m2.dims}, e = {e}")
            bits.append("1" if got else "0")
        return [kind, mults, list(m2.dims), "".join(bits)]

    def counters(self, answers):
        checks = sum(len(a[3]) for a in answers)
        return {
            "reps": len(answers),
            "checks": checks,
            "d4_checks": sum(len(a[3]) for a in answers if a[0] == "D4"),
            "nonempty": sum(a[3].count("1") for a in answers),
        }


class GrCount:
    """Counting polynomials of irreducible quiver Grassmannians."""

    name = "gr-count"
    A3_SCAN = 150
    A3_SCAN_FIXED_TOP = 25
    # A3 items per number of fit orders, in proportion to the cases these
    # rules admit from all 729 multisets: 708 need five orders, 198 six
    # (F_8), none seven (F_9: every dimension-5 case exceeds the budget at
    # q = 9).  Fixed rather than taken from the scan, whose share of the
    # dearer six-order cases varies by seed.
    A3_ITEMS = {5: 102, 6: 28}
    A3_FIXED_TOP = 8
    D4_ITEMS = 20  # drawn from at least twice as many admitted D4 cases

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        t_f2 = build_table(A3, F2, seed=0)
        t_q = build_table(A3, QQ, seed=0, reduction_orders=COUNT_ORDERS + CONFIRM_ORDERS)
        t_d4 = build_table(D4, F2, seed=0)
        self.scan_counters = dict.fromkeys(("irreducible_cases", "admitted", "refused_budget", "refused_degree"), 0)
        suite = a3_multisets()
        picks = stratified(rng, suite, lambda m: a3_size(t_f2, m), self.A3_SCAN, self.A3_SCAN_FIXED_TOP)
        a3_cases = self._admit([(a3_rep(t_f2, m), a3_rep(t_q, m), t_f2) for m in picks])
        scanned = set(picks)
        while any(sum(1 for c in a3_cases if len(c[3]) == k) < n for k, n in self.A3_ITEMS.items()):
            # a scan short of one kind of case goes on with further multisets
            m = rng.choice([m for m in suite if m not in scanned])
            scanned.add(m)
            a3_cases += self._admit([(a3_rep(t_f2, m), a3_rep(t_q, m), t_f2)])
        d4_cases = []
        while len(d4_cases) < 2 * self.D4_ITEMS:
            d4_cases += self._admit([(m2, mq, t_d4) for mq, m2 in d4_reps(rng, 1)])
        self.items = stratified(rng, d4_cases, self._cost, self.D4_ITEMS)
        for orders, count in self.A3_ITEMS.items():
            cases = [c for c in a3_cases if len(c[3]) == orders]
            self.items += stratified(rng, cases, self._cost, count, self.A3_FIXED_TOP)
        rng.shuffle(self.items)

    def _admit(self, scan):
        """Admitted (rep over Q, e, dimension, orders) cases of the scanned
        representations, by the acceptance-4 rules."""
        counters = self.scan_counters
        admitted = []
        for m2, mq, table in scan:
            checker = GrassmannianChecker(m2, table)
            for e in dim_vectors(m2.dims):
                v = checker.irreducible(e)
                if not v.holds:
                    continue
                counters["irreducible_cases"] += 1
                dim = v.context["dimension"]
                qs = admission_orders(dim)
                if qs is None:
                    counters["refused_degree"] += 1
                elif math.prod(gflin.gaussian_binomial(d, k, max(qs)) for d, k in zip(mq.dims, e)) > COUNT_BUDGET:
                    counters["refused_budget"] += 1
                else:
                    counters["admitted"] += 1
                    admitted.append((mq, e, dim, qs))
        return admitted

    @staticmethod
    def _cost(case):
        """Predicted cost: echelon patterns a naive enumeration visits over
        all orders, plus the Hom systems solved per order, which grow with
        sum(d^2).  Weights fitted to item times (a pattern about 0.1 us, a
        unit of sum(d^2) about 0.3 ms)."""
        mq, e, _, qs = case
        patterns = sum(math.prod(gflin.gaussian_binomial(d, k, q) for d, k in zip(mq.dims, e)) for q in qs)
        return patterns + 3000 * sum(d * d for d in mq.dims)

    def run(self, item):
        mq, e, dim, qs = item
        gc = counting_poly(mq, e, qs, budget=ENUM_BUDGET)
        check(gc.confirmed, f"fit unconfirmed at {mq.dims}, e = {e}")
        check(not gc.rejected, f"orders {gc.rejected} rejected at {mq.dims}, e = {e}")
        check(gc.poly_degree() == dim, f"degree {gc.poly_degree()} != {dim} at {mq.dims}, e = {e}")
        check(gc.leading_coefficient() == 1, f"not monic at {mq.dims}, e = {e}")
        return [list(mq.dims), list(e), [list(s) for s in gc.samples], gc.poly]

    def counters(self, answers):
        by_orders = {f"fitted_{k}_orders": sum(1 for a in answers if len(a[2]) == k) for k in (5, 6, 7)}
        return dict(self.scan_counters, fitted=len(answers), **by_orders)


class AnEmbed:
    """Type A criterion with its constructed embedding against nc2."""

    name = "an-embed"
    SQUAREFREE_PAIRS = 110
    MIXED_PAIRS = 110
    # A fixed pool of uniform pairs from the multiplicity-<=2 suite stands in
    # for all 729^2, so its costliest strata are the same for every seed.
    # Its pairs with a six-dimensional socle take half a pass.
    MIXED_POOL = 4000
    MIXED_FIXED_TOP = 15

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.table = build_table(A3, F2, seed=0)
        suite = a3_multisets()
        squarefree = [m for m in suite if max(m) <= 1]

        def cost(pair):  # nc2's class scan dominates an item
            n, m = pair
            return a3_socle_classes(self.table, n), a3_size(self.table, n), a3_size(self.table, m)

        pairs = stratified(rng, itertools.product(squarefree, repeat=2), cost, self.SQUAREFREE_PAIRS)
        pool_rng = random.Random(f"{self.name}:pool")
        mixed = [(pool_rng.choice(suite), pool_rng.choice(suite)) for _ in range(self.MIXED_POOL)]
        pairs += stratified(rng, mixed, cost, self.MIXED_PAIRS, self.MIXED_FIXED_TOP)
        reps = {m: a3_rep(self.table, m) for m in set(itertools.chain.from_iterable(pairs))}
        self.items = [(n, m, reps[n], reps[m], rng.randrange(2**31)) for n, m in pairs]
        rng.shuffle(self.items)
        self.config = CheckConfig()

    def run(self, item):
        n_key, m_key, n, m, seed = item
        v_an = an_criterion(n, m, self.table, seed=seed)
        v_nc2 = check_nc2(n, m, self.config)
        check(v_an.holds == v_nc2.holds, f"an_criterion != nc2 on {n_key} -> {m_key}")
        if v_an.holds:
            emb = v_an.context["embedding"]
            check(is_injective_morphism(emb), f"embedding not injective on {n_key} -> {m_key}")
            check(emb.source.dims == n.dims and emb.target.dims == m.dims, "embedding shape")
        return [list(n_key), list(m_key), v_an.holds, v_nc2.context["checked"]]

    def counters(self, answers):
        return {
            "pairs": len(answers),
            "embeddings": sum(1 for a in answers if a[2]),
            "nc2_classes": sum(a[3] for a in answers),
        }


def sample_z_space(rng: random.Random, v: int, w: int, k: int):
    """A Z-space over F_5 satisfying the lemma hypothesis (acceptance 8 rules,
    with the dimensions fixed so every seed costs the same to set up)."""
    while True:
        mats = [Matrix(F5, [[rng.randrange(5) for _ in range(v)] for _ in range(w)]) for _ in range(k)]
        if Matrix(F5, [list(c.flatten()) for c in mats]).rank() != k:
            continue
        z = ZSpace(F5, v, w, tuple(mats))
        if check_z_hypothesis(z, 5).holds:
            return z


class CliMix:
    """One ``quiverrep`` subprocess per item over a fixed command list."""

    name = "cli-mix"
    # Items run in child processes: peak RSS is theirs, and a host-speed
    # probe in this process does not follow their speed (measured: it left
    # the pass-to-pass variation at 0.09-0.12), so times stay raw.
    runs_in_children = True
    Z_DIMS = (2, 3, 3)  # dim V, dim W, dim Z
    E6_DIMS = (1, 2, 2, 1, 1, 1)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        for field in ("Q", "F_2", "F_3", "F_4"):
            write_fixtures(workdir / field, GF(int(field[2:])) if field != "Q" else QQ)
        z = sample_z_space(rng, *self.Z_DIMS)
        save_rep(z_to_kronecker(z), workdir / "kronecker_z.json")
        save_quiver(E6, workdir / "e6.quiver.json")
        save_rep(random_representation(E6, self.E6_DIMS, F5, seed=rng.randrange(2**31)), workdir / "e6.rep.json")
        e_z = f"{z.dim - 1},1"
        self.items = []
        for field in ("Q", "F_2", "F_3", "F_4"):
            for pair in ("kronecker3.pi kronecker3.m", "d4.p1 d4.x"):
                n, m = pair.split()
                self.items.append(["check-embed", f"{field}/{n}.json", f"{field}/{m}.json", "--stable", "--rmax", "2"])
        self.items += [
            ["count-poly", "Q/d4.x.json", "--e", "1,1,1,1"],
            ["count-poly", "Q/d4.x.json", "--e", "1,0,1,1"],
            ["stabilize", "kronecker_z.json", "--e", e_z, "--q-enum", "5"],
            ["semistable", "kronecker_z.json", "--e", e_z, "--q-enum", "5"],
            ["roots", "e6.quiver.json"],
            ["decompose", "e6.rep.json"],
        ]
        self.env = worker_env()

    def run(self, item):
        """Run the command in a fresh interpreter, as a user would."""
        proc = subprocess.run(
            [sys.executable, "-m", "quiverrep.cli", *item, "--format", "json"],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return self.answer(item, proc.returncode, proc.stdout, proc.stderr)

    def run_inprocess(self, item):
        """Replay the argv through quiverrep.cli.main, with the table cache
        cleared so each command builds its tables cold, as a process does."""
        from quiverrep import cli, dynkin

        dynkin._TABLE_CACHE.clear()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*item, "--format", "json"])
        finally:
            os.chdir(cwd)
        return self.answer(item, code, out.getvalue(), err.getvalue())

    def answer(self, item, code: int, out: str, err: str):
        check(code in (0, 1, 2), f"{' '.join(item)} exited {code}: {err.strip()[-300:]}")
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError) as exc:
            raise CheckFailed(f"{' '.join(item)}: unreadable output ({exc})") from None
        cmd = item[0]
        if cmd == "check-embed":
            stable = result["stable_search"]
            check(stable["found"], f"{' '.join(item)}: no embedding up to r = 2")
            # Only whether each r embeds; how it was decided (exhaustive,
            # sampled, by a certificate) is the search's business.
            found = [[p["r"], p["status"].startswith("found")] for p in stable["per_r"]]
            if "kronecker3" in item[1] or item[1].startswith("F_2/d4"):
                # N does not embed into M, but N^2 embeds into M^2
                check(stable["r"] == 2, f"{' '.join(item)}: found at r = {stable['r']}, expected 2")
                check(stable["per_r"][0]["status"].startswith("impossible"), f"{' '.join(item)}: r = 1 not impossible")
            else:
                check(stable["r"] == 1, f"{' '.join(item)}: found at r = {stable['r']}, expected 1")
            return [cmd, item[1], code, result["nc2"]["holds"], stable["r"], found]
        if cmd == "count-poly":
            poly = result["poly"]
            check(poly is not None and poly[-1] == 1, f"{' '.join(item)}: polynomial not monic")
            for q, c in result["samples"]:
                check(sum(a * q**i for i, a in enumerate(poly)) == c, f"{' '.join(item)}: fit misses q = {q}")
            return [cmd, item[3], code, result["samples"], poly]
        if cmd == "stabilize":
            for r, est, target in result["entries"]:
                check(est >= target, f"stabilize: estimate below target at r = {r}")
            # The estimates, and so threshold and inconclusive, come from sampling.
            return [cmd, code, result["e(m)"], [[r, target] for r, _, target in result["entries"]]]
        if cmd == "semistable":
            ctx = result["context"]
            return [cmd, code, result["holds"], ctx["e(m)"], ctx["min_slope"]]
        if cmd == "roots":
            check(len(result) == 36, f"E6 has 36 positive roots, got {len(result)}")
            return [cmd, len(result), answer_hash(result)]
        if cmd == "decompose":
            total = [0] * 6
            for root, mult in result["multiplicities"]:
                for v, x in enumerate(root):
                    total[v] += mult * x
            check(tuple(total) == self.E6_DIMS, "decompose does not reconstruct dim M")
            return [cmd, code, result["multiplicities"]]
        raise CheckFailed(f"no answer rule for {cmd}")

    def counters(self, answers):
        embeds = [a for a in answers if a[0] == "check-embed"]
        return {
            "commands": len(answers),
            "check_embed": len(embeds),
            "embeddings_at_r2": sum(1 for a in embeds if a[4] == 2),
        }


WORKLOADS = {cls.name: cls for cls in (GrOracle, GrCount, AnEmbed, CliMix)}
