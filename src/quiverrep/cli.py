"""Command-line surface.

Exit codes: 0 positive verdict / success, 1 negative verdict,
2 inconclusive (sampling budget exhausted), 3 usage or input error
(budget refusals included), 4 internal error: any other exception, reported
as one `internal error: ...` line on stderr, so that a failed internal
certificate never looks like a negative verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .criteria import (
    CheckConfig,
    Verdict,
    an_criterion,
    check_dual_surjection,
    check_grassmannian_irreducible,
    check_grassmannian_nonempty,
    check_nc2,
    is_semistable,
)
from .dynkin import cached_table, decompose, positive_roots
from .exactlin import FieldSpec
from .grassmannian import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SubrepOracle,
    counting_poly,
    export_csv,
)
from .quiver import is_dynkin, load_quiver
from .rep import ext_dim, hom_dim, load_rep
from .stable import check_stabilization, search_stable_embedding
from .fixtures import write_fixtures

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _parse_dimvector(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(" ", "").split(","))


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        config = {dest: getattr(args, dest) for dest in args.shared}
        body = json.dumps({"config": config, "result": payload}, indent=1)
    else:
        body = "\n".join(text_lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)

MAX_LEDGER_LINES = 40


def _detail_line(d: dict) -> str | None:
    if "root" in d and "hom" in d:
        cmp_ = ">=" if d.get("family") is None else "<="
        return f"[U{tuple(d['root'])}, .] = {d['hom']} {cmp_} euler = {d['euler']} : {'ok' if d['ok'] else 'VIOLATED'}"
    if "brackets" in d:
        b = d["brackets"]
        return (
            f"vertex {d['vertex']}, k={d['k']}: [U,N]-[V,N] = {d['lhs']} <= "
            f"[U,M]-[V,M] = {d['rhs']} : {'ok' if d['ok'] else 'VIOLATED'}"
        )
    if "i" in d and "j" in d and "lhs" in d:
        return f"prefix (i,j)=({d['i']},{d['j']}): {d['lhs']} <= {d['rhs']} : {'ok' if d['ok'] else 'VIOLATED'}"
    return None


def _verdict_lines(v: Verdict) -> list[str]:
    lines = [f"verdict: {'holds' if v.holds else 'fails'}"]
    for key, val in v.context.items():
        if key in ("embedding",):
            lines.append("explicit embedding: constructed and certified injective")
        else:
            lines.append(f"{key}: {val}")
    shown = 0
    for d in v.details:
        if shown >= MAX_LEDGER_LINES:
            lines.append(f"... ({len(v.details) - shown} more ledger entries)")
            break
        line = _detail_line(d) if isinstance(d, dict) else None
        if line:
            lines.append(line)
            shown += 1
    if v.witness is not None:
        lines.append(f"witness: {json.dumps(v.witness)}")
    return lines


def _verdict_exit(v: Verdict) -> int:
    if v.holds:
        return EXIT_HOLDS if v.conclusive else EXIT_INCONCLUSIVE
    return EXIT_FAILS


def _exhaustive_reduction(args, *reps):
    """reps reduced into F_q for q = --exhaustive-q when they are over Q.
    dim End is not checked: the user chose the field."""
    if args.exhaustive_q and reps[0].field.is_rationals:
        f = FieldSpec.of_order(args.exhaustive_q)
        return tuple(x.change_field(f) for x in reps)
    return reps


def _table_for(rep):
    if not is_dynkin(rep.quiver):
        raise ValueError("this check requires a Dynkin quiver")
    return cached_table(rep.quiver, rep.field)


def cmd_roots(args) -> int:
    q = load_quiver(args.quiver)
    roots = positive_roots(q)
    _emit(args, [" ".join(map(str, r)) for r in roots], [list(r) for r in roots])
    return EXIT_HOLDS


def cmd_hom(args) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    d = hom_dim(n, m)
    _emit(args, [f"[N,M] = {d}"], {"hom": d})
    return EXIT_HOLDS


def cmd_ext(args) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    d = ext_dim(n, m, cross_check=args.cross_check)
    _emit(args, [f"dim Ext^1(N,M) = {d}"], {"ext": d})
    return EXIT_HOLDS


def cmd_decompose(args) -> int:
    m = load_rep(args.rep)
    table = _table_for(m)
    mults = decompose(m, table)
    lines = [f"{list(root)} x {mult}" for root, mult in sorted(mults.items())]
    _emit(args, lines or ["0"], {"multiplicities": [[list(r), c] for r, c in sorted(mults.items())]})
    return EXIT_HOLDS


def cmd_check_sub(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = _table_for(m)
    v = check_grassmannian_nonempty(m, e, table)
    _emit(args, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def cmd_check_irred(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = _table_for(m)
    v = check_grassmannian_irreducible(m, e, table)
    lines = _verdict_lines(v)
    lines.append("note: sufficient criterion only; a failing verdict draws no conclusion")
    _emit(args, lines, v.to_json())
    return _verdict_exit(v)


def cmd_check_embed(args) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    n_chk, m_chk = _exhaustive_reduction(args, n, m)
    cc = CheckConfig(trials=args.trials, seed=args.seed)
    verdict = check_nc2(n_chk, m_chk, cc)
    lines = _verdict_lines(verdict)
    payload = {"nc2": verdict.to_json()}
    exit_code = _verdict_exit(verdict)
    if args.stable:
        report = search_stable_embedding(
            n, m, r_max=args.r_max, trials=args.trials, seed=args.seed
        )
        payload["stable_search"] = report.to_json()
        if report.found:
            lines.append(f"embedding found at r = {report.r}")
        else:
            lines.append(f"embedding not found up to r = {args.r_max} (inconclusive)")
            lines.append(f"reason: {report.reason}")
            if verdict.holds and exit_code == EXIT_HOLDS:
                exit_code = EXIT_INCONCLUSIVE
    _emit(args, lines, payload)
    return exit_code


def cmd_enum_gr(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    oracle = SubrepOracle(m, budget=args.enum_budget)
    subs = oracle.enumerate(e)
    lines = [f"{len(subs)} subrepresentation(s) of dimension vector {list(e)}"]
    payload = []
    for bases in subs:
        item = [[list(col) for col in (b.transpose().rows or [])] for b in bases]
        payload.append(item)
    for i, bases in enumerate(subs[:50]):
        lines.append(f"-- #{i}: " + "; ".join(str([list(r) for r in b.transpose().rows]) for b in bases))
    _emit(args, lines, {"count": len(subs), "bases_rows": payload})
    return EXIT_HOLDS


def cmd_count_poly(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    qs = [int(x) for x in args.qs.split(",")]
    gc = counting_poly(m, e, qs, budget=args.enum_budget)
    if args.csv:
        export_csv(gc, args.csv)
    lines = [f"samples: {gc.samples}", f"polynomial: {gc.poly_str()}"]
    if gc.rejected:
        lines.append(f"rejected orders (End dimension changed): {gc.rejected}")
    _emit(
        args,
        lines,
        {"samples": gc.samples, "poly": gc.poly, "rejected": gc.rejected, "visits": gc.visits},
    )
    return EXIT_HOLDS


def cmd_semistable(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = None
    q_enum = args.q_enum
    if is_dynkin(m.quiver) and not args.force_enum:
        table = cached_table(m.quiver, m.field)
        q_enum = None
    v = is_semistable(m, e, q_enum=q_enum, table=table, budget=args.enum_budget)
    _emit(args, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def cmd_stabilize(args) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    lo, hi = (int(x) for x in args.r_range.split(":"))
    report = check_stabilization(
        m,
        e,
        r_range=range(lo, hi + 1),
        samples=args.samples,
        q_enum=args.q_enum,
        seed=args.seed,
        assume_hypothesis=args.assume_hypothesis,
        budget=args.enum_budget,
    )
    lines = [f"e(m) = {report.e_of_m}"]
    for r, est, target in report.entries:
        mark = "=" if est == target else ">"
        lines.append(f"r = {r}: estimate {est} {mark} target {target}")
    if report.threshold is not None:
        lines.append(f"stabilization observed from r = {report.threshold}")
    if report.inconclusive:
        lines.append("inconclusive within the sample budget")
    _emit(args, lines, report.to_json())
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS


def cmd_fixtures(args) -> int:
    field = FieldSpec.parse(args.field)
    paths = write_fixtures(args.out, field)
    _emit(args, [f"wrote {p}" for p in paths], {"written": paths})
    return EXIT_HOLDS


def cmd_dual_surj(args) -> int:
    u, v = load_rep(args.u), load_rep(args.v)
    u, v = _exhaustive_reduction(args, u, v)
    verdict = check_dual_surjection(u, v, CheckConfig(trials=args.trials, seed=args.seed))
    _emit(args, _verdict_lines(verdict), verdict.to_json())
    return _verdict_exit(verdict)


def cmd_check_an(args) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    table = _table_for(n)
    v = an_criterion(n, m, table, seed=args.seed)
    _emit(args, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --e must not silently
    # resolve to another option (--enum-budget) on a subcommand without it
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared = (
        common.add_argument("--seed", type=int, default=0),
        common.add_argument("--rmax", type=int, default=8, dest="r_max"),
        common.add_argument("--trials", type=int, default=256),
        common.add_argument("--samples", type=int, default=64),
        common.add_argument("--enum-budget", type=int, default=DEFAULT_BUDGET),
        common.add_argument("--format", choices=("text", "json"), default="text"),
        common.add_argument("--output", default=None),
    )
    # every command takes these; `--format json` reports them, in this
    # order, as its "config" block
    common.set_defaults(shared=tuple(action.dest for action in shared))
    parser = argparse.ArgumentParser(
        prog="quiverrep",
        allow_abbrev=False,
        description="Exact criteria, oracles, and searches for embeddings of quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = add("roots", help="positive roots of a Dynkin quiver")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_roots)

    p = add("hom", help="dim Hom(N, M)")
    p.add_argument("n")
    p.add_argument("m")
    p.set_defaults(func=cmd_hom)

    p = add("ext", help="dim Ext^1(N, M)")
    p.add_argument("n")
    p.add_argument("m")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_ext)

    p = add("decompose", help="indecomposable multiplicities (Dynkin)")
    p.add_argument("rep")
    p.set_defaults(func=cmd_decompose)

    p = add("check-sub", help="subrepresentation existence criterion")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_check_sub)

    p = add("check-irred", help="Grassmannian irreducibility criterion (sufficient)")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_check_irred)

    p = add("check-embed", help="quotient estimate, optionally with stable search")
    p.add_argument("n")
    p.add_argument("m")
    p.add_argument("--stable", action="store_true")
    p.add_argument("--exhaustive-q", type=int, default=None,
                   help="reduce rational input mod this order for the exhaustive check")
    p.set_defaults(func=cmd_check_embed)

    p = add("check-an", help="equioriented type A prefix criterion with embedding")
    p.add_argument("n")
    p.add_argument("m")
    p.set_defaults(func=cmd_check_an)

    p = add("dual-surj", help="surjection criterion via duality")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--exhaustive-q", type=int, default=None)
    p.set_defaults(func=cmd_dual_surj)

    p = add("enum-gr", help="enumerate subrepresentations over a finite field")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_enum_gr)

    p = add("count-poly", help="counting polynomial of a quiver Grassmannian")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--qs", default="2,3,4,5,7")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_count_poly)

    p = add("semistable", help="e-semistability")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--q-enum", type=int, default=None)
    p.add_argument("--force-enum", action="store_true")
    p.set_defaults(func=cmd_semistable)

    p = add("stabilize", help="generic hom stabilization report")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--r-range", default="1:8")
    p.add_argument("--q-enum", type=int, default=5)
    p.add_argument("--assume-hypothesis", action="store_true")
    p.set_defaults(func=cmd_stabilize)

    p = add("fixtures", help="emit the worked counterexample files")
    p.add_argument("--out", default="fixtures")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
