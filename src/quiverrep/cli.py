"""Command-line surface.

Exit codes: 0 positive verdict / success, 1 negative verdict,
2 inconclusive (sampling budget exhausted), 3 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

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


@dataclass
class RunConfig:
    """Reproducibility knobs; defaults are part of the CLI contract."""

    seed: int = 0
    r_max: int = 8
    trials: int = 256
    samples: int = 64
    enum_budget: int = DEFAULT_BUDGET
    format: str = "text"
    output: str | None = None


def _parse_dimvector(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(" ", "").split(","))


def _emit(config: RunConfig, text_lines, payload) -> None:
    if config.format == "json":
        body = json.dumps({"config": asdict(config), "result": payload}, indent=1)
    else:
        body = "\n".join(text_lines)
    if config.output:
        with open(config.output, "w") as fh:
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
        lines.append(f"witness: {json.dumps(_strip(v.witness))}")
    return lines


def _strip(obj):
    from .rep import Morphism

    if isinstance(obj, Morphism):
        return "<morphism>"
    if isinstance(obj, dict):
        return {k: _strip(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strip(x) for x in obj]
    return obj


def _verdict_exit(v: Verdict) -> int:
    if v.holds:
        return EXIT_HOLDS if v.conclusive else EXIT_INCONCLUSIVE
    return EXIT_FAILS


def _table_for(rep, seed):
    if not is_dynkin(rep.quiver):
        raise ValueError("this check requires a Dynkin quiver")
    return cached_table(rep.quiver, rep.field, seed=seed)


def cmd_roots(args, config: RunConfig) -> int:
    q = load_quiver(args.quiver)
    roots = positive_roots(q)
    _emit(config, [" ".join(map(str, r)) for r in roots], [list(r) for r in roots])
    return EXIT_HOLDS


def cmd_hom(args, config: RunConfig) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    d = hom_dim(n, m)
    _emit(config, [f"[N,M] = {d}"], {"hom": d})
    return EXIT_HOLDS


def cmd_ext(args, config: RunConfig) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    d = ext_dim(n, m, cross_check=args.cross_check)
    _emit(config, [f"dim Ext^1(N,M) = {d}"], {"ext": d})
    return EXIT_HOLDS


def cmd_decompose(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    table = _table_for(m, config.seed)
    mults = decompose(m, table)
    lines = [f"{list(root)} x {mult}" for root, mult in sorted(mults.items())]
    _emit(config, lines or ["0"], {"multiplicities": [[list(r), c] for r, c in sorted(mults.items())]})
    return EXIT_HOLDS


def cmd_check_sub(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = _table_for(m, config.seed)
    v = check_grassmannian_nonempty(m, e, table)
    _emit(config, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def cmd_check_irred(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = _table_for(m, config.seed)
    v = check_grassmannian_irreducible(m, e, table)
    lines = _verdict_lines(v)
    lines.append("note: sufficient criterion only; a failing verdict draws no conclusion")
    _emit(config, lines, v.to_json())
    return _verdict_exit(v)


def cmd_check_embed(args, config: RunConfig) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    if args.exhaustive_q and n.field.is_rationals:
        f = FieldSpec.of_order(args.exhaustive_q)
        n_chk, m_chk = n.change_field(f), m.change_field(f)
    else:
        n_chk, m_chk = n, m
    cc = CheckConfig(trials=config.trials, seed=config.seed)
    verdict = check_nc2(n_chk, m_chk, cc)
    lines = _verdict_lines(verdict)
    payload = {"nc2": verdict.to_json()}
    exit_code = _verdict_exit(verdict)
    if args.stable:
        report = search_stable_embedding(
            n, m, r_max=config.r_max, trials=config.trials, seed=config.seed
        )
        payload["stable_search"] = report.to_json()
        if report.found:
            lines.append(f"embedding found at r = {report.r}")
        else:
            lines.append(f"embedding not found up to r = {config.r_max} (inconclusive)")
            lines.append(f"reason: {report.reason}")
            if verdict.holds and exit_code == EXIT_HOLDS:
                exit_code = EXIT_INCONCLUSIVE
    _emit(config, lines, payload)
    return exit_code


def cmd_enum_gr(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    oracle = SubrepOracle(m, budget=config.enum_budget)
    subs = oracle.enumerate(e)
    lines = [f"{len(subs)} subrepresentation(s) of dimension vector {list(e)}"]
    payload = []
    for bases in subs:
        item = [[list(col) for col in (b.transpose().rows or [])] for b in bases]
        payload.append(item)
    for i, bases in enumerate(subs[:50]):
        lines.append(f"-- #{i}: " + "; ".join(str([list(r) for r in b.transpose().rows]) for b in bases))
    _emit(config, lines, {"count": len(subs), "bases_rows": payload})
    return EXIT_HOLDS


def cmd_count_poly(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    qs = [int(x) for x in args.qs.split(",")]
    gc = counting_poly(m, e, qs, budget=config.enum_budget)
    if args.csv:
        export_csv(gc, args.csv)
    lines = [f"samples: {gc.samples}", f"polynomial: {gc.poly_str()}"]
    if gc.rejected:
        lines.append(f"rejected orders (End dimension changed): {gc.rejected}")
    _emit(
        config,
        lines,
        {"samples": gc.samples, "poly": gc.poly, "rejected": gc.rejected, "visits": gc.visits},
    )
    return EXIT_HOLDS


def cmd_semistable(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    table = None
    q_enum = args.q_enum
    if is_dynkin(m.quiver) and not args.force_enum:
        table = cached_table(m.quiver, m.field, seed=config.seed)
        q_enum = None
    v = is_semistable(m, e, q_enum=q_enum, table=table, budget=config.enum_budget)
    _emit(config, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def cmd_stabilize(args, config: RunConfig) -> int:
    m = load_rep(args.rep)
    e = _parse_dimvector(args.e)
    lo, hi = (int(x) for x in args.r_range.split(":"))
    report = check_stabilization(
        m,
        e,
        r_range=range(lo, hi + 1),
        samples=config.samples,
        q_enum=args.q_enum,
        seed=config.seed,
        assume_hypothesis=args.assume_hypothesis,
        budget=config.enum_budget,
    )
    lines = [f"e(m) = {report.e_of_m}"]
    for r, est, target in report.entries:
        mark = "=" if est == target else ">"
        lines.append(f"r = {r}: estimate {est} {mark} target {target}")
    if report.threshold is not None:
        lines.append(f"stabilization observed from r = {report.threshold}")
    if report.inconclusive:
        lines.append("inconclusive within the sample budget")
    _emit(config, lines, report.to_json())
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS


def cmd_fixtures(args, config: RunConfig) -> int:
    field = FieldSpec.parse(args.field)
    paths = write_fixtures(args.out, field)
    _emit(config, [f"wrote {p}" for p in paths], {"written": paths})
    return EXIT_HOLDS


def cmd_dual_surj(args, config: RunConfig) -> int:
    u, v = load_rep(args.u), load_rep(args.v)
    if args.exhaustive_q and u.field.is_rationals:
        f = FieldSpec.of_order(args.exhaustive_q)
        u, v = u.change_field(f), v.change_field(f)
    verdict = check_dual_surjection(u, v, CheckConfig(trials=config.trials, seed=config.seed))
    _emit(config, _verdict_lines(verdict), verdict.to_json())
    return _verdict_exit(verdict)


def cmd_check_an(args, config: RunConfig) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    table = _table_for(n, config.seed)
    v = an_criterion(n, m, table, seed=config.seed)
    _emit(config, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--rmax", type=int, default=8, dest="r_max")
    common.add_argument("--trials", type=int, default=256)
    common.add_argument("--samples", type=int, default=64)
    common.add_argument("--enum-budget", type=int, default=DEFAULT_BUDGET)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", default=None)
    parser = argparse.ArgumentParser(
        prog="quiverrep",
        description="Exact criteria, oracles, and searches for embeddings of quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="positive roots of a Dynkin quiver", parents=[common])
    p.add_argument("quiver")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("hom", help="dim Hom(N, M)", parents=[common])
    p.add_argument("n")
    p.add_argument("m")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext", help="dim Ext^1(N, M)", parents=[common])
    p.add_argument("n")
    p.add_argument("m")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("decompose", help="indecomposable multiplicities (Dynkin)", parents=[common])
    p.add_argument("rep")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-sub", help="subrepresentation existence criterion", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_check_sub)

    p = sub.add_parser("check-irred", help="Grassmannian irreducibility criterion (sufficient)", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_check_irred)

    p = sub.add_parser("check-embed", help="quotient estimate, optionally with stable search", parents=[common])
    p.add_argument("n")
    p.add_argument("m")
    p.add_argument("--stable", action="store_true")
    p.add_argument("--exhaustive-q", type=int, default=None,
                   help="reduce rational input mod this order for the exhaustive check")
    p.set_defaults(func=cmd_check_embed)

    p = sub.add_parser("check-an", help="equioriented type A prefix criterion with embedding", parents=[common])
    p.add_argument("n")
    p.add_argument("m")
    p.set_defaults(func=cmd_check_an)

    p = sub.add_parser("dual-surj", help="surjection criterion via duality", parents=[common])
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--exhaustive-q", type=int, default=None)
    p.set_defaults(func=cmd_dual_surj)

    p = sub.add_parser("enum-gr", help="enumerate subrepresentations over a finite field", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.set_defaults(func=cmd_enum_gr)

    p = sub.add_parser("count-poly", help="counting polynomial of a quiver Grassmannian", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--qs", default="2,3,4,5,7")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_count_poly)

    p = sub.add_parser("semistable", help="e-semistability", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--q-enum", type=int, default=None)
    p.add_argument("--force-enum", action="store_true")
    p.set_defaults(func=cmd_semistable)

    p = sub.add_parser("stabilize", help="generic hom stabilization report", parents=[common])
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--r-range", default="1:8")
    p.add_argument("--q-enum", type=int, default=5)
    p.add_argument("--assume-hypothesis", action="store_true")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("fixtures", help="emit the worked counterexample files", parents=[common])
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
    config = RunConfig(
        seed=args.seed,
        r_max=args.r_max,
        trials=args.trials,
        samples=args.samples,
        enum_budget=args.enum_budget,
        format=args.format,
        output=args.output,
    )
    try:
        return args.func(args, config)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
