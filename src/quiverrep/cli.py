"""Command-line surface.

Exit codes: 0 positive verdict / success, 1 negative verdict,
2 inconclusive (sampling budget exhausted), 3 usage or input error
(budget refusals included), 4 internal error: any other exception, reported
as one `internal error: ...` line on stderr, so that a failed internal
certificate never looks like a negative verdict.
"""

from __future__ import annotations

import argparse
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
    if "vertex" in d and "k" in d:
        return (
            f"vertex {d['vertex']}, k={d['k']}: [U,N]-[V,N] = {d['lhs']} <= "
            f"[U,M]-[V,M] = {d['rhs']} : {'ok' if d['ok'] else 'VIOLATED'}"
        )
    if "vertex" in d:
        return f"vertex {d['vertex']}: socle {d['lhs']} <= matched {d['rhs']} : {'ok' if d['ok'] else 'VIOLATED'}"
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


# stable-search reasons that certify no embedding n^r -> m^r for any r; the
# search returns "Hom(n, m) = 0" only when n != 0, since n = 0 embeds at r = 1
NO_EMBEDDING_AT_ANY_R = ("Hom(n, m) = 0", "no injective map can exist at any r")


def _exhaustive_reduction(args, *reps):
    """reps, over Q, reduced into F_q for q = --exhaustive-q, a field order.
    Finite-field input is already checked exhaustively, so the option is
    refused there (ValueError).  dim End is not checked: the user chose the
    field."""
    if args.exhaustive_q is None:
        return reps
    f = FieldSpec.of_order(args.exhaustive_q)
    if not reps[0].field.is_rationals:
        raise ValueError(f"--exhaustive-q reduces rational input; this input is over {reps[0].field}")
    return tuple(x.change_field(f) for x in reps)


def _unread(args, *dests) -> None:
    """Leave options this run never read out of its JSON config."""
    args.shared = tuple(dest for dest in args.shared if dest not in dests)


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
    d = ext_dim(n, m)
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
    # the stable search reads all three; without it only nc2's sampling,
    # which runs over Q alone, reads seed and trials
    if not args.stable:
        _unread(args, "r_max")
        if not n_chk.field.is_rationals:
            _unread(args, "seed", "trials")
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
            if report.reason in NO_EMBEDDING_AT_ANY_R:
                lines.append("no embedding exists at any r")
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
    if is_dynkin(m.quiver) and not args.force_enum:
        table = cached_table(m.quiver, m.field)
    elif args.q_enum is not None and not (m.field.is_finite and m.field.order == args.q_enum):
        raise ValueError(
            f"--q-enum {args.q_enum} asks for enumeration over F_{args.q_enum}, "
            f"but the input is over {m.field.name}"
        )
    v = is_semistable(m, e, table=table, budget=args.enum_budget)
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
    if not u.field.is_rationals:
        _unread(args, "seed", "trials")
    _emit(args, _verdict_lines(verdict), verdict.to_json())
    return _verdict_exit(verdict)


def cmd_check_an(args) -> int:
    n, m = load_rep(args.n), load_rep(args.m)
    table = _table_for(n)
    v = an_criterion(n, m, table)
    _emit(args, _verdict_lines(v), v.to_json())
    return _verdict_exit(v)


# The five result options, then --format and --output, which every command
# takes.  A command takes only the result options its cmd_ function reads,
# so that a value nothing reads is a usage error; `--format json` reports a
# command's options, in this order, as its "config" block, less those the
# run did not read (`_unread`): seed and trials when nc2 did not sample and
# no stable search ran, r_max without --stable.
OPTIONS = {
    "--seed": {"type": int, "default": 0},
    "--rmax": {"type": int, "default": 8, "dest": "r_max"},
    "--trials": {"type": int, "default": 256},
    "--samples": {"type": int, "default": 64},
    "--enum-budget": {"type": int, "default": DEFAULT_BUDGET},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--output": {"default": None},
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --e must not silently
    # resolve to another option (--enum-budget) on a subcommand without it
    parser = argparse.ArgumentParser(
        prog="quiverrep",
        allow_abbrev=False,
        description="Exact criteria, oracles, and searches for embeddings of quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *options):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        wanted = (*options, "--format", "--output")
        shared = [p.add_argument(flag, **kw) for flag, kw in OPTIONS.items() if flag in wanted]
        p.set_defaults(func=func, shared=tuple(action.dest for action in shared))
        return p

    p = add("roots", cmd_roots, "positive roots of a Dynkin quiver")
    p.add_argument("quiver")

    p = add("hom", cmd_hom, "dim Hom(N, M)")
    p.add_argument("n")
    p.add_argument("m")

    p = add("ext", cmd_ext, "dim Ext^1(N, M)")
    p.add_argument("n")
    p.add_argument("m")

    p = add("decompose", cmd_decompose, "indecomposable multiplicities (Dynkin)")
    p.add_argument("rep")

    p = add("check-sub", cmd_check_sub, "subrepresentation existence criterion")
    p.add_argument("rep")
    p.add_argument("--e", required=True)

    p = add("check-irred", cmd_check_irred, "Grassmannian irreducibility criterion (sufficient)")
    p.add_argument("rep")
    p.add_argument("--e", required=True)

    p = add("check-embed", cmd_check_embed, "quotient estimate, optionally with stable search",
            "--seed", "--rmax", "--trials")
    p.add_argument("n")
    p.add_argument("m")
    p.add_argument("--stable", action="store_true")
    p.add_argument("--exhaustive-q", type=int, default=None,
                   help="reduce rational input mod this order for the exhaustive check")

    p = add("check-an", cmd_check_an, "equioriented type A prefix criterion with embedding")
    p.add_argument("n")
    p.add_argument("m")

    p = add("dual-surj", cmd_dual_surj, "surjection criterion via duality", "--seed", "--trials")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--exhaustive-q", type=int, default=None)

    p = add("enum-gr", cmd_enum_gr, "enumerate subrepresentations over a finite field", "--enum-budget")
    p.add_argument("rep")
    p.add_argument("--e", required=True)

    p = add("count-poly", cmd_count_poly, "counting polynomial of a quiver Grassmannian", "--enum-budget")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--qs", default="2,3,4,5,7")
    p.add_argument("--csv", default=None)

    p = add("semistable", cmd_semistable, "e-semistability", "--enum-budget")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--q-enum", type=int, default=None)
    p.add_argument("--force-enum", action="store_true")

    p = add("stabilize", cmd_stabilize, "generic hom stabilization report", "--seed", "--samples", "--enum-budget")
    p.add_argument("rep")
    p.add_argument("--e", required=True)
    p.add_argument("--r-range", default="1:8")
    p.add_argument("--q-enum", type=int, default=None)
    p.add_argument("--assume-hypothesis", action="store_true")

    p = add("fixtures", cmd_fixtures, "emit the worked counterexample files")
    p.add_argument("--out", default="fixtures")
    p.add_argument("--field", default="Q")

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
