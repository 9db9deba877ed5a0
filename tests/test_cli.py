import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quiverrep
from quiverrep.cli import MAX_LEDGER_LINES, main
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.fixtures import d4_p1, d4_x, kronecker3_g, kronecker3_m
from quiverrep.grassmannian import DEFAULT_BUDGET
from quiverrep.quiver import Quiver, a_n, save_quiver
from quiverrep.rep import Representation, direct_sum, load_morphism, load_rep, rep_to_json, save_rep, simple


def write_rep(tmp_path, name, rep):
    path = tmp_path / name
    save_rep(rep, path)
    return str(path)


@pytest.fixture()
def fixture_dir(tmp_path):
    rc = main(["fixtures", "--out", str(tmp_path / "fx"), "--field", "F_2"])
    assert rc == 0
    return tmp_path / "fx"


def test_fixtures_emission_bit_exact(tmp_path):
    out = tmp_path / "fx"
    assert main(["fixtures", "--out", str(out)]) == 0
    m = load_rep(out / "kronecker3.m.json")
    assert m == kronecker3_m(QQ)
    data = json.loads((out / "kronecker3.m.json").read_text())
    assert data["matrices"][0] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "-1"]]
    g = load_morphism(out / "kronecker3.g.json")
    assert g == kronecker3_g(QQ)
    x = load_rep(out / "d4.x.json")
    assert x == d4_x(QQ)


def test_check_sub_holds(tmp_path, fixture_dir):
    s1 = simple(a_n(2), GF(2), 0)
    p = write_rep(tmp_path, "s1.json", s1)
    assert main(["check-sub", p, "--e", "1,0"]) == 0
    assert main(["check-sub", p, "--e", "0,1"]) == 1
    assert main(["check-sub", p, "--e", "9,9"]) == 1


def test_check_sub_rejects_non_dynkin(tmp_path, fixture_dir, capsys):
    rc = main(["check-sub", str(fixture_dir / "kronecker3.m.json"), "--e", "1,1"])
    assert rc == 3
    assert "Dynkin" in capsys.readouterr().err


def test_check_embed_kronecker(fixture_dir):
    rc = main(
        [
            "check-embed",
            str(fixture_dir / "kronecker3.pi.json"),
            str(fixture_dir / "kronecker3.m.json"),
            "--stable",
            "--rmax",
            "2",
        ]
    )
    assert rc == 0


def test_check_embed_failing_pair(tmp_path):
    from quiverrep.dynkin import assemble, build_table
    from quiverrep.rep import direct_sum

    f2 = GF(2)
    t = build_table(a_n(2), f2)
    u12 = assemble(t, {(1, 1): 1})
    m = direct_sum([simple(a_n(2), f2, 0), simple(a_n(2), f2, 1)])
    pn = write_rep(tmp_path, "n.json", u12)
    pm = write_rep(tmp_path, "m.json", m)
    assert main(["check-embed", pn, pm]) == 1


def test_check_embed_type_a_flow_ledger(tmp_path, capsys):
    """On type A over a finite field check-embed reports the flow: one
    ledger line per socle vertex, in text and in JSON, and exit code 1."""
    from quiverrep.dynkin import assemble, build_table
    from quiverrep.rep import direct_sum

    f2 = GF(2)
    u12 = assemble(build_table(a_n(2), f2), {(1, 1): 1})
    m = direct_sum([simple(a_n(2), f2, 0), simple(a_n(2), f2, 1)])
    pn = write_rep(tmp_path, "n.json", u12)
    pm = write_rep(tmp_path, "m.json", m)
    assert main(["check-embed", pn, pm]) == 1
    out = capsys.readouterr().out
    assert "mode: type-a-flow" in out
    assert "vertex 1: socle 1 <= matched 0 : VIOLATED" in out.splitlines()
    assert main(["check-embed", pn, pm, "--format", "json"]) == 1
    nc2 = json.loads(capsys.readouterr().out)["result"]["nc2"]
    assert nc2["details"] == [{"vertex": 1, "lhs": 1, "rhs": 0, "ok": False}]
    assert all(entry["ok"] == (entry["lhs"] <= entry["rhs"]) for entry in nc2["details"])
    assert nc2["witness"] == {"kind": "hall", "vertex": 1, "types": [[1, 1]], "lhs": 1, "rhs": 0}


def test_check_embed_json_output(tmp_path, fixture_dir):
    out = tmp_path / "verdict.json"
    rc = main(
        [
            "check-embed",
            str(fixture_dir / "kronecker3.pi.json"),
            str(fixture_dir / "kronecker3.m.json"),
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["result"]["nc2"]["holds"] is True
    # over F_2 without --stable nothing reads seed, trials or r_max, so the
    # config names only --format and --output
    assert data["config"] == {"format": "json", "output": str(out)}
    # the ledger is recomputable: each entry repeats the compared sides
    for entry in data["result"]["nc2"]["details"]:
        assert entry["ok"] == (entry["lhs"] <= entry["rhs"])


def test_roots_and_decompose(tmp_path, capsys):
    qpath = tmp_path / "a3.json"
    save_quiver(a_n(3), qpath)
    assert main(["roots", str(qpath)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6

    from quiverrep.dynkin import assemble, build_table

    t = build_table(a_n(3), GF(5))
    m = assemble(t, {(1, 1, 0): 2, (0, 0, 1): 1})
    p = write_rep(tmp_path, "m.json", m)
    assert main(["decompose", p]) == 0
    out = capsys.readouterr().out
    assert "[1, 1, 0] x 2" in out


def test_hom_ext_commands(tmp_path, capsys):
    f5 = GF(5)
    s1 = write_rep(tmp_path, "s1.json", simple(a_n(2), f5, 0))
    s2 = write_rep(tmp_path, "s2.json", simple(a_n(2), f5, 1))
    assert main(["hom", s1, s2]) == 0
    assert "[N,M] = 0" in capsys.readouterr().out
    assert main(["ext", s1, s2]) == 0
    assert "= 1" in capsys.readouterr().out


def test_enum_and_count_poly(tmp_path, capsys):
    one_vertex = __import__("quiverrep.quiver", fromlist=["Quiver"]).Quiver(1, ())
    m = Representation(one_vertex, QQ, (2,), [])
    p = write_rep(tmp_path, "p1.json", m)
    csv_path = tmp_path / "counts.csv"
    assert main(["count-poly", p, "--e", "1", "--qs", "2,3,5", "--csv", str(csv_path)]) == 0
    assert "q + 1" in capsys.readouterr().out.replace("*", " ").replace("1 q", "q")
    assert csv_path.exists()

    m2 = Representation(one_vertex, GF(2), (2,), [])
    p2 = write_rep(tmp_path, "p2.json", m2)
    assert main(["enum-gr", p2, "--e", "1"]) == 0
    assert "3 subrepresentation(s)" in capsys.readouterr().out


def test_count_poly_json_reports_visits(tmp_path, capsys):
    one_vertex = __import__("quiverrep.quiver", fromlist=["Quiver"]).Quiver(1, ())
    p = write_rep(tmp_path, "p1.json", Representation(one_vertex, QQ, (2,), []))
    assert main(["count-poly", p, "--e", "1", "--qs", "2,3,5", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["samples"] == [[2, 3], [3, 4], [5, 6]]
    assert result["poly"] == [1, 1]
    # one visit per line of P^1: the q + 1 points are the echelon patterns
    assert result["visits"] == [[2, 3], [3, 4], [5, 6]]


def test_negative_enum_budget_exits_3(tmp_path, capsys):
    one_vertex = __import__("quiverrep.quiver", fromlist=["Quiver"]).Quiver(1, ())
    p = write_rep(tmp_path, "p1.json", Representation(one_vertex, QQ, (2,), []))
    assert main(["count-poly", p, "--e", "1", "--qs", "2,3,5", "--enum-budget", "-5"]) == 3
    err = capsys.readouterr().err
    assert "nonnegative" in err and "exceeded" not in err
    # 0 is a valid budget, refused only once something is visited
    assert main(["count-poly", p, "--e", "1", "--qs", "2,3,5", "--enum-budget", "0"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_malformed_representation_exits_3(tmp_path, capsys):
    assert main(["fixtures", "--out", str(tmp_path / "fx")]) == 0
    good = tmp_path / "fx" / "d4.x.json"
    data = json.loads(good.read_text())
    quiver = data["quiver"]
    malformed = (
        ("matrices-int.json", data | {"matrices": 5}),
        ("wrapped.json", [data]),
        ("quiver-int.json", data | {"quiver": 5}),
        ("field-int.json", data | {"field": 5}),
        ("field-null.json", data | {"field": None}),
        ("field-list.json", data | {"field": ["Q"]}),
        # 0 is an index and "2" a label; both files still spell D4 if read leniently
        ("arrows-mixed.json", data | {"quiver": quiver | {"arrows": [[0, "2"], ["1", "3"], ["1", "4"]]}}),
        ("arrows-bool.json", data | {"quiver": quiver | {"arrows": [[False, 1], [0, 2], [0, 3]]}}),
    )
    for name, bad_data in malformed:
        bad = tmp_path / name
        bad.write_text(json.dumps(bad_data))
        assert main(["count-poly", str(bad), "--e", "1,1,1,1"]) == 3
        assert "error:" in capsys.readouterr().err
        assert main(["hom", str(bad), str(good)]) == 3
        assert "error:" in capsys.readouterr().err


def test_semistable_command(tmp_path, fixture_dir):
    mpath = str(fixture_dir / "kronecker3.m.json")
    assert main(["semistable", mpath, "--e", "2,1", "--q-enum", "2"]) == 0
    assert main(["semistable", mpath, "--e", "1,1", "--q-enum", "2"]) == 1


def test_semistable_refusals_name_the_fields(tmp_path, fixture_dir, capsys):
    # enumeration needs a finite field, and --q-enum must be the input's
    mq = write_rep(tmp_path, "mq.json", kronecker3_m(QQ))
    assert main(["semistable", mq, "--e", "1,1"]) == 3
    assert capsys.readouterr().err == (
        "error: exhaustive semistability enumerates over a finite field, but m is over Q\n"
    )
    m2 = str(fixture_dir / "kronecker3.m.json")
    assert main(["semistable", m2, "--e", "2,1", "--q-enum", "3"]) == 3
    assert capsys.readouterr().err == (
        "error: --q-enum 3 asks for enumeration over F_3, but the input is over F_2\n"
    )
    # the Dynkin route enumerates nothing and does not read --q-enum
    x2 = str(fixture_dir / "d4.x.json")
    assert main(["semistable", x2, "--e", "0,0,0,1", "--q-enum", "3"]) == 1


def test_stabilize_command(tmp_path, fixture_dir):
    mpath = str(fixture_dir / "kronecker3.m.json")
    rc = main(["stabilize", mpath, "--e", "2,1", "--r-range", "1:4", "--samples", "16", "--q-enum", "2"])
    assert rc in (0, 2)


def test_empty_search_ranges_exit_3(fixture_dir, capsys):
    pi, m = str(fixture_dir / "kronecker3.pi.json"), str(fixture_dir / "kronecker3.m.json")
    for args in (
        ["stabilize", m, "--e", "2,1", "--r-range", "3:1", "--q-enum", "2"],
        ["stabilize", m, "--e", "2,1", "--r-range", "0:2", "--q-enum", "2"],
        ["check-embed", pi, m, "--stable", "--rmax", "0"],
    ):
        assert main(args) == 3
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""


def test_nonpositive_samples_exit_3(fixture_dir, capsys):
    """No samples measure nothing, whether e(m) > 0 (1,0) or e(m) = 0 (2,1):
    a usage error, not an estimate."""
    m = str(fixture_dir / "kronecker3.m.json")
    for e, samples in (("1,0", "0"), ("2,1", "0"), ("2,1", "-3")):
        assert main(["stabilize", m, "--e", e, "--samples", samples, "--q-enum", "2"]) == 3
        captured = capsys.readouterr()
        assert "samples" in captured.err and captured.out == ""


def test_stabilize_checks_q_enum(tmp_path, fixture_dir, capsys):
    """--q-enum names the field the hypothesis is enumerated over: F_2
    input is enumerated over F_2 without it and refused, naming both
    fields, with another order; over Q an order that is no field is refused
    (exit 3), --assume-hypothesis or not."""
    m2 = str(fixture_dir / "kronecker3.m.json")
    small = ["--e", "2,1", "--r-range", "1:2", "--samples", "4", "--format", "json"]
    assert main(["stabilize", m2, *small]) in (0, 2)
    assert json.loads(capsys.readouterr().out)["result"]["hypothesis_field"] == "F_2"
    assert main(["stabilize", m2, "--e", "2,1", "--q-enum", "3"]) == 3
    captured = capsys.readouterr()
    assert "over F_3, but m is over F_2" in captured.err and captured.out == ""
    assert main(["fixtures", "--out", str(tmp_path / "q")]) == 0
    mq = str(tmp_path / "q" / "kronecker3.m.json")
    capsys.readouterr()
    for q in ("6", "1", "0"):
        for extra in ([], ["--assume-hypothesis"]):
            assert main(["stabilize", mq, "--e", "2,1", "--q-enum", q, *extra]) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("command", ["check-embed", "dual-surj"])
def test_nc2_sampling_needs_a_trial(command, tmp_path, capsys):
    """Over Q nc2 samples, and fewer than one trial is a usage error (exit
    3), not a "holds" with an empty ledger; over F_2 nothing samples, and
    --trials changes neither the exit code nor the output."""
    pairs = {}
    for field in ("Q", "F_2"):
        fx = tmp_path / field
        assert main(["fixtures", "--out", str(fx), "--field", field]) == 0
        pairs[field] = [str(fx / "kronecker3.pi.json"), str(fx / "kronecker3.m.json")]
    capsys.readouterr()
    code = main([command, *pairs["F_2"]])
    out = capsys.readouterr().out
    for trials in ("0", "-5"):
        assert main([command, *pairs["Q"], "--trials", trials]) == 3
        captured = capsys.readouterr()
        assert "at least one sample" in captured.err and captured.out == ""
        assert main([command, *pairs["F_2"], "--trials", trials]) == code
        assert capsys.readouterr().out == out


def test_option_prefixes_are_not_abbreviations(fixture_dir, capsys):
    """decompose has no --e, and enum-gr's --enum-budget is never spelled
    by a prefix."""
    x = str(fixture_dir / "d4.x.json")
    for value in ("1,1", "5"):
        assert main(["decompose", x, "--e", value]) == 3
        assert "unrecognized arguments: --e" in capsys.readouterr().err
    assert main(["decompose", x, "--enum-b", "5"]) == 3
    assert main(["decompose", x, "--enum-budget", "5"]) == 3
    assert main(["enum-gr", x, "--e", "1,1,1,1", "--enum-b", "100"]) == 3
    assert "unrecognized arguments: --enum-b 100" in capsys.readouterr().err


# The five result options with their defaults and config keys, in the order
# `--format json` reports them
RESULT_OPTIONS = {
    "--seed": ("0", "seed"),
    "--rmax": ("8", "r_max"),
    "--trials": ("256", "trials"),
    "--samples": ("64", "samples"),
    "--enum-budget": (str(DEFAULT_BUDGET), "enum_budget"),
}
# Each subcommand on a quick input (F_2 fixture files in fx/, rational ones
# in q/), with the result options it reads
OPTION_SURFACE = {
    "roots": (["a3.quiver.json"], ()),
    "hom": (["fx/d4.p1.json", "fx/d4.x.json"], ()),
    "ext": (["fx/d4.p1.json", "fx/d4.x.json"], ()),
    "decompose": (["fx/d4.x.json"], ()),
    "check-sub": (["fx/d4.x.json", "--e", "1,1,1,1"], ()),
    "check-irred": (["fx/d4.x.json", "--e", "1,1,1,1"], ()),
    "check-embed": (["q/d4.p1.json", "q/d4.x.json", "--stable", "--exhaustive-q", "3"],
                    ("--seed", "--rmax", "--trials")),
    "check-an": (["s2.json", "s2.json"], ()),
    "dual-surj": (["q/d4.x.json", "q/d4.x.json"], ("--seed", "--trials")),
    "enum-gr": (["fx/d4.x.json", "--e", "1,1,1,1"], ("--enum-budget",)),
    "count-poly": (["q/d4.x.json", "--e", "1,1,1,1", "--qs", "2,3,5"], ("--enum-budget",)),
    "semistable": (["fx/kronecker3.m.json", "--e", "2,1", "--q-enum", "2"], ("--enum-budget",)),
    "stabilize": (["fx/kronecker3.m.json", "--e", "2,1", "--r-range", "1:2", "--q-enum", "2"],
                  ("--seed", "--samples", "--enum-budget")),
    "fixtures": (["--out", "out", "--field", "F_2"], ()),
}


@pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
def test_each_command_takes_only_the_result_options_it_reads(command, tmp_path, monkeypatch, fixture_dir, capsys):
    """A listed result option is accepted and, at its default, changes
    nothing; any other is an unrecognized argument, exit 3.  The JSON config
    names the listed options in table order, then format and output."""
    monkeypatch.chdir(tmp_path)
    assert main(["fixtures", "--out", "q"]) == 0
    save_quiver(a_n(3), "a3.quiver.json")
    write_rep(tmp_path, "s2.json", simple(a_n(2), GF(2), 1))
    capsys.readouterr()
    args, options = OPTION_SURFACE[command]
    argv = [command, *args, "--format", "json"]
    code = main(argv)
    assert code in (0, 1, 2)
    out = capsys.readouterr().out
    config = json.loads(out)["config"]
    assert list(config) == [key for flag, (_, key) in RESULT_OPTIONS.items() if flag in options] + ["format", "output"]
    for flag, (default, _) in RESULT_OPTIONS.items():
        if flag in options:
            assert main([*argv, flag, default]) == code
            assert capsys.readouterr().out == out
        else:
            assert main([*argv, flag, default]) == 3
            captured = capsys.readouterr()
            assert f"unrecognized arguments: {flag} {default}" in captured.err and captured.out == ""


# (command, field, extra arguments) -> the config keys of a run that read
# only those options: nc2 samples only rational input that --exhaustive-q
# does not reduce, and the stable search reads seed, r_max and trials
CONFIG_READ = [
    ("check-embed", "F_2", [], []),
    ("check-embed", "F_2", ["--stable", "--rmax", "2"], ["seed", "r_max", "trials"]),
    ("check-embed", "Q", [], ["seed", "trials"]),
    ("check-embed", "Q", ["--exhaustive-q", "3"], []),
    ("check-embed", "Q", ["--exhaustive-q", "3", "--stable", "--rmax", "2"], ["seed", "r_max", "trials"]),
    ("dual-surj", "F_2", [], []),
    ("dual-surj", "Q", [], ["seed", "trials"]),
    ("dual-surj", "Q", ["--exhaustive-q", "2"], []),
]


@pytest.mark.parametrize(
    "command, field, extra, read", CONFIG_READ, ids=[" ".join([c, f, *x]) for c, f, x, _ in CONFIG_READ]
)
def test_config_names_only_the_options_the_run_read(command, field, extra, read, tmp_path, capsys):
    """`--format json` reports in its config only the result options the
    run read: an unread option at another value leaves the whole output
    unchanged, and a read one shows its value in the config."""
    fx = tmp_path / "fx"
    assert main(["fixtures", "--out", str(fx), "--field", field]) == 0
    capsys.readouterr()
    argv = [command, str(fx / "kronecker3.pi.json"), str(fx / "kronecker3.m.json"), *extra, "--format", "json"]
    code = main(argv)
    out = capsys.readouterr().out
    config = json.loads(out)["config"]
    assert list(config) == [*read, "format", "output"]
    options = {"seed": "--seed", "trials": "--trials", "r_max": "--rmax"}
    for key, flag in options.items():
        if command == "dual-surj" and key == "r_max":
            continue
        got = main([*argv, flag, "5"])
        again = capsys.readouterr().out
        if key in read:
            assert json.loads(again)["config"][key] == 5
        else:
            assert (got, again) == (code, out), (key, extra)


@pytest.mark.parametrize("field", ["Q", "F_2"])
@pytest.mark.parametrize("command", ["check-embed", "dual-surj"])
def test_exhaustive_q_must_be_a_field_order(command, field, tmp_path, capsys):
    """--exhaustive-q is a field order, and it reduces rational input only:
    on finite-field input, which is checked exhaustively already, a field
    order is refused too, naming the input's field."""
    fx = tmp_path / "fx"
    assert main(["fixtures", "--out", str(fx), "--field", field]) == 0
    capsys.readouterr()
    pair = [str(fx / "kronecker3.pi.json"), str(fx / "kronecker3.m.json")]
    for q in ("0", "1", "6") if field == "Q" else ("0", "1", "6", "3"):
        assert main([command, *pair, "--exhaustive-q", q]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        if q == "3":
            assert "over F_2" in captured.err


def test_check_an_command(tmp_path):
    f2 = GF(2)
    s2 = write_rep(tmp_path, "s2.json", simple(a_n(2), f2, 1))
    from quiverrep.dynkin import assemble, build_table

    t = build_table(a_n(2), f2)
    u12 = write_rep(tmp_path, "u12.json", assemble(t, {(1, 1): 1}))
    assert main(["check-an", s2, u12]) == 0
    assert main(["check-an", u12, s2]) == 1


# An A3 pair over F_2 in no assembled form: n is the intervals (1, 1),
# (2, 3) and (3, 3), m each of the six intervals once, and neither is in the
# basis of a direct sum of the table's representatives.
A3_SCRAMBLED_N = {"dims": [1, 1, 2], "matrices": [[[0]], [[0], [1]]]}
A3_SCRAMBLED_M = {
    "dims": [3, 4, 3],
    "matrices": [[[0, 1, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[1, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 0]]],
}


def test_check_an_builds_the_embedding_in_any_basis(tmp_path, capsys):
    """check-an constructs and certifies the embedding of a pair that is not
    in assembled form, and exits 0."""
    a3 = {"vertices": ["1", "2", "3"], "arrows": [["1", "2"], ["2", "3"]]}
    paths = []
    for name, data in (("n.json", A3_SCRAMBLED_N), ("m.json", A3_SCRAMBLED_M)):
        (tmp_path / name).write_text(json.dumps({"quiver": a3, "field": "F_2", **data}))
        paths.append(str(tmp_path / name))
    assert main(["check-an", *paths]) == 0
    assert "explicit embedding: constructed and certified injective" in capsys.readouterr().out.splitlines()


def test_dual_surj_command(tmp_path):
    f2 = GF(2)
    x = write_rep(tmp_path, "x.json", simple(a_n(2), f2, 0))
    assert main(["dual-surj", x, x]) == 0


def test_check_embed_inconclusive_exit(fixture_dir):
    rc = main(
        [
            "check-embed",
            str(fixture_dir / "kronecker3.pi.json"),
            str(fixture_dir / "kronecker3.m.json"),
            "--stable",
            "--rmax",
            "1",
        ]
    )
    assert rc == 2  # the criterion holds but no embedding exists at r = 1


@pytest.mark.parametrize("stable", [[], ["--stable"]], ids=["plain", "stable"])
def test_check_embed_refuses_a_non_nilpotent_loop(tmp_path, capsys, stable):
    """n = (x = 1) on the one-loop quiver over F_2, into the zero
    representation and into (x = 0): input errors, not verdicts."""
    f2 = GF(2)
    loop = Quiver(1, ((0, 0),))
    n = write_rep(tmp_path, "n.json", Representation(loop, f2, (1,), [Matrix(f2, [[1]])]))
    z = write_rep(tmp_path, "z.json", Representation(loop, f2, (0,), [Matrix.zeros(f2, 0, 0)]))
    m = write_rep(tmp_path, "m.json", Representation(loop, f2, (1,), [Matrix(f2, [[0]])]))
    for target in (z, m):
        assert main(["check-embed", n, target, *stable]) == 3
        captured = capsys.readouterr()
        assert "not nilpotent" in captured.err and captured.out == ""


def test_check_embed_stable_certified_no(tmp_path, capsys):
    """On A2 (0 -> 1) the search certifies that no embedding exists at any
    r for S_0 into S_1 (Hom = 0) and for S_1^2 into P_0 = (1, 1) (a
    vertex too small), and says so; a budget miss stays inconclusive.
    JSON and exit codes are as before."""
    f2 = GF(2)
    s0, s1 = simple(a_n(2), f2, 0), simple(a_n(2), f2, 1)
    p0 = Representation(a_n(2), f2, (1, 1), [Matrix(f2, [[1]])])
    cases = [
        (s0, s1, "Hom(n, m) = 0"),
        (direct_sum([s1, s1]), p0, "no injective map can exist at any r"),
    ]
    for n, m, reason in cases:
        pn, pm = write_rep(tmp_path, "n.json", n), write_rep(tmp_path, "m.json", m)
        assert main(["check-embed", pn, pm, "--stable"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["no embedding exists at any r", f"reason: {reason}"]
        assert not any("inconclusive" in line for line in lines)
        assert main(["check-embed", pn, pm, "--stable", "--format", "json"]) == 1
        search = json.loads(capsys.readouterr().out)["result"]["stable_search"]
        assert search["found"] is False and search["reason"] == reason
    fx = tmp_path / "fx"
    assert main(["fixtures", "--out", str(fx), "--field", "F_2"]) == 0
    capsys.readouterr()
    pi, m = str(fx / "kronecker3.pi.json"), str(fx / "kronecker3.m.json")
    assert main(["check-embed", pi, m, "--stable", "--rmax", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["embedding not found up to r = 1 (inconclusive)", "reason: budget exhausted"]


def test_check_embed_exhaustive_q_reduction(tmp_path):
    out = tmp_path / "fxq"
    assert main(["fixtures", "--out", str(out)]) == 0  # rational fixtures
    rc = main(
        [
            "check-embed",
            str(out / "kronecker3.pi.json"),
            str(out / "kronecker3.m.json"),
            "--exhaustive-q",
            "3",
        ]
    )
    assert rc == 0


def test_check_embed_sampled_ledger(tmp_path, capsys):
    """Over Q nc2 samples; each sampled entry, which has a vertex and a k but
    no brackets, is a ledger line, up to MAX_LEDGER_LINES, and the
    inconclusive verdict exits 2."""
    out = tmp_path / "fxq"
    assert main(["fixtures", "--out", str(out)]) == 0  # rational fixtures
    capsys.readouterr()
    assert main(["check-embed", str(out / "kronecker3.pi.json"), str(out / "kronecker3.m.json")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "mode: sampling" in lines and "trials: 256" in lines
    ledger = [line for line in lines if line.startswith("vertex 1, k=")]
    assert len(ledger) == MAX_LEDGER_LINES and all(line.endswith(": ok") for line in ledger)
    assert f"... ({256 - MAX_LEDGER_LINES} more ledger entries)" in lines


def test_check_irred_on_the_d4_fixture(tmp_path, capsys):
    """x over Q is the D4 indecomposable of root (2, 1, 1, 1); its
    Grassmannian at e = (1, 1, 1, 1) is a projective line, so the
    sufficient criterion holds with dimension 1, and the text output says
    that a failing verdict would prove nothing."""
    out = tmp_path / "fxq"
    assert main(["fixtures", "--out", str(out)]) == 0  # rational fixtures
    x = str(out / "d4.x.json")
    capsys.readouterr()
    assert main(["check-irred", x, "--e", "1,1,1,1", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["holds"] and result["context"]["dimension"] == 1
    assert main(["check-irred", x, "--e", "1,1,1,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "dimension: 1" in lines
    assert lines[-1] == "note: sufficient criterion only; a failing verdict draws no conclusion"


def test_input_errors(tmp_path):
    assert main(["check-sub", str(tmp_path / "missing.json"), "--e", "1"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hom", str(bad), str(bad)]) == 3
    assert main(["no-such-command"]) == 3


def test_malformed_scalars_exit_3(tmp_path, capsys):
    data = rep_to_json(Representation(a_n(2), QQ, (1, 1), [Matrix.identity(QQ, 1)]))
    for field, entry in (("Q", "1/0"), ("F_2", 1.5), ("F_2", True), ("Q", False)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data | {"field": field, "matrices": [[[entry]]]}))
        assert main(["hom", str(bad), str(bad)]) == 3
        assert "error:" in capsys.readouterr().err


def test_internal_errors_exit_4(tmp_path, monkeypatch, capsys):
    p = write_rep(tmp_path, "s1.json", simple(a_n(2), GF(2), 0))

    def broken(*args, **kwargs):
        raise RuntimeError("certificate failed")

    monkeypatch.setattr("quiverrep.cli.hom_dim", broken)
    assert main(["hom", p, p]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError('certificate failed')\n"
    assert captured.out == ""


# Shipped fixtures with the commands run on them: the mutated file is the
# first argument (and the first of two for `hom`, paired with the intact one).
FUZZ_FIXTURES = {
    "d4.x": (rep_to_json(d4_x(GF(2))), "1,0,1,1"),
    "d4.p1": (rep_to_json(d4_p1(QQ)), "1,1,0,0"),
    "kronecker3.m": (rep_to_json(kronecker3_m(GF(2))), "2,1"),
}
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([1.5, "", "x", "1", "1/0", "-1/2", "Q", "F_3", "F_4", "F_6"]),
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
    st.just({}),
)


def _mutate(draw, doc):
    """Replace the value at a random path of doc, or drop a key there."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(0, 5))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(FUZZ_VALUES)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(FUZZ_VALUES)
    return doc


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_fixtures_never_escape_main(data, tmp_path, capsys):
    name = data.draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
    doc, e = FUZZ_FIXTURES[name]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps(_mutate(data.draw, doc)))
    commands = (
        ["hom", str(bad), str(good)],
        ["decompose", str(bad)],
        ["check-sub", str(bad), "--e", e],
        ["count-poly", str(bad), "--e", e, "--qs", "2,3"],
        ["semistable", str(bad), "--e", e, "--q-enum", "2"],
    )
    for argv in commands:
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc in (0, 1, 2, 3), argv
        if rc == 1:
            assert "verdict: fails" in out.splitlines(), argv


def _fresh_python(code: str) -> str:
    src = str(Path(quiverrep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_numpy():
    assert _fresh_python("import sys, quiverrep, quiverrep.cli; print('numpy' in sys.modules)") == "False"


def test_every_public_name_resolves():
    code = "import quiverrep; print([n for n in quiverrep.__all__ if not hasattr(quiverrep, n)])"
    assert _fresh_python(code) == "[]"
