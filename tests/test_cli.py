import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quiverrep
from quiverrep.cli import main
from quiverrep.exactlin import GF, QQ, Matrix
from quiverrep.fixtures import d4_p1, d4_x, kronecker3_g, kronecker3_m
from quiverrep.quiver import a_n, save_quiver
from quiverrep.rep import Representation, load_morphism, load_rep, rep_to_json, save_rep, simple


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
    assert data["config"]["seed"] == 0
    # the shared options of the common parser, in their order
    assert list(data["config"]) == ["seed", "r_max", "trials", "samples", "enum_budget", "format", "output"]
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
    assert main(["ext", s1, s2, "--cross-check"]) == 0
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


def test_option_prefixes_are_not_abbreviations(fixture_dir, capsys):
    """decompose has no --e; the prefix must not resolve to --enum-budget."""
    x = str(fixture_dir / "d4.x.json")
    for value in ("1,1", "5"):
        assert main(["decompose", x, "--e", value]) == 3
        assert "unrecognized arguments: --e" in capsys.readouterr().err
    assert main(["decompose", x, "--enum-b", "5"]) == 3
    assert main(["decompose", x, "--enum-budget", "5"]) == 0


def test_check_an_command(tmp_path):
    f2 = GF(2)
    s2 = write_rep(tmp_path, "s2.json", simple(a_n(2), f2, 1))
    from quiverrep.dynkin import assemble, build_table

    t = build_table(a_n(2), f2)
    u12 = write_rep(tmp_path, "u12.json", assemble(t, {(1, 1): 1}))
    assert main(["check-an", s2, u12]) == 0
    assert main(["check-an", u12, s2]) == 1


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
