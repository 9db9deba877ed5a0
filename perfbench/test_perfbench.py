"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the workloads for real (about two minutes on a 2-CPU host), so
they are not part of the library's suite under tests/.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def _namespaces():
    from quiverrep import criteria, exactlin, grassmannian

    mods = [m for name, m in sys.modules.items() if name.startswith("quiverrep") or name == "workloads"]
    classes = [exactlin.Matrix, grassmannian.SubrepOracle, criteria.GrassmannianChecker]
    return [(m, dict(vars(m))) for m in mods] + [(c, dict(vars(c))) for c in classes]


def test_tracer_patches_every_binding_and_restores_them():
    from quiverrep import cli, criteria, dynkin, grassmannian, quiver, rep, stable

    before = _namespaces()
    originals = {"hom_dim": rep.hom_dim, "decompose": dynkin.decompose, "euler_form": quiver.euler_form}
    tracer = Tracer()
    install(tracer)
    try:
        for mod in (criteria, dynkin, stable, grassmannian, cli):
            assert mod.hom_dim is not originals["hom_dim"], mod.__name__
        for mod in (criteria, cli):
            assert mod.decompose is not originals["decompose"], mod.__name__
        for mod in (criteria, dynkin):
            assert mod.euler_form is not originals["euler_form"], mod.__name__
    finally:
        tracer.restore()
    for owner, saved in before:
        current = vars(owner)
        changed = [k for k, v in saved.items() if current.get(k) is not v]
        assert not changed, f"{owner.__name__}: {changed} not restored"


def test_setup_is_traced_apart_from_the_pass(tmp_path):
    tracer = Tracer()
    install(tracer)
    try:
        w = tracer.run_item("setup", workloads.GrOracle, run.DEFAULT_SEED, tmp_path)
        setup = tracer.snapshot()
        tracer.run_item(0, w.run, w.items[0])
    finally:
        tracer.restore()
    setup_aggs, _ = setup
    pass_aggs, _ = tracer.since(setup)
    assert setup_aggs["dynkin.build_table"][0] > 0
    assert pass_aggs["dynkin.build_table"][0] == 0
    assert pass_aggs["item"][0] == 1 and pass_aggs["criteria.checker_init"][0] == 1


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = {"aggs": {}, "counts": {}, "setup_aggs": {}}
    got = {k: v["unit"] for k, v in run.layer_metrics(empty, 1.0, 1.0, 1.0).items()}
    assert got == {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("cls", [workloads.GrOracle, workloads.AnEmbed, workloads.GrCount])
def test_self_times_never_exceed_item_wall(tmp_path, cls):
    w = cls(run.DEFAULT_SEED, tmp_path)
    tracer = Tracer()
    install(tracer)
    try:
        for i, item in enumerate(w.items[:15]):
            tracer.run_item(i, w.run, item)
    finally:
        tracer.restore()
    accounts = tracer.item_accounts()
    assert len(accounts) == 15
    for wall, own in accounts.values():
        assert own <= wall + 1e-6
        assert own >= 0.99 * wall - 1e-6  # every interval is charged somewhere


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_default_seed_reproduces_pinned_answers(tmp_path, name):
    res = run.spawn("plain", tmp_path, name, run.DEFAULT_SEED)
    pins = run.load_pins(name, run.DEFAULT_SEED)
    assert not res["failures"]
    assert res["hashes"] == pins["items"]
    assert run.answer_digest(res["hashes"]) == pins["digest"]
    assert res["counters"] == pins["counters"]


def test_cli_subprocesses_reproduce_pinned_answers(tmp_path):
    # the pins come from the in-process replay; timed runs start a process per command
    w = workloads.CliMix(run.DEFAULT_SEED, tmp_path)
    hashes = [workloads.answer_hash(w.run(item)) for item in w.items]
    assert hashes == run.load_pins("cli-mix", run.DEFAULT_SEED)["items"]


def test_gr_count_exercises_every_order_set_the_rules_admit(tmp_path):
    w = workloads.GrCount(run.DEFAULT_SEED, tmp_path)
    orders = {len(item[3]) for item in w.items}
    assert orders == {5, 6}  # no seven-order (F_9) case passes the budget


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_second_seed_gives_other_inputs_that_pass(tmp_path, name):
    res = run.spawn("plain", tmp_path, name, run.DEFAULT_SEED + 1)
    assert not res["failures"]
    assert res["hashes"] != run.load_pins(name, run.DEFAULT_SEED)["items"]


def test_failure_accounting():
    passes = [["a", "b", None], ["a", "x", "c"]]
    assert run.count_failures(passes, None) == (6, 3)
    assert run.count_failures([["a", "b"]], {"items": ["a", "c"]}) == (2, 1)


def test_tail_has_ten_items_beyond():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
