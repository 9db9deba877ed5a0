"""quiverrep benchmark: four workloads timed end to end, and a traced run
that times every layer.

    python3 perfbench/run.py --workload gr-oracle --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each workload runs in fresh interpreters (perfbench/worker.py) with a fixed
PYTHONHASHSEED.  With --trace 0 the run sets the workload up several times
and then times whole passes over its items for --seconds; it prints the
end-to-end metrics.  Set-up times and the times of items that run in the
worker process are divided by the host's slowness (perfbench/hostspeed.py).
With --trace 1 it runs one pass untraced and one pass traced, each in its
own process, and prints the per-layer metrics.  Every
answer is cross-checked inside its item, must repeat across passes, and at
the default seed must equal the answer pinned in perfbench/pinned.json.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
WORKLOADS = ("gr-oracle", "gr-count", "an-embed", "cli-mix")
DEFAULT_SEED = 0
SETUP_RUNS = 11  # set-up time is the median over this many fresh processes
# Set-up time grows as the square root of the host slowness the probes
# measure around it (log-regression over 24 processes per workload gave
# exponents 0.39-0.55), so it is divided by slowness ** 0.5: a process
# start and imports follow the host's speed less than pure Python does.
SETUP_ELASTICITY = 0.5
PROBE_RUNS = 5
WORKER_TIMEOUT_S = 150
# The probe for CLI start-up cost: a command whose own work is negligible.
PROBE_QUIVER = {"vertices": ["1", "2", "3"], "arrows": [["1", "2"], ["2", "3"]]}

# Boundaries each workload exercises; the traced run fails if one records no call.
REQUIRED = {
    "gr-oracle": (
        "criteria.checker_init", "criteria.nonempty", "grassmannian.nonempty", "rep.hom_dim",
        "gflin.rref_rows", "gflin.matmul_rows", "quiver.euler_form",
    ),
    "gr-count": (
        "grassmannian.counting_poly", "grassmannian.count", "gflin.rref_rows",
        "gflin.matmul_rows", "gflin.preimage_rows", "rep.hom_dim", "exactlin.rref",
    ),
    "an-embed": (
        "criteria.an_criterion", "criteria.check_nc2", "dynkin.decompose", "rep.hom_dim",
        "rep.hom_basis", "exactlin.rref", "exactlin.matmul",
    ),
    "cli-mix": (
        "cli.main", "stable.search", "stable.generic_hom", "criteria.check_nc2",
        "dynkin.positive_roots", "dynkin.build_table", "dynkin.decompose",
        "grassmannian.counting_poly", "grassmannian.count", "exactlin.rref",
    ),
}
# The same for set-up, which the traced run records apart from the pass.
REQUIRED_SETUP = {
    "gr-oracle": ("dynkin.build_table", "dynkin.positive_roots", "rep.hom_dim"),
    "gr-count": (
        "dynkin.build_table", "dynkin.positive_roots", "criteria.checker_init", "criteria.irreducible",
        "rep.hom_dim",
    ),
    "an-embed": ("dynkin.build_table", "dynkin.positive_roots"),
    "cli-mix": (),
}
# Layer aggregates reported per layer: (boundary, field).  The pass's come
# under their own names, set-up's under "setup." + name.
PASS_LAYERS = (
    ("exactlin.rref", "calls"), ("exactlin.rref", "s"),
    ("exactlin.matmul", "calls"), ("exactlin.matmul", "s"),
    ("gflin.rref_rows", "calls"), ("gflin.rref_rows", "s"),
    ("gflin.matmul_rows", "calls"), ("gflin.matmul_rows", "s"),
    ("gflin.preimage_rows", "calls"), ("gflin.preimage_rows", "self_s"),
    ("grassmannian.nonempty", "calls"), ("grassmannian.nonempty", "self_s"),
    ("grassmannian.count", "calls"), ("grassmannian.count", "self_s"),
    ("grassmannian.counting_poly", "self_s"),
    ("rep.hom_dim", "calls"), ("rep.hom_dim", "self_s"),
    ("rep.hom_basis", "calls"), ("rep.hom_basis", "self_s"),
    ("dynkin.positive_roots", "s"), ("dynkin.build_table", "self_s"),
    ("dynkin.decompose", "calls"), ("dynkin.decompose", "self_s"),
    ("quiver.euler_form", "calls"), ("quiver.euler_form", "s"),
    ("criteria.checker_init", "self_s"),
    ("criteria.nonempty", "calls"), ("criteria.nonempty", "self_s"),
    ("criteria.check_nc2", "calls"), ("criteria.check_nc2", "self_s"),
    ("criteria.an_criterion", "self_s"),
    ("stable.search", "calls"), ("stable.search", "self_s"),
    ("stable.generic_hom", "self_s"),
    ("cli.main", "self_s"),
)
SETUP_LAYERS = (
    ("dynkin.positive_roots", "s"), ("dynkin.build_table", "self_s"),
    ("rep.hom_dim", "calls"), ("rep.hom_dim", "self_s"),
    ("criteria.checker_init", "self_s"), ("criteria.irreducible", "calls"), ("criteria.irreducible", "self_s"),
    ("exactlin.rref", "s"),
)


class BenchError(Exception):
    pass


def worker_env():
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


def spawn(mode: str, workdir: Path, workload=None, seed=0, seconds=0.0, argv=()):
    """Run perfbench/worker.py in a fresh interpreter; its last stdout line."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workdir", str(workdir),
           "--seed", str(seed), "--seconds", str(seconds), "--t0", repr(t0)]
    if workload:
        cmd += ["--workload", workload]
    cmd += ["--", *argv]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload or ''} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def answer_digest(hashes) -> str:
    return hashlib.sha256("".join(h or "-" for h in hashes).encode()).hexdigest()[:16]


def load_pins(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(PINNED) as fh:
        return json.load(fh)["workloads"][workload]


def count_failures(passes, pins):
    """Items attempted and failed: an item fails when it raised, failed a
    cross-check, differs from its answer in the first pass, or (default
    seed) differs from its pinned answer."""
    first = passes[0]
    pinned = pins["items"] if pins else None
    if pinned is not None and len(pinned) != len(first):
        pinned = [None] * len(first)  # a different item list matches no pin
    attempted = failed = 0
    for row in passes:
        for i, h in enumerate(row):
            attempted += 1
            if h is None or h != first[i] or (pinned is not None and h != pinned[i]):
                failed += 1
    return attempted, failed


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(workload: str, seed: int, seconds: float, workdir: Path):
    # Half of the set-up processes run before the timed one and half after,
    # so the median samples the host at both ends of the run.
    before = [spawn("setup", workdir, workload, seed) for _ in range(SETUP_RUNS // 2)]
    res = spawn("measure", workdir, workload, seed, seconds)
    runs = before + [res] + [spawn("setup", workdir, workload, seed) for _ in range(SETUP_RUNS // 2)]
    raw_setups = [r["setup_s"] for r in runs]
    setups = [r["setup_s"] / r["setup_slowness"] ** SETUP_ELASTICITY for r in runs]
    n = res["items"]
    per_item = [statistics.median(t) for t in res["item_times"]]
    tail_s, tail_pct = tail(per_item)
    pins = load_pins(workload, seed)
    attempted, failed = count_failures(res["hashes"], pins)
    digest = answer_digest(res["hashes"][0])
    problems = [f"pass {p} item {i}: {msg}" for p, i, msg in res["failures"]]
    if pins and pins["counters"] != res["counters"]:
        problems.append(f"counters {res['counters']} differ from pinned {pins['counters']}")
    if pins and pins["digest"] != digest:
        problems.append(f"answer digest {digest} differs from pinned {pins['digest']}")
    metrics = {
        "items_per_s": metric(statistics.median(n / w for w in res["norm_walls"]), "items/s"),
        "item_ms_p50": metric(1e3 * statistics.median(per_item), "ms"),
        "item_ms_tail": metric(1e3 * tail_s, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
    }
    lines = [
        f"workload {workload}: seed {seed}, passes: {len(res['pass_walls'])} x {n} items, "
        "closed loop, one process, one thread",
        f"  items_per_s  {metrics['items_per_s']['value']:10.3f} items/s  (median over passes; "
        f"{statistics.median(n / w for w in res['pass_walls']):.3f} in raw wall time)",
        f"  item_ms_p50  {metrics['item_ms_p50']['value']:10.3f} ms       (per-item medians over passes)",
        f"  item_ms_tail {metrics['item_ms_tail']['value']:10.3f} ms       "
        f"(p{tail_pct:.1f} of {n} items, 10 beyond it)",
        f"  setup_s      {metrics['setup_s']['value']:10.4f} s        (median of {SETUP_RUNS} fresh processes; "
        f"{statistics.median(raw_setups):.4f} in raw wall time)",
        f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:10.2f} MB",
        f"  fail_ratio   {failed / attempted:10.4f} ratio    ({failed} of {attempted} items)",
        f"  answers      digest {digest}"
        + ("" if pins is None else f" ({'matches' if pins['digest'] == digest else 'DIFFERS FROM'} pinned)"),
        f"  counters     {json.dumps(res['counters'], sort_keys=True)}",
        "  host         raw pass s " + " ".join(f"{w:.3f}" for w in res["pass_walls"])
        + "; slowness " + " ".join(f"{f:.3f}" for f in res["slowness"]),
    ]
    report = {
        "workload": workload, "trace": 0, "metrics": metrics, "fail_ratio": failed / attempted,
        "tail_percentile": tail_pct, "items": n, "pass_walls": res["pass_walls"], "setups": setups, "raw_setups": raw_setups,
        "slowness": res["slowness"], "digest": digest, "counters": res["counters"], "problems": problems,
        "numpy": res["numpy"],
    }
    return metrics, attempted, failed, problems, lines, report


def agg(aggs, name, field):
    calls, total, own = aggs.get(name, (0, 0.0, 0.0))
    return {"calls": calls, "s": total, "self_s": own}[field]


def layer_metrics(res, overhead, import_ms, startup_ms):
    def c(name):
        return res["counts"].get(name, 0)

    def unit(field):
        return "count" if field == "calls" else "s"

    m = {}
    for name, field in PASS_LAYERS:
        m[f"{name}.{field}"] = metric(agg(res["aggs"], name, field), unit(field))
    for name in ("exactlin.rref.entries", "exactlin.rref.calls_small", "exactlin.rref.calls_q",
                 "exactlin.rref.calls_ext", "grassmannian.visits", "criteria.nc2.classes",
                 "stable.search.trials_used"):
        m[name] = metric(int(c(name)), "count")
    visits = c("grassmannian.exhaustive_visits")
    m["grassmannian.leaf_yield"] = metric(c("grassmannian.count.subreps") / visits if visits else 0.0, "ratio")
    trials = c("stable.search.trials_used")
    m["stable.search.found_ratio"] = metric(c("stable.search.found") / trials if trials else 0.0, "ratio")
    m["cli.import_ms"] = metric(import_ms, "ms")
    m["cli.startup_ms"] = metric(startup_ms, "ms")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    for name, field in SETUP_LAYERS:
        m[f"setup.{name}.{field}"] = metric(agg(res["setup_aggs"], name, field), unit(field))
    # set-up outside every traced layer: imports of its own, suites, case lists, files
    m["setup.self_s"] = metric(agg(res["setup_aggs"], "item", "self_s"), "s")
    return m


def cli_probes(workdir: Path):
    """(import ms, start-up ms): `import quiverrep.cli` timed inside fresh
    interpreters, and the wall of a cheap command as a subprocess minus
    the wall of quiverrep.cli.main on the same argv in-process."""
    imports = [spawn("import", workdir)["import_s"] for _ in range(PROBE_RUNS)]
    (workdir / "probe.quiver.json").write_text(json.dumps(PROBE_QUIVER))
    argv = ["roots", "probe.quiver.json"]
    walls = []
    for _ in range(PROBE_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "quiverrep.cli", *argv], cwd=workdir, env=worker_env(),
                       capture_output=True, check=True, timeout=WORKER_TIMEOUT_S)
        walls.append(time.perf_counter() - t)
    inproc = spawn("cli", workdir, argv=argv)["walls"]
    return 1e3 * statistics.median(imports), 1e3 * (statistics.median(walls) - statistics.median(inproc))


def run_traced(workload: str, seed: int, workdir: Path):
    plain = spawn("plain", workdir, workload, seed)
    res = spawn("traced", workdir, workload, seed)
    import_ms, startup_ms = cli_probes(workdir)
    metrics = layer_metrics(res, res["wall"] / plain["wall"], import_ms, startup_ms)
    pins = load_pins(workload, seed)
    attempted, failed = count_failures([plain["hashes"], res["hashes"]], pins)
    problems = [f"item {i}: {msg}" for _, i, msg in plain["failures"] + res["failures"]]
    for phase, required, aggs in (("pass", REQUIRED, res["aggs"]), ("set-up", REQUIRED_SETUP, res["setup_aggs"])):
        for name in required[workload]:
            if agg(aggs, name, "calls") == 0:
                problems.append(f"boundary {name} recorded no call in the {phase} of {workload}")
    if res["max_self_excess_s"] > 1e-6:
        problems.append(f"an item's self times exceed its wall by {res['max_self_excess_s']:.3g} s")
    lines = [f"workload {workload}: seed {seed}, traced pass of {res['items']} items, "
             f"{res['spans']} spans (written to {workdir / f'spans-{workload}.tsv'})"]
    lines += [f"  {k:34s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append("  note: nc2's socle-rank scan calls exactlin._rref_mod_p directly, so those "
                 "eliminations are criteria.check_nc2 self time, not exactlin.rref")
    report = {"workload": workload, "trace": 1, "metrics": metrics, "problems": problems,
              "aggs": res["aggs"], "counts": res["counts"], "setup_aggs": res["setup_aggs"],
              "setup_counts": res["setup_counts"], "numpy": res["numpy"]}
    return metrics, attempted, failed, problems, lines, report


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    workdir = ROOT / ".perfbench_work" / f"{workload}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, attempted, failed, problems, lines, report = run_traced(workload, seed, workdir)
    else:
        metrics, attempted, failed, problems, lines, report = run_timed(workload, seed, seconds, workdir)
    report["env"] = environment(seed, report.pop("numpy"))
    lines.append(f"  env          {json.dumps(report['env'], sort_keys=True)}")
    lines += [f"  PROBLEM {p}" for p in problems]
    (workdir / f"report-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return metrics, attempted, failed, problems, lines


def main() -> int:
    p = argparse.ArgumentParser(description="quiverrep benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "quiverrep" / "__init__.py").is_file():
        print(f"error: no quiverrep sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f, problems, lines = run_one(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            all_metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
            attempted += a
            failed += f
            correct = correct and not problems and f == 0
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
