"""One benchmark process: set up a workload, then time it or trace it.

perfbench/run.py starts this file in a fresh interpreter with a fixed
PYTHONHASHSEED, so process-local caches (dynkin._TABLE_CACHE,
gflin._GFQ_CACHE) and the numpy import never carry over from another
workload.  The last line of stdout is one JSON object.

Modes:
  setup     set up, report the set-up time, exit
  measure   set up, then run whole passes over the items until --seconds
            is used up (at least two passes), timing every item (tracing
            off) and probing the host's speed after each one
  plain     set up, one untimed-per-item pass with tracing off
  traced    set up and run one pass, both with every layer boundary traced;
            set-up is recorded as the item "setup" and reported apart
  import    time `import quiverrep.cli` in this fresh interpreter
  cli       time quiverrep.cli.main in-process on one argv, a few times

--t0 is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SETUP_PROBES = 100
# A median over passes needs at least two; a cli-mix pass can take more
# than half of a 20 s budget on a slow host.
MIN_PASSES = 2
# An item's time is divided by the slowness of the probes run within this
# many items of it: the host's speed changes within a pass, and a window of
# five probes cut the pass-to-pass variation of single items' times from
# 0.14-0.22 (one factor per pass) to 0.07-0.12.
PROBE_WINDOW = 2


def emit(obj) -> None:
    print(json.dumps(obj))


def one_item(run, item):
    from workloads import CheckFailed

    try:
        return run(item), None
    except CheckFailed as exc:
        return None, f"check failed: {exc}"
    except Exception as exc:  # a library error fails the item; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def measure(w, seconds: float) -> dict:
    """Whole passes over the items until the budget is used up.  For items
    that run in this process a host-speed probe runs after every item, and
    each item's time is divided by the slowness its neighbouring probes
    measured, so it reads as seconds on a host of reference speed."""
    from hostspeed import probe, slowness
    from workloads import answer_hash

    clock = time.perf_counter
    in_children = getattr(w, "runs_in_children", False)
    times = [[] for _ in w.items]
    pass_walls, norm_walls, slow, hashes, failures, answers = [], [], [], [], [], []
    begin = clock()
    while True:
        row, walls, probes = [], [], []
        for i, item in enumerate(w.items):
            t = clock()
            answer, failure = one_item(w.run, item)
            walls.append(clock() - t)
            if not in_children:
                probes.append(probe())
            row.append(None if failure else answer_hash(answer))
            if failure and len(failures) < 20:
                failures.append([len(pass_walls), i, failure])
            if not pass_walls:
                answers.append(answer)
        normalized = [
            wall / slowness(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]) if probes else wall
            for i, wall in enumerate(walls)
        ]
        for i, t in enumerate(normalized):
            times[i].append(t)
        pass_walls.append(sum(walls))
        norm_walls.append(sum(normalized))
        slow.append(slowness(probes) if probes else 1.0)
        hashes.append(row)
        typical = statistics.median(pass_walls)
        # stop when less than half a pass of the budget is left
        if len(pass_walls) >= MIN_PASSES and clock() - begin > seconds - typical / 2:
            break
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return {
        "pass_walls": pass_walls,
        "norm_walls": norm_walls,
        "slowness": slow,
        "item_times": times,
        "hashes": hashes,
        "failures": failures,
        "counters": w.counters([a for a in answers if a is not None]),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def one_pass(w, tracer=None) -> dict:
    from workloads import answer_hash

    run = getattr(w, "run_inprocess", w.run)
    clock = time.perf_counter
    hashes, failures, answers = [], [], []
    t0 = clock()
    for i, item in enumerate(w.items):
        if tracer is None:
            answer, failure = one_item(run, item)
        else:
            answer, failure = tracer.run_item(i, one_item, run, item)
        hashes.append(None if failure else answer_hash(answer))
        answers.append(answer)
        if failure and len(failures) < 20:
            failures.append([0, i, failure])
    wall = clock() - t0
    counters = w.counters([a for a in answers if a is not None])
    return {"wall": wall, "hashes": hashes, "failures": failures, "counters": counters}


def traced(make, workdir: Path) -> dict:
    """Set up (make()) and run one pass under the tracer.  The aggregates
    of set-up are reported apart from those of the pass."""
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        w = tracer.run_item("setup", make)
        setup = tracer.snapshot()
        out = one_pass(w, tracer)
    finally:
        tracer.restore()
    accounts = tracer.item_accounts()
    out["aggs"], out["counts"] = tracer.since(setup)
    out["setup_aggs"], out["setup_counts"] = setup
    out["max_self_excess_s"] = max(own - wall for wall, own in accounts.values())
    out["spans"] = len(tracer.spans)
    out["items"] = len(w.items)
    tracer.write_spans(workdir / f"spans-{w.name}.tsv")
    return out


def cli_repeat(argv, workdir: Path) -> dict:
    from quiverrep import cli, dynkin
    from run import PROBE_RUNS

    walls = []
    os.chdir(workdir)
    for _ in range(PROBE_RUNS):
        dynkin._TABLE_CACHE.clear()
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        walls.append(time.perf_counter() - t)
        if code != 0:
            raise SystemExit(f"probe {argv} exited {code}")
    return {"walls": walls}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True, choices=("setup", "measure", "plain", "traced", "import", "cli"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("argv", nargs="*")
    args = p.parse_args()
    if args.mode == "import":
        t = time.perf_counter()
        import quiverrep.cli  # noqa: F401

        emit({"import_s": time.perf_counter() - t})
        return
    if args.mode == "cli":
        emit(cli_repeat(args.argv, args.workdir))
        return

    from hostspeed import probe, slowness

    # The host's speed around set-up, in the process that does it: half of
    # the probes run before the imports (their time is not set-up), half
    # after set-up.
    t = time.perf_counter()
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    probe_wall = time.perf_counter() - t
    # Imported only now, so the import mode above starts from a clean interpreter.
    import numpy
    import workloads

    def make():
        return workloads.WORKLOADS[args.workload](args.seed, args.workdir)

    if args.mode == "traced":
        out = traced(make, args.workdir)
        out["numpy"] = numpy.__version__
        emit(out)
        return
    w = make()
    setup_s = time.perf_counter() - args.t0 - probe_wall
    probes += [probe() for _ in range(SETUP_PROBES // 2)]
    out = {"setup_s": setup_s, "setup_slowness": slowness(probes), "numpy": numpy.__version__, "items": len(w.items)}
    if args.mode == "measure":
        out.update(measure(w, args.seconds))
    elif args.mode == "plain":
        out.update(one_pass(w))
    emit(out)


if __name__ == "__main__":
    main()
