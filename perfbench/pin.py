"""Write perfbench/pinned.json: the default-seed answers of every workload.

    python3 perfbench/pin.py

Run it only when a change to the benchmark's inputs or answer format is
intended; a change to the library must reproduce the pinned answers.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, PINNED, ROOT, WORKLOADS, answer_digest, spawn


def main() -> int:
    pins = {}
    for name in WORKLOADS:
        workdir = ROOT / ".perfbench_work" / f"{name}-s{DEFAULT_SEED}"
        workdir.mkdir(parents=True, exist_ok=True)
        res = spawn("plain", workdir, name, DEFAULT_SEED)
        if res["failures"]:
            print(f"{name}: refusing to pin failed items: {res['failures']}", file=sys.stderr)
            return 1
        pins[name] = {"digest": answer_digest(res["hashes"]), "counters": res["counters"], "items": res["hashes"]}
        print(f"{name}: digest {pins[name]['digest']} counters {res['counters']}")
    with open(PINNED, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": pins}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
