"""Regenerate ``digests.json``: frozen per-cell payload digests.

Runs each digest group's serial workload at full scale, once per seed,
in a fresh interpreter, and stores every cell's payload digest.  Run
it again whenever the workload sizes in ``workloads.py`` change (the
benchmark's tests fail until you do), never to make a mismatch go
away: a digest that moves means the simulator's output moved.

    python3 perfbench/freeze.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

if __name__ == "__main__":
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from perfbench.digest import FROZEN_PATH  # noqa: E402
from perfbench.run import fresh_dir, group_sizes, launch_rep  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    groups = {}
    for workload in WORKLOADS.values():
        if not workload.serial:
            continue
        seeds = {}
        for seed in range(first, last + 1):
            rep_dir = fresh_dir(f"freeze-{workload.name}")
            try:
                record = launch_rep(workload.name, seed, "full", False, rep_dir)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            if record["error"] or None in record["cells"].values():
                raise SystemExit(f"{workload.name} seed {seed} failed:\n"
                                 f"{record['error']}")
            seeds[str(seed)] = record["cells"]
            print(f"{workload.name} seed {seed}: {len(record['cells'])} cells",
                  flush=True)
        groups[workload.digest_group] = {
            "workload": workload.name,
            "sizes": group_sizes(workload, "full"),
            "seeds": seeds,
        }
    with open(FROZEN_PATH, "w") as handle:
        json.dump({"groups": groups}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
