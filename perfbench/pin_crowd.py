"""Pin the crowd_256 final-pose digests of seeds 0..N-1 in golden.json.

    python3 perfbench/pin_crowd.py 64

Run it only on a commit whose crowd_256 behaviour is known to be right:
the benchmark then fails any later commit that moves a vehicle differently
on a pinned seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    osc = run.import_osc2c()
    work = os.path.join(run.WORK, f"pin-{os.getpid()}")
    digests = {}
    try:
        for seed in range(count):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            crowd = run.Crowd(osc, seed, work)
            _, cs = crowd.compiled_round(check_collisions=True)
            digests[str(seed)] = crowd.pose_digest(cs.world)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(run.HERE, "golden.json")
    golden = dict(run.GOLDEN, crowd_256_final_poses=digests)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
