"""Per-operator profile of any driver-contract query.

Usage::

    python tools/profile_query.py <query_name> [sf_dir]

Runs ``queries()[name](sf_dir)`` once (materialized) and prints Ray
Data's per-operator execution stats — task counts, block counts, remote
wall times — the feedback loop behind every batch-size / partition /
fusion decision in this repo (BASELINE.md records the conclusions).
"""

from __future__ import annotations

import os
import sys
import time


def main() -> None:
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ray

    import __ray_entry__ as entry
    from rios_ray import session

    session.init(num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    fn = entry.queries()[name]
    t0 = time.time()
    res = fn(sf_dir)
    if hasattr(res, "materialize"):
        mat = res.materialize()
        wall = time.time() - t0
        print(f"=== {name}: {mat.count()} rows in {wall:.2f}s ===")
        print(mat.stats())
    else:
        wall = time.time() - t0
        print(f"=== {name}: {len(res)} rows in {wall:.2f}s (driver-side result; "
              "no Dataset stats) ===")
    ray.shutdown()


if __name__ == "__main__":
    main()
