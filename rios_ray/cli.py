"""CLI entry points — the ``rioscalcstats`` / ``riosprintstats``
analogues (reference ``cmdline/rioscalcstats.py:53-73`` and
``cmdline/riosprintstats.py:40-58``) over tile-raster parquet files,
plus the cluster job entry (the ``ray job submit`` payload).

Usage::

    python -m rios_ray.cli calcstats  <tileraster> [<tileraster> ...]
    python -m rios_ray.cli printstats <tileraster> [<tileraster> ...]
    python -m rios_ray.cli run --sf-dir DIR --out DIR [--fresh]

``calcstats`` recomputes single-pass basic stats (+ histogram-derived
median/mode) and rewrites the manifest sidecar; ``printstats`` dumps
the stored stats.  ``run`` executes (or resumes) the checkpointed
flagship pipeline — on a cluster submit it as::

    ray job submit --working-dir . -- python -m rios_ray.cli run \
        --sf-dir /data/pages --out /data/out

A re-submitted job skips partitions with committed lineage records
(see runtime.py), so preemption costs one partition of rework.
These commands own a Ray session (scripts, not library code); under
``ray job submit`` they attach to the cluster via RAY_ADDRESS.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _calc_one(path: str, include_hist: bool = True, approx: bool = False,
              sample_frac: float = 0.25, seed: int = 42) -> dict:
    import pyarrow.parquet as pq

    from .sources.parquet import read_row_groups
    from .sources.tileraster import TileRasterInfo, write_tile_raster
    from .stats import dataset_band_stats

    info = TileRasterInfo.read(path)
    ds = read_row_groups(path)
    if approx:
        # sampled scan — the reference's approx_ok path computes from
        # pyramid-subsampled pixels (calcstats.py:176-198); a seeded
        # random tile sample is the keyed-parquet equivalent
        ds = ds.random_sample(sample_frac, seed=seed)
    res = dataset_band_stats(
        ds, info.np_dtype, nullval=info.nullval, thematic=info.thematic,
        include_hist=include_hist,
    )
    stats = {}
    for band, r in res.items():
        minv, maxv, mean, stddev = r["stats"]
        entry = {
            "min": float(minv), "max": float(maxv),
            "mean": float(mean), "stddev": float(stddev),
        }
        if r["hist"] is not None and r["hist"][0] is not None:
            hmin, hmax, counts = r["hist"]
            # histogram-derived estimates (reference calcstats.py:954-970):
            # first bin with cumsum >= half the count; argmax bin
            half = counts.sum() / 2.0
            entry["median"] = float(hmin + int(np.searchsorted(np.cumsum(counts), half)))
            entry["mode"] = float(hmin + int(np.argmax(counts)))
        if approx:
            entry["approx"] = True
        stats[str(band)] = entry
    # rewrite sidecar with fresh stats, preserving grid metadata
    table = pq.read_table(path)
    write_tile_raster(
        path, table, info.grid, info.nbands, info.np_dtype,
        nullval=info.nullval, thematic=info.thematic,
        layer_names=info.layer_names, stats=stats,
    )
    return stats


def cmd_calcstats(paths: list[str], include_hist: bool = True,
                  approx: bool = False) -> int:
    import ray

    own_session = not ray.is_initialized()
    if own_session:
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    for p in paths:
        stats = _calc_one(p, include_hist, approx=approx)
        print(json.dumps({"file": p, "stats": stats}))
    if own_session:
        ray.shutdown()
    return 0


def cmd_printstats(paths: list[str]) -> int:
    from .sources.tileraster import read_stats_sidecar

    rc = 0
    for p in paths:
        stats = read_stats_sidecar(p)
        if stats is None:
            print(json.dumps({"file": p, "error": "no stats stored"}))
            rc = 1
        else:
            print(json.dumps({"file": p, "stats": stats}))
    return rc


def cmd_run(sf_dir: str, out: str, fresh: bool = False) -> int:
    """The ``ray job submit`` payload: run or resume the checkpointed
    flagship pipeline at input-shard granularity, then finalize."""
    import shutil

    import ray

    own_session = not ray.is_initialized()
    if own_session:
        # under `ray job submit` RAY_ADDRESS points at the cluster;
        # standalone it is "local" in this sandbox
        ray.init(include_dashboard=False, logging_level="ERROR")
    from . import session
    from .pipelines.resumable import finalize_flagship, resumable_flagship

    session.tune()

    if fresh:
        shutil.rmtree(out, ignore_errors=True)
    res = resumable_flagship(sf_dir, out)
    final = finalize_flagship(out).to_pandas()
    records = {p: res["manifest"].read(p) for p in res["ran"]}
    summary = {
        "ran": res["ran"],
        "skipped": res["skipped"],
        "result_rows": len(final),
        "total_pages": int(final["n_pages"].sum()),
        "metrics": {p: {"rows_out": r.rows_out, "bytes_out": r.bytes_out}
                    for p, r in records.items()},
    }
    print(json.dumps(summary))
    if own_session:
        ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="rios_ray.cli")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("calcstats", help="recompute stats into the sidecar")
    c.add_argument("paths", nargs="+")
    c.add_argument("--no-hist", action="store_true")
    c.add_argument("--approx", action="store_true",
                   help="sampled-scan approximate stats (reference approx_ok)")
    p = sub.add_parser("printstats", help="print stored stats")
    p.add_argument("paths", nargs="+")
    r = sub.add_parser("run", help="run/resume the flagship job (ray job submit payload)")
    r.add_argument("--sf-dir", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--fresh", action="store_true",
                   help="discard existing output + lineage first")
    sub.add_parser("selftest", help="run the engine test suite "
                                    "(the reference's testrios analogue)")
    args = ap.parse_args(argv)
    if args.cmd == "calcstats":
        return cmd_calcstats(args.paths, include_hist=not args.no_hist,
                             approx=args.approx)
    if args.cmd == "run":
        return cmd_run(args.sf_dir, args.out, fresh=args.fresh)
    if args.cmd == "selftest":
        import os

        import pytest

        tests = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tests")
        return pytest.main(["-x", "-q", tests])
    return cmd_printstats(args.paths)


if __name__ == "__main__":
    sys.exit(main())
