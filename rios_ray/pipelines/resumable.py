"""Checkpoint-resumable flagship: per-shard partials + a driver-side combine.

Each input shard runs the flagship's exchange-free map chain
(:func:`pages.flagship_partials`) as one fused job and writes its
per-block ``(cell, category, n_pages)`` partials to
``out_dir/part=<shard>/`` with a lineage record.  The finalize folds the
committed partials on the driver with ``combine_sorted``: counts are
associative (like the reference's single-pass stats partials,
``/root/reference/rios/calcstats.py:656-692``), so a resumed run equals
a fresh one and :func:`pages.flagship`.

A crashed run re-executes only partitions without lineage records; the
combine reads committed parquet, never recomputes the join.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .. import synth
from ..functions.agg import combine_sorted, in_memory
from ..runtime import run_resumable, shard_partitions
from .pages import FLAGSHIP_AGGS, FLAGSHIP_KEYS, flagship_partials


def resumable_flagship(sf_dir: str, out_dir: str) -> dict:
    """Run (or resume) the flagship at shard granularity.  Returns the
    run_resumable result dict (ran/skipped/manifest)."""
    pages_dir = synth.ensure_pages(sf_dir)
    ppath, _ = synth.ensure_polygons()
    partitions = shard_partitions(pages_dir)
    return run_resumable(
        partitions, lambda _, inputs: flagship_partials(sf_dir, ppath, paths=inputs), out_dir)


def finalize_flagship(out_dir: str) -> ray.data.Dataset:
    """Combine committed per-shard partials into the global counts,
    sorted by (cell, category), as a Dataset.  The driver reads and
    holds every partial at once: the bound of the flagship's own
    driver-side combine (cell x category is grid-bounded)."""
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    partials = pa.concat_tables(pq.read_table(f) for f in files)
    return in_memory(combine_sorted(partials, FLAGSHIP_KEYS, FLAGSHIP_AGGS))
