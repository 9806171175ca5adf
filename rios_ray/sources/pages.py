"""Dataset sources: the synthesized pages shards and polygon layer."""

from __future__ import annotations

import ray.data

from .. import synth
from .parquet import read_row_groups


def read_pages(
    sf_dir: str,
    columns: list[str] | None = None,
    paths: list[str] | None = None,
    bundle_files: bool = False,
) -> ray.data.Dataset:
    """Pages table for a testdata sf dir (synthesized idempotently),
    read through the footer-planned source (:mod:`.parquet`).

    ``columns`` prunes at the read (parquet column projection) — a read
    that loads `html` for a lat/lon-only pipeline is wasted I/O.
    ``paths`` restricts the read to specific shard files.

    ``bundle_files`` is a full scan: the row groups of all shards are
    cut into contiguous runs balanced by row count, one read task per
    CPU unless the bytes ask for more.  Without it each file is one read
    task — the checkpoint-resume unit (see rios_ray.runtime), whose
    lineage names its shard.  Either way the task count comes from the
    footers.  The read fuses with a map after it only if that map takes
    the read block as its batch (``batch_size=None``): Ray fuses no read
    into a map that asks for a row count.
    """
    path = synth.ensure_pages(sf_dir)
    return read_row_groups(paths if paths is not None else path, columns,
                           per_file=not bundle_files)


def read_polygons() -> ray.data.Dataset:
    path, _ = synth.ensure_polygons()
    return read_row_groups(path)
