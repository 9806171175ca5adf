"""Dataset sources: the synthesized pages shards and polygon layer."""

from __future__ import annotations

import ray.data

from .. import synth


def read_pages(
    sf_dir: str,
    columns: list[str] | None = None,
    paths: list[str] | None = None,
    bundle_files: bool = False,
) -> ray.data.Dataset:
    """Pages table for a testdata sf dir (synthesized idempotently).

    ``columns`` prunes at the read (parquet column projection) — a read
    that loads `html` for a lat/lon-only pipeline is wasted I/O.
    ``paths`` restricts the read to specific shard files (the
    checkpoint-resume unit — see rios_ray.runtime).

    ``bundle_files`` packs many small shard files into size-targeted
    read blocks (max(2 x cpus, total_bytes / 128 MiB) tasks) instead
    of one task per file: at ~5-15 ms of serial dispatch per task, a
    600-shard read otherwise pays more in task launches than in I/O.
    Use for full-scan pipelines; leave off where per-shard lineage
    matters (resume) or downstream wants per-file blocks.
    """
    path = synth.ensure_pages(sf_dir)
    target = paths if paths is not None else path
    kwargs = {}
    if bundle_files:
        import glob
        import os

        import ray as _ray

        files = (
            target if isinstance(target, list)
            else glob.glob(os.path.join(target, "*.parquet"))
        )
        total = sum(os.path.getsize(f) for f in files) if files else 0
        cpus = int(_ray.cluster_resources().get("CPU", 4)) if _ray.is_initialized() else 4
        nb = max(2 * cpus, total // (128 << 20) + 1)
        if files and nb < len(files):
            kwargs["override_num_blocks"] = nb
    return ray.data.read_parquet(target, columns=columns, **kwargs)


def read_polygons() -> ray.data.Dataset:
    path, _ = synth.ensure_polygons()
    return ray.data.read_parquet(path)
