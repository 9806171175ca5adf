"""Checkpoint-resume runtime: per-partition lineage records.

The reference has no checkpointing (any worker exception aborts the
run, ``/root/reference/rios/applier.py:1047-1052``); the BASELINE north
rule requires it, so this layer is designed rather than ported:

- **Partition** = resumable unit of work (an input shard, a key-range
  bucket): one short Ray Data pipeline whose output blocks become the
  row groups of one Parquet file in ``out_dir/part=<name>/``.  Pending partitions run in a window of
  ``min(cluster CPUs, pending)`` at once, the reference's bounded
  ``ComputeWorkerManager`` pool, and each commits as soon as it
  finishes.  A failed partition leaves no lineage record and no output,
  so a re-run redoes exactly that partition.
- **Lineage record** = one JSON file per committed partition under
  ``out_dir/_lineage/`` carrying inputs, rows/bytes out, wall time,
  attempt count and Ray job id.  ``rows_out``/``bytes_out`` are read
  back from the written Parquet footers and file sizes, so they are
  exact by construction.  Commit is atomic (tmp + rename), so a record
  either exists complete or not at all; an attempt marker beside it
  counts the tries of a partition that started but never committed.
  The record is the one per-partition count: a run starts no actor.

Datasets are built on the driver thread and only executed in the window
threads, which write blocks with pyarrow's ``ParquetWriter``, never Ray
Data's ``read_parquet``/``write_parquet``: Ray Data's path resolution
re-imports ``fsspec.implementations.http`` on every call, and two
threads importing it at once can see a half-initialised module.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import pyarrow.parquet as pq
import ray
from ray.data.block import BlockAccessor

from .util import cluster_cpus

LINEAGE_DIRNAME = "_lineage"


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


@ray.remote(num_cpus=0)
class MetricsCollector:
    """(stage, partition) -> {rows, bytes, batches} accumulator, the
    opt-in cap-drop report of ``pipelines.dedup.winnow_pairs(metrics=...)``.

    The RIOS analogue is the merged ``Timers``/accumulator state
    (``/root/reference/rios/structures.py:770-902``), kept here in one
    zero-CPU actor instead of per-thread dicts merged at exit.
    """

    def __init__(self):
        self._m: dict[tuple, dict] = {}

    def add(self, stage: str, partition: str, rows: int, nbytes: int) -> None:
        key = (stage, partition)
        e = self._m.setdefault(key, {"rows": 0, "bytes": 0, "batches": 0})
        e["rows"] += rows
        e["bytes"] += nbytes
        e["batches"] += 1

    def summary(self) -> dict:
        return {f"{s}/{p}": dict(v) for (s, p), v in sorted(self._m.items())}


# --------------------------------------------------------------------------
# lineage manifest
# --------------------------------------------------------------------------


@dataclass
class LineageRecord:
    partition: str
    inputs: list[str]
    rows_out: int
    bytes_out: int
    wall_s: float
    attempt: int
    job_id: str
    committed_at: float
    extra: dict = field(default_factory=dict)


def _replace(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


class Manifest:
    """Directory of per-partition lineage JSON records (atomic commit)."""

    def __init__(self, out_dir: str):
        self.dir = os.path.join(out_dir, LINEAGE_DIRNAME)
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, partition: str, ext: str = "json") -> str:
        return os.path.join(self.dir, f"{partition}.{ext}")

    def done(self) -> set[str]:
        return {f[:-5] for f in os.listdir(self.dir) if f.endswith(".json")}

    def read(self, partition: str) -> LineageRecord:
        with open(self._path(partition)) as f:
            return LineageRecord(**json.load(f))

    def begin(self, partition: str) -> int:
        """Count one more try of ``partition``; returns the try number.
        The marker lives until the partition commits."""
        marker = self._path(partition, "attempt")
        try:
            with open(marker) as f:
                attempt = int(f.read()) + 1
        except FileNotFoundError:
            attempt = 1
        _replace(marker, str(attempt))
        return attempt

    def commit(self, rec: LineageRecord) -> None:
        _replace(self._path(rec.partition), json.dumps(asdict(rec)))
        Path(self._path(rec.partition, "attempt")).unlink(missing_ok=True)

    def invalidate(self, partition: str) -> None:
        Path(self._path(partition)).unlink(missing_ok=True)


# --------------------------------------------------------------------------
# resumable partitioned run
# --------------------------------------------------------------------------


def _write_blocks(ds, part_dir: str) -> tuple[int, int]:
    """Execute ``ds`` and stream its non-empty output blocks (which
    share one schema) into one Parquet file, a row group each; returns
    (rows, bytes) from its footer and size.  One file per partition
    keeps the downstream re-read to one file per partition."""
    os.makedirs(part_dir)
    path = os.path.join(part_dir, "part.parquet")
    writer = None
    try:
        for bundle in ds.iter_internal_ref_bundles():
            for ref, _ in bundle.blocks:
                table = BlockAccessor.for_block(ray.get(ref)).to_arrow()
                if table.num_rows == 0:
                    continue
                if writer is None:
                    writer = pq.ParquetWriter(path, table.schema)
                writer.write_table(table)
    finally:
        if writer is not None:
            writer.close()
    if writer is None:
        return 0, 0
    return pq.read_metadata(path).num_rows, os.path.getsize(path)


def run_resumable(partitions: dict[str, list[str]], build, out_dir: str) -> dict:
    """Run ``build(name, inputs) -> Dataset`` for every partition without
    a lineage record, ``min(cluster CPUs, pending)`` at a time; write
    each to ``out_dir/part=<name>/`` and commit its record as soon as it
    finishes.  ``rows_out``/``bytes_out`` come from the written footers.

    ``build`` is called on the calling thread (see the module docstring);
    only the execution and the write run in the window.  So ``build``
    must return a lazy Dataset: a driver-side final
    (``functions.agg.gather_final``) would execute inside it and
    serialise the window.  A failed partition does not stop the
    others: once every partition has finished, the first failure (in
    partition order) is re-raised.

    ``partitions``: partition name -> list of input paths (recorded as
    lineage).  Returns {"ran": [...], "skipped": [...], "manifest": M},
    both lists in partition order.
    """
    manifest = Manifest(out_dir)
    done = manifest.done()
    skipped = [n for n in partitions if n in done]
    pending = [n for n in partitions if n not in done]
    try:
        job_id = ray.get_runtime_context().get_job_id()
    except Exception:
        job_id = "driver"
    window = max(1, min(cluster_cpus(), len(pending)))
    slots = threading.Semaphore(window)

    def run_one(name: str, ds, attempt: int, t0: float) -> None:
        part_dir = os.path.join(out_dir, f"part={name}")
        try:
            # idempotent retry: replace any partial output of a failed try
            shutil.rmtree(part_dir, ignore_errors=True)
            rows, nbytes = _write_blocks(ds, part_dir)
            manifest.commit(LineageRecord(
                partition=name, inputs=list(partitions[name]), rows_out=rows,
                bytes_out=nbytes, wall_s=round(time.time() - t0, 3),
                attempt=attempt, job_id=job_id, committed_at=time.time()))
        except BaseException:
            shutil.rmtree(part_dir, ignore_errors=True)
            raise
        finally:
            slots.release()

    errors, futures = {}, {}
    with ThreadPoolExecutor(window) as pool:
        for name in pending:
            slots.acquire()
            attempt, t0 = manifest.begin(name), time.time()
            try:
                ds = build(name, partitions[name])
            except Exception as e:
                slots.release()
                errors[name] = e
                continue
            futures[name] = pool.submit(run_one, name, ds, attempt, t0)
    for name, f in futures.items():
        if f.exception() is not None:
            errors[name] = f.exception()
    if errors:
        name = next(n for n in pending if n in errors)
        errors[name].add_note(f"partition {name!r}; {len(errors)} of "
                              f"{len(pending)} pending partitions failed")
        raise errors[name]
    return {"ran": pending, "skipped": skipped, "manifest": manifest}


def shard_partitions(path: str) -> dict[str, list[str]]:
    """One partition per input shard file (the resumable layout the
    synth pages fixture is written in — synth.py SHARD_ROWS)."""
    shards = sorted(
        f for f in os.listdir(path) if f.endswith(".parquet")
    )
    return {os.path.splitext(f)[0]: [os.path.join(path, f)] for f in shards}
