"""Footer-planned Parquet reads: the driver reads each file's footer and
plans the read tasks before any data is read, the way the reference
plans every block read from the image metadata
(reference ``rios/imagereader.py:65-121``) and the applier plans
its tile reads (``applier.TileReads``).

Each read task is a contiguous run of row groups with exact row counts
and projected sizes in its metadata and the footer's schema; it reads
with ``ParquetFile.read_row_groups``.  There is no sampling pass and no
block splitting after the read, so the read fuses with a map stage that
takes the read block as its batch (``batch_size=None``).
"""

from __future__ import annotations

import glob
import math
import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..util import cluster_cpus

TARGET_TASK_BYTES = 128 << 20


def parquet_files(path: str | list[str]) -> list[str]:
    """The Parquet files of a file, a directory or a list of files;
    ``_SUCCESS``, hidden and other non-Parquet files are skipped."""
    if isinstance(path, list):
        return list(path)
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return [path]


def _read(pieces: list[tuple[str, list[int]]], columns: list[str] | None) -> list[pa.Table]:
    tables = [pq.ParquetFile(f).read_row_groups(rgs, columns=columns) for f, rgs in pieces]
    return [pa.concat_tables(tables) if len(tables) > 1 else tables[0]]


class ParquetRowGroups(Datasource):
    """Read tasks over row groups, planned from the footers.

    ``per_file`` gives one task per file (the checkpoint-resume unit and
    its lineage).  Otherwise the row groups of all files, in file order,
    are cut into contiguous runs balanced by row count:
    ``max(cluster CPUs, bytes / 128 MiB)`` runs, at most one per row
    group (one wave, :func:`util.cluster_cpus`)."""

    def __init__(self, path: str | list[str], columns: list[str] | None = None,
                 per_file: bool = False):
        self.columns, self.per_file = columns, per_file
        self.files = parquet_files(path)
        if not self.files:
            raise ValueError(f"no Parquet files in {path!r}")
        schema = pq.read_schema(self.files[0])
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns], metadata=schema.metadata)
        self.schema = schema
        # one row per row group: file index, row group, rows, projected bytes
        groups = []
        for fi, f in enumerate(self.files):
            md = pq.read_metadata(f)
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                size = sum(rg.column(i).total_uncompressed_size for i in range(rg.num_columns)
                           if columns is None
                           or rg.column(i).path_in_schema.split(".")[0] in columns)
                groups.append((fi, g, rg.num_rows, size))
        self.groups = np.array(groups, dtype=np.int64).reshape(-1, 4)

    def estimate_inmemory_data_size(self) -> int:
        return int(self.groups[:, 3].sum())

    def runs(self) -> list[np.ndarray]:
        """Each read task's row groups, as indices into ``self.groups``."""
        fi, rows = self.groups[:, 0], self.groups[:, 2]
        if self.per_file:
            task = fi
        else:
            n = min(len(rows), max(cluster_cpus(), math.ceil(self.estimate_inmemory_data_size()
                                                             / TARGET_TASK_BYTES)))
            # a row group goes to the run its middle row falls in
            task = (np.cumsum(rows) - rows / 2) * n // max(int(rows.sum()), 1)
        return [r for r in np.split(np.arange(len(task)), np.flatnonzero(np.diff(task)) + 1)
                if len(r)]

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """The planned tasks; ``parallelism`` is ignored."""
        tasks = []
        for run in self.runs():
            g = self.groups[run]
            pieces = [(self.files[f], g[g[:, 0] == f, 1].tolist()) for f in np.unique(g[:, 0])]
            meta = BlockMetadata(num_rows=int(g[:, 2].sum()), size_bytes=int(g[:, 3].sum()),
                                 input_files=[f for f, _ in pieces], exec_stats=None)
            tasks.append(ReadTask(partial(_read, pieces, self.columns), meta, schema=self.schema))
        return tasks


def read_row_groups(path: str | list[str], columns: list[str] | None = None,
                    per_file: bool = False) -> ray.data.Dataset:
    """A Dataset over Parquet row groups (see :class:`ParquetRowGroups`):
    its read tasks are exactly the planned ones, with no block split."""
    source = ParquetRowGroups(path, columns, per_file)
    return ray.data.read_datasource(
        source, override_num_blocks=max(1, len(source.get_read_tasks(-1))))
