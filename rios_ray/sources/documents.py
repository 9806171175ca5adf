"""Driver testdata table sources (documents, embeddings, the TPC-H-style
side tables, events).

Same planning-time probe pattern as ``sources.pages``: schema from
parquet metadata on the driver, column projection pushed into the read
(the reference's layer-selection contract,
``/root/reference/rios/applier.py:730-743``).
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data


def _drop_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def read_table(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Column-pruned read of one testdata table.  The files carry pandas
    schema metadata, and pyarrow cannot hash a schema with metadata, so
    Ray's block-schema dedup would log a warning and take its slow
    unify path for every such block; the read task drops the metadata
    (a zero-copy schema swap inside the read, no extra operator)."""
    return ray.data.read_parquet(path, columns=columns, _block_udf=_drop_schema_metadata)


def documents_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def read_documents(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return read_table(documents_path(sf_dir), columns)
