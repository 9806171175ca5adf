"""Embeddings-table source (vec_id:int64, embedding:list<float>, label:int32).

Column-pruned parquet read; the embedding column stays Arrow
list<float32> end-to-end and is reshaped zero-copy to a 2-D numpy view
inside batch kernels (see :func:`batch_matrix`).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data

from .documents import read_table


def embeddings_file(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def read_embeddings(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return read_table(embeddings_file(sf_dir), columns)


def batch_matrix(col: pa.ChunkedArray | pa.Array, dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from a list<float> column — flatten is zero-copy;
    the single cast to ``dtype`` is the only copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    n = len(col)
    return flat.reshape(n, -1).astype(dtype)
