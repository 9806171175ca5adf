"""Point-in-polygon broadcast join as a per-process cached stage.

The reference rasterizes each vector layer exactly once per process via
``RasterizationMgr`` double-checked locking
(reference ``rios/structures.py:1062-1096``); here the polygon
index is built ONCE per worker process per polygon layer in
``__init__`` (from the layer's Parquet path, or a ``ray.put`` broadcast
ref) and every ``__call__`` refines a zero-copy Arrow batch.  No
shuffle: the small side travels once per worker, not once per batch.

Use with::

    ds.map_batches(pip_join_fn(path), batch_format="pyarrow")
"""

from __future__ import annotations

import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..spatial import DEFAULT_INDEX_RES, PolygonIndex
from ..util import stage_fn


class PIPJoinStage:
    """Point-in-polygon join: emits one output row per (point,
    containing polygon) pair, appending poly_id / category / burn_value.

    ``outer=True`` makes it a LEFT OUTER join: points contained by no
    polygon still emit one row, with sentinel attributes (poly_id -1,
    category 'none', burn_value 0) — the nodata-fill semantics of the
    reference's out-of-extent reads (imagereader.py:102-121) applied to
    the vector join."""

    def __init__(
        self,
        polygons,
        index_res: int = DEFAULT_INDEX_RES,
        keep_cols: list[str] | None = None,
        outer: bool = False,
    ):
        import ray

        polys = (ray.get(polygons) if isinstance(polygons, ray.ObjectRef)
                 else pq.read_table(polygons))
        self.index = PolygonIndex.from_arrow(polys, index_res)
        ids = polys["poly_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        self._ids_sorted = ids[order]
        self._cat_sorted = np.asarray(polys["category"].to_pylist(), dtype=object)[order]
        self._burn_sorted = polys["burn_value"].to_numpy(zero_copy_only=False).astype(np.int32)[order]
        self.keep_cols = keep_cols
        self.outer = outer

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        rows, polys = self.index.contains(lon, lat)
        pos = np.searchsorted(self._ids_sorted, polys)
        poly_ids = np.asarray(polys, dtype=np.int64)
        cats = self._cat_sorted[pos]
        burns = self._burn_sorted[pos]
        if self.outer:
            unmatched = np.setdiff1d(
                np.arange(batch.num_rows, dtype=np.int64),
                np.asarray(rows, dtype=np.int64),
            )
            rows = np.concatenate([np.asarray(rows, dtype=np.int64), unmatched])
            poly_ids = np.concatenate(
                [poly_ids, np.full(len(unmatched), -1, dtype=np.int64)]
            )
            cats = np.concatenate(
                [cats, np.full(len(unmatched), "none", dtype=object)]
            )
            burns = np.concatenate(
                [burns, np.zeros(len(unmatched), dtype=np.int32)]
            )
        cols = self.keep_cols or [c for c in batch.column_names]
        out = batch.select(cols).take(pa.array(rows))
        out = out.append_column("poly_id", pa.array(poly_ids, type=pa.int64()))
        out = out.append_column("category", pa.array(cats, type=pa.string()))
        out = out.append_column("burn_value", pa.array(burns, type=pa.int32()))
        return out


def pip_join_fn(polygons, index_res: int = DEFAULT_INDEX_RES,
                keep_cols: list[str] | None = None, outer: bool = False):
    """:class:`PIPJoinStage` as a task-pool function, its index built
    once per worker process per layer file or ref (``util.stage_fn``); a
    polygon table passed by value is broadcast here first."""
    import ray

    if isinstance(polygons, (str, pathlib.Path)):
        polygons = pathlib.Path(polygons)
    elif not isinstance(polygons, ray.ObjectRef):
        polygons = ray.put(polygons)
    return stage_fn(PIPJoinStage, polygons, index_res, keep_cols, outer)
