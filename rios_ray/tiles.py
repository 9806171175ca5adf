"""Tile materialization + pyramid/overview stages (raster<->vector bridge).

- ``points_to_tiles``: the raster<->vector bridge of the BASELINE north
  star — geocoded point rows are binned onto a working grid and
  materialized as RIOS-style dense blocks (counts or aggregates per
  pixel), via per-batch partial rasterization + a groupby(tile) merge.
- ``decimate_block``: overview decimation with the reference's NEAREST
  semantics (reference ``rios/calcstats.py:845-872``): level
  ``lvl`` keeps every lvl-th pixel of the IMAGE starting at ``lvl//2``
  (``a[lvl//2::lvl, lvl//2::lvl]``).  A block keeps its local rows from
  ``(lvl//2 - top) % lvl`` on, placed at overview row
  ``(top + r0) // lvl`` (columns alike), so blocks whose size is not a
  multiple of ``lvl``, or is smaller than it, still tile the overview
  exactly.  Level list ``[4, 8, ..., 512]`` pruned by min overview
  dimension 128 (``calcstats.py:35-42``).  The applier calls it inside
  the block task, so overviews cost no re-read of the output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .gridmodel import PixelGrid
from .resample import TILE_SCHEMA

DEFAULT_OVERVIEW_LEVELS = [4, 8, 16, 32, 64, 128, 256, 512]
DEFAULT_MIN_OVERVIEW_DIM = 128


def overview_levels(nrows: int, ncols: int,
                    levels=None, min_dim: int = DEFAULT_MIN_OVERVIEW_DIM) -> list[int]:
    """Levels to build: those where the decimated min dimension stays
    >= min_dim (reference ``imagewriter`` overview selection rule)."""
    levels = levels or DEFAULT_OVERVIEW_LEVELS
    mindim = min(nrows, ncols)
    return [lvl for lvl in levels if (mindim // lvl) >= min_dim]


def decimate_block(arr: np.ndarray, top: int, left: int, lvl: int):
    """One block's share of the level-``lvl`` overview (NEAREST), with
    the image-global phase of the module docstring: ``(sub, dst_top,
    dst_left)``.  ``sub`` is empty when a block smaller than ``lvl``
    holds no sample."""
    o = lvl // 2
    r0, c0 = (o - top) % lvl, (o - left) % lvl
    return arr[r0::lvl, c0::lvl], (top + r0) // lvl, (left + c0) // lvl


def overview_schema(dtype) -> pa.Schema:
    """Rows of a ``.ovr`` table: one overview tile per (block, band, level)."""
    return pa.schema(
        [
            ("level", pa.int32()),
            ("top", pa.int32()),
            ("left", pa.int32()),
            ("nrows", pa.int32()),
            ("ncols", pa.int32()),
            ("band", pa.int32()),
            ("data", pa.list_(pa.from_numpy_dtype(np.dtype(dtype)))),
        ]
    )


def decimate_tile_batch(batch: pa.Table, lvl: int, dtype) -> pa.Table:
    """Tile rows -> overview tile rows at 1/lvl resolution (NEAREST),
    via :func:`decimate_block` per row — a stateless map, no shuffle."""
    dtype = np.dtype(dtype)
    col = batch["data"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy()
    flat = col.values.to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    tops = batch["top"].to_numpy(zero_copy_only=False)
    lefts = batch["left"].to_numpy(zero_copy_only=False)
    nrs = batch["nrows"].to_numpy(zero_copy_only=False)
    ncs = batch["ncols"].to_numpy(zero_copy_only=False)
    bands = batch["band"].to_numpy(zero_copy_only=False)
    rows = []
    for i in range(batch.num_rows):
        nr, nc = int(nrs[i]), int(ncs[i])
        arr = flat[offsets[i] : offsets[i + 1]].reshape(nr, nc)
        sub, dst_top, dst_left = decimate_block(arr, int(tops[i]), int(lefts[i]), lvl)
        if sub.size == 0:
            continue
        rows.append(
            {
                "level": lvl,
                "top": dst_top,
                "left": dst_left,
                "nrows": sub.shape[0],
                "ncols": sub.shape[1],
                "band": int(bands[i]),
                "data": sub.ravel(),
            }
        )
    return pa.Table.from_pylist(rows, schema=overview_schema(dtype))


# ---------------------------------------------------------------------------
# points -> dense raster tiles (the raster<->vector bridge)
# ---------------------------------------------------------------------------


def make_point_rasterize_fn(grid: PixelGrid, block_ysize: int, block_xsize: int,
                            value_col: str | None = None):
    """Per-batch partial rasterization: point rows -> per-tile dense count
    (or sum-of-value) patches.  Patches from different batches overlap,
    so a groupby(tile).sum merge follows — but each partial is already a
    dense array, so the shuffle moves one patch per (batch, tile)."""
    nrows, ncols = grid.dimensions()

    def rasterize(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        row, col = grid.world_to_pixel(lon, lat)
        r = np.floor(row).astype(np.int64)
        c = np.floor(col).astype(np.int64)
        ok = (r >= 0) & (r < nrows) & (c >= 0) & (c < ncols)
        r, c = r[ok], c[ok]
        w = (
            batch[value_col].to_numpy(zero_copy_only=False)[ok]
            if value_col
            else np.ones(len(r), dtype=np.float64)
        )
        ty, tx = r // block_ysize, c // block_xsize
        key = ty * (1 << 20) + tx
        rows = []
        for k in np.unique(key):
            m = key == k
            t_y, t_x = int(k) >> 20, int(k) & ((1 << 20) - 1)
            top, left = t_y * block_ysize, t_x * block_xsize
            ys = min(block_ysize, nrows - top)
            xs = min(block_xsize, ncols - left)
            patch = np.zeros((ys, xs), dtype=np.float64)
            np.add.at(patch, (r[m] - top, c[m] - left), w[m])
            rows.append(
                {
                    "tile_y": t_y,
                    "tile_x": t_x,
                    "top": top,
                    "left": left,
                    "nrows": ys,
                    "ncols": xs,
                    "band": 0,
                    "data": patch.ravel(),
                }
            )
        return pa.Table.from_pylist(rows, schema=TILE_SCHEMA)

    return rasterize


def merge_tile_patches(group: pa.Table) -> pa.Table:
    """groupby(tile_y, tile_x).map_groups body: elementwise-sum patches."""
    col = group["data"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy()
    flat = col.values.to_numpy(zero_copy_only=False)
    total = None
    for i in range(group.num_rows):
        a = flat[offsets[i] : offsets[i + 1]]
        total = a.copy() if total is None else total + a
    out = group.slice(0, 1).drop_columns(["data"])
    return out.append_column("data", pa.array([total], type=pa.list_(pa.float64())))


def points_to_raster(ds, grid: PixelGrid, block_ysize: int = 256, block_xsize: int = 256,
                     value_col: str | None = None):
    """Point Dataset -> tile-keyed density/sum raster Dataset."""
    partial = ds.map_batches(
        make_point_rasterize_fn(grid, block_ysize, block_xsize, value_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partial.groupby(["tile_y", "tile_x"]).map_groups(
        merge_tile_patches, batch_format="pyarrow"
    )
