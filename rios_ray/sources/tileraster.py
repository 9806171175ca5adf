"""Tile-keyed raster tables: the engine's raster file format.

A "raster" is a parquet table of tile rows (schema per FIXTURES.md §3:
``tile_y, tile_x, top, left, nrows, ncols, band, data: list<T>``) plus a
JSON grid manifest sidecar — the keyed analogue of the reference's
georeferenced GDAL file + ``ImageInfo`` probe
(``/root/reference/rios/fileinfo.py:35-108``).  The sidecar read is the
driver-side planning probe: no cluster work, mirroring how the reference
resolves the working grid before any processing
(``/root/reference/rios/applier.py:925-932``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..gridmodel import PixelGrid


@dataclass
class TileRasterInfo:
    """Probe result: grid + band count + dtype + nodata (+ thematic flag)."""

    path: str
    grid: PixelGrid
    nbands: int
    dtype: str
    nullval: float | None = None
    thematic: bool = False
    layer_names: list[str] | None = None

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    @classmethod
    def read(cls, path: str) -> "TileRasterInfo":
        with open(_manifest_path(path)) as f:
            m = json.load(f)
        g = m["grid"]
        return cls(
            path=path,
            grid=PixelGrid(
                g["x_min"], g["x_max"], g["y_min"], g["y_max"],
                g["x_res"], g["y_res"], g.get("projection", "EPSG:4326"),
            ),
            nbands=m["nbands"],
            dtype=m["dtype"],
            nullval=m.get("nullval"),
            thematic=m.get("thematic", False),
            layer_names=m.get("layer_names"),
        )


def _manifest_path(path: str) -> str:
    return path + ".grid.json" if not os.path.isdir(path) else os.path.join(path, "_grid.json")


def write_manifest(
    path: str,
    grid: PixelGrid,
    nbands: int,
    dtype,
    nullval: float | None = None,
    thematic: bool = False,
    layer_names: list[str] | None = None,
    stats: dict | None = None,
    overviews: dict | None = None,
) -> TileRasterInfo:
    """Write only the grid manifest sidecar (for tile data written
    separately, e.g. a distributed ``Dataset.write_parquet`` into a
    directory — the resumable, many-file output layout).  ``overviews``
    records pyramid levels + .ovr path (GDAL .ovr analogue)."""
    manifest = {
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max,
            "y_min": grid.y_min, "y_max": grid.y_max,
            "x_res": grid.x_res, "y_res": grid.y_res,
            "projection": grid.projection,
        },
        "nbands": nbands,
        "dtype": str(np.dtype(dtype)),
        "nullval": nullval,
        "thematic": thematic,
        "layer_names": layer_names,
    }
    if stats is not None:
        manifest["stats"] = stats
    if overviews is not None:
        manifest["overviews"] = overviews
    with open(_manifest_path(path), "w") as f:
        json.dump(manifest, f)
    return TileRasterInfo(path, grid, nbands, str(np.dtype(dtype)), nullval, thematic, layer_names)


def write_tile_raster(
    path: str,
    table: pa.Table,
    grid: PixelGrid,
    nbands: int,
    dtype,
    nullval: float | None = None,
    thematic: bool = False,
    layer_names: list[str] | None = None,
    stats: dict | None = None,
) -> TileRasterInfo:
    """Write tile rows + manifest (the ``openOutfile``/``closeOutfiles``
    analogue — reference ``imagewriter.py:69-120, 123-193``; stats land
    in the sidecar like GDAL metadata items).  Each run of rows sharing a
    ``top`` (a row of tiles, in the usual row-major order) is one row
    group, so a reader of one block's halo reads a few row groups."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    cuts = [0, *(np.flatnonzero(np.diff(table["top"].to_numpy())) + 1), table.num_rows]
    with pq.ParquetWriter(path, table.schema) as w:
        for a, b in zip(cuts[:-1], cuts[1:]):
            w.write_table(table.slice(a, b - a))
    return write_manifest(
        path, grid, nbands, dtype, nullval, thematic, layer_names, stats
    )


def read_stats_sidecar(path: str) -> dict | None:
    """The ``riosprintstats`` analogue: read stored stats metadata."""
    with open(_manifest_path(path)) as f:
        return json.load(f).get("stats")
