"""Cell assignment: lat/lon -> grid / s2-style / hex cell id columns.

The keyed analogue of the reference's block membership (a pixel at
(row, col) belongs to block (row//ysize, col//xsize) —
``/root/reference/rios/applier.py:1308-1326``): a page belongs to the
cells its coordinates hash into.  Vectorized numpy over Arrow columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import cells

DEFAULT_GRID_RES = 7
DEFAULT_S2_LEVEL = 12
DEFAULT_HEX_RES = 8


def cell_column(ids, lon, lat) -> pa.Array:
    """Cell ids as an Arrow column, null where ``lon`` or ``lat`` is NaN
    (a page without a geo token): the cell functions would put such a
    point in a real cell, and SQL gives NULL."""
    missing = np.isnan(lon) | np.isnan(lat)
    return pa.array(ids, mask=missing if missing.any() else None)


def assign_cells(
    batch: pa.Table,
    grid_res: int = DEFAULT_GRID_RES,
    s2_level: int = DEFAULT_S2_LEVEL,
    hex_res: int = DEFAULT_HEX_RES,
    families: tuple[str, ...] = ("grid", "s2", "hex"),
) -> pa.Table:
    """``families`` prunes the index computation the way ``columns``
    prunes the read: a grid-only consumer skips the s2 trig (cos/sin
    per row) and hex cube-rounding entirely."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    if "grid" in families:
        batch = batch.append_column(
            "cell", cell_column(cells.grid_cell_id(lon, lat, grid_res), lon, lat))
    if "s2" in families:
        batch = batch.append_column(
            "s2_cell", cell_column(cells.s2_cell_id(lon, lat, s2_level), lon, lat))
    if "hex" in families:
        batch = batch.append_column(
            "hex_cell", cell_column(cells.hex_cell_id(lon, lat, hex_res), lon, lat))
    return batch
