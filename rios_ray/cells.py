"""Deterministic spatial cell indexing: lat/lng -> cell ids, vectorized numpy.

Three cell families (no h3 / s2sphere / shapely in the environment, so
these are implemented natively; determinism + parity with an independent
oracle is the test contract, mirroring how the reference recomputes
goldens independently — ``/root/reference/rios/riostests/riostestutils.py:3-10``):

- **grid cells** — equirectangular floor binning.  Exactly expressible
  in ANSI SQL (the DuckDB oracle recomputes them), so they carry the
  oracle-checked tiling, PIP co-partitioning, and kNN ring search.
- **s2-style cells** — unit sphere -> cube face -> quadratic (u,v)->(s,t)
  transform -> leaf (i,j) -> Z-order (Morton) position.  Same shape as
  S2 cell ids (face + quadtree position) with Z-order in place of the
  Hilbert curve; hierarchical: the parent id is ``id >> 2`` within a face.
- **hex cells (h3-style)** — axial hex binning on the lon/lat plane with
  aperture-sqrt(7) resolution steps (res 7-9 supported like H3's res
  7..9), cube-rounded.  Same API shape as H3 (res + neighbor rings).

The grid math underneath is the reference's snap/round algebra
(``/root/reference/rios/pixelgrid.py:379-412``) via :mod:`rios_ray.gridmodel`.
"""

from __future__ import annotations

import numpy as np

from .gridmodel import round_away_vec

# ---------------------------------------------------------------------------
# grid cells (SQL-parity equirectangular binning)
# ---------------------------------------------------------------------------


def grid_cell_step(res: int) -> float:
    """Cell edge in degrees at resolution ``res``: 180 / 2**res."""
    return 180.0 / (1 << res)


def grid_cell_id(lon: np.ndarray, lat: np.ndarray, res: int) -> np.ndarray:
    """Equirectangular cell id, bit-identical to the DuckDB oracle SQL::

        CAST(floor((90.0 - lat) / step) AS BIGINT) * (2 * 2**res)
          + CAST(floor((lon + 180.0) / step) AS BIGINT)

    with both axes clamped into range (lat=-90 / lon=180 land in the last
    cell).  All arithmetic is float64 in the same order as the SQL
    expression, so floor results match exactly.
    """
    step = grid_cell_step(res)
    ny = 1 << res
    nx = 2 << res
    with np.errstate(invalid="ignore"):  # NaN (tokenless) rows are masked to NULL later
        cy = np.floor((90.0 - np.asarray(lat, dtype=np.float64)) / step).astype(np.int64)
        cx = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / step).astype(np.int64)
    cy = np.clip(cy, 0, ny - 1)
    cx = np.clip(cx, 0, nx - 1)
    return cy * nx + cx


def grid_cell_yx(cell_id: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    nx = 2 << res
    cell_id = np.asarray(cell_id, dtype=np.int64)
    return cell_id // nx, cell_id % nx


def grid_parent(cell_id: np.ndarray, res: int) -> np.ndarray:
    """Parent cell id one resolution coarser (4 children per parent).

    Exact hierarchy: because the cell step doubles per coarser level
    (``180 / 2**res``, a power-of-two scaling that IEEE-754 preserves
    through division), ``grid_parent(grid_cell_id(lon, lat, res), res)
    == grid_cell_id(lon, lat, res - 1)`` bit-for-bit — the floor-halving
    identity ``floor(t/2) == floor(floor(t)/2)`` plus range clamps that
    commute with the halving.  This is what lets multi-resolution
    rollups aggregate child counts instead of re-scanning the corpus
    (the pyramid-layers idea of the reference,
    ``/root/reference/rios/calcstats.py`` overview levels).
    """
    if res < 1:
        raise ValueError("res 0 has no parent")
    cy, cx = grid_cell_yx(cell_id, res)
    return (cy >> 1) * (2 << (res - 1)) + (cx >> 1)


def grid_children(cell_id: np.ndarray, res: int) -> np.ndarray:
    """The 4 children of each cell one resolution finer — the exact
    inverse of ``grid_parent`` (``grid_parent(grid_children(c, r),
    r + 1) == repeat(c, 4)``).  Returns the children interleaved in
    (dy, dx) row-major order, shape ``(4 * len(cell_id),)``."""
    nxc = 2 << (res + 1)
    cy, cx = grid_cell_yx(cell_id, res)
    base = (2 * cy) * nxc + 2 * cx
    offsets = np.array([0, 1, nxc, nxc + 1], dtype=np.int64)
    return (base[:, None] + offsets[None, :]).reshape(-1)


def grid_cell_ring(cell_id: int, res: int, ring: int) -> np.ndarray:
    """Cell ids at exactly ``ring`` Chebyshev distance from ``cell_id``.

    Ring 0 is the cell itself.  Longitude wraps; latitude clips.  Used
    for kNN candidate generation (the margin/halo trick of the reference
    — ``/root/reference/rios/applier.py:253-268`` — in key space).
    """
    ny = 1 << res
    nx = 2 << res
    cy, cx = int(cell_id) // nx, int(cell_id) % nx
    if ring == 0:
        return np.array([cell_id], dtype=np.int64)
    dy = np.arange(-ring, ring + 1)
    dxs, dys = np.meshgrid(dy, dy)
    mask = (np.abs(dxs) == ring) | (np.abs(dys) == ring)
    yy = cy + dys[mask]
    xx = (cx + dxs[mask]) % nx  # wrap longitude
    keep = (yy >= 0) & (yy < ny)
    return (yy[keep] * nx + xx[keep]).astype(np.int64)


def grid_cells_in_bbox(
    lon_min: float, lon_max: float, lat_min: float, lat_max: float, res: int
) -> np.ndarray:
    """All cell ids whose extent intersects the bbox (no wrapping)."""
    step = grid_cell_step(res)
    ny = 1 << res
    nx = 2 << res
    cy0 = int(np.clip(np.floor((90.0 - lat_max) / step), 0, ny - 1))
    cy1 = int(np.clip(np.floor((90.0 - lat_min) / step), 0, ny - 1))
    cx0 = int(np.clip(np.floor((lon_min + 180.0) / step), 0, nx - 1))
    cx1 = int(np.clip(np.floor((lon_max + 180.0) / step), 0, nx - 1))
    yy, xx = np.meshgrid(np.arange(cy0, cy1 + 1), np.arange(cx0, cx1 + 1), indexing="ij")
    return (yy.ravel() * nx + xx.ravel()).astype(np.int64)


# ---------------------------------------------------------------------------
# s2-style cells (cube face + quadtree Z-order)
# ---------------------------------------------------------------------------

_MORTON_MASKS = (
    (0x0000FFFF0000FFFF, 16),
    (0x00FF00FF00FF00FF, 8),
    (0x0F0F0F0F0F0F0F0F, 4),
    (0x3333333333333333, 2),
    (0x5555555555555555, 1),
)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v so bit k moves to bit 2k (vectorized)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def morton_interleave(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Z-order index: bits of i at even positions, j at odd."""
    return _spread_bits(i) | (_spread_bits(j) << np.uint64(1))


def _uv_to_st(u: np.ndarray) -> np.ndarray:
    """S2's quadratic projection, [-1,1] -> [0,1] (public S2 geometry docs)."""
    return np.where(
        u >= 0.0,
        0.5 * np.sqrt(np.maximum(1.0 + 3.0 * u, 0.0)),
        1.0 - 0.5 * np.sqrt(np.maximum(1.0 - 3.0 * u, 0.0)),
    )


def s2_cell_id(lon: np.ndarray, lat: np.ndarray, level: int = 12) -> np.ndarray:
    """S2-style cell id: ``(face << 2*level) | morton(i, j)``.

    lat/lon (degrees) -> unit-sphere xyz -> dominant-axis cube face
    (0..5: +x,+y,+z,-x,-y,-z) -> face-local (u,v) -> quadratic (s,t) ->
    (i,j) at ``level`` -> Z-order position.  Hierarchy: the level-(L-1)
    parent of a cell is ``face_part | (pos >> 2)``.
    """
    lon = np.radians(np.asarray(lon, dtype=np.float64))
    lat = np.radians(np.asarray(lat, dtype=np.float64))
    x = np.cos(lat) * np.cos(lon)
    y = np.cos(lat) * np.sin(lon)
    z = np.sin(lat)
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    # dominant axis
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x >= 0, 0, 3),
        np.where(ay >= az, np.where(y >= 0, 1, 4), np.where(z >= 0, 2, 5)),
    ).astype(np.int64)
    # face-local (u, v): same layout as S2's face coordinate frames
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.select(
            [face == 0, face == 1, face == 2, face == 3, face == 4],
            [y / x, -x / y, -x / z, -z / x, -z / y],
            default=y / z,
        )
        v = np.select(
            [face == 0, face == 1, face == 2, face == 3, face == 4],
            [z / x, z / y, y / z, y / x, -x / y],
            default=-x / z,
        )
    n = 1 << level
    with np.errstate(invalid="ignore"):  # NaN rows, as in grid_cell_id
        i = np.clip(np.floor(_uv_to_st(u) * n), 0, n - 1).astype(np.uint64)
        j = np.clip(np.floor(_uv_to_st(v) * n), 0, n - 1).astype(np.uint64)
    pos = morton_interleave(i, j)
    return ((face.astype(np.uint64) << np.uint64(2 * level)) | pos).view(np.int64)


def s2_parent(cell_id: np.ndarray, level: int, parent_level: int) -> np.ndarray:
    """Parent cell id at a coarser level (face bits preserved)."""
    cell_id = np.asarray(cell_id, dtype=np.int64).astype(np.uint64)
    face = cell_id >> np.uint64(2 * level)
    pos = cell_id & ((np.uint64(1) << np.uint64(2 * level)) - np.uint64(1))
    pos >>= np.uint64(2 * (level - parent_level))
    return ((face << np.uint64(2 * parent_level)) | pos).view(np.int64)


# ---------------------------------------------------------------------------
# hex cells (h3-style axial binning, aperture sqrt(7) per res step)
# ---------------------------------------------------------------------------

_HEX_BASE_SIZE = 10.0  # degrees at res 0
_SQRT3 = np.sqrt(3.0)
_HEX_OFF = 1 << 27  # axial coordinate offset for packing


def hex_size(res: int) -> float:
    """Hex circumradius in degrees at ``res``: 10 / sqrt(7)**res.

    Matches H3's aperture-7 area shrink per resolution step (each res
    has 1/7 the cell area of the previous).
    """
    return _HEX_BASE_SIZE * (7.0 ** (-res / 2.0))


def _axial_round(qf: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cube-round fractional axial coords to the containing hex (standard
    cube-rounding algorithm from public hex-grid references)."""
    xf, zf = qf, rf
    yf = -xf - zf
    rx = round_away_vec(xf)
    ry = round_away_vec(yf)
    rz = round_away_vec(zf)
    dx = np.abs(rx - xf)
    dy = np.abs(ry - yf)
    dz = np.abs(rz - zf)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    with np.errstate(invalid="ignore"):  # NaN rows, as in grid_cell_id
        return rx.astype(np.int64), rz.astype(np.int64)


def hex_cell_id(lon: np.ndarray, lat: np.ndarray, res: int = 8) -> np.ndarray:
    """H3-style hex cell id on the lon/lat plane (pointy-top axial grid).

    Packs ``(res << 56) | (q + 2**27) << 28 | (r + 2**27)``; q/r are
    bounded well inside 28 bits for res <= 15.
    """
    size = hex_size(res)
    x = np.asarray(lon, dtype=np.float64)
    y = np.asarray(lat, dtype=np.float64)
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    q, r = _axial_round(qf, rf)
    return (
        (np.int64(res) << np.int64(56))
        | ((q + _HEX_OFF) << np.int64(28))
        | (r + _HEX_OFF)
    )


def hex_cell_qr(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack (res, q, r) from a hex cell id."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    res = cell_id >> np.int64(56)
    q = ((cell_id >> np.int64(28)) & np.int64((1 << 28) - 1)) - _HEX_OFF
    r = (cell_id & np.int64((1 << 28) - 1)) - _HEX_OFF
    return res, q, r


def hex_cell_center(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) center of a hex cell."""
    res, q, r = hex_cell_qr(cell_id)
    size = np.array([hex_size(int(rr)) for rr in np.atleast_1d(res)], dtype=np.float64)
    size = size.reshape(np.shape(res)) if np.shape(res) else size[0]
    lat = 1.5 * r * size
    lon = _SQRT3 * (q + r / 2.0) * size
    return lon, lat


def hex_ring(cell_id: int, ring: int) -> np.ndarray:
    """Hex cells at exactly ``ring`` hex-distance (H3 kRing shell analogue)."""
    res, q, r = hex_cell_qr(np.asarray([cell_id]))
    res, q, r = int(res[0]), int(q[0]), int(r[0])
    if ring == 0:
        return np.array([cell_id], dtype=np.int64)
    dirs = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    out = []
    cq, cr = q + dirs[4][0] * ring, r + dirs[4][1] * ring
    for d in range(6):
        for _ in range(ring):
            out.append((cq, cr))
            cq += dirs[d][0]
            cr += dirs[d][1]
    qs = np.array([o[0] for o in out], dtype=np.int64)
    rs = np.array([o[1] for o in out], dtype=np.int64)
    return (np.int64(res) << np.int64(56)) | ((qs + _HEX_OFF) << np.int64(28)) | (rs + _HEX_OFF)
