"""Broadcast spatial-join primitives: polygon index, point-in-polygon, kNN.

The reference joins vectors to rasters by rasterizing polygons once per
process (``/root/reference/rios/structures.py:1062-1096`` RasterizationMgr,
``imagereader.py:195-276``) and comparing per-pixel masks.  Here the
same shape becomes a **broadcast join**: the polygon layer (small side)
is indexed once per worker — a grid-bucket bbox index standing in for an
STRtree (shapely is not in the environment) — and each Arrow batch of
points is refined with an exact, vectorized ray-casting test.

kNN has no reference counterpart; it reuses the reference's margin/halo
trick (``applier.py:253-268``: compute with a halo, trim) in key space:
candidates are gathered from expanding cell rings until the k-th best
distance is certified by the ring's geometric lower bound.

Float semantics are chosen to be exactly reproducible in the DuckDB
oracle SQL: the crossing test is
``((y1 > py) != (y2 > py)) AND px < (x2 - x1) * (py - y1) / (y2 - y1) + x1``
evaluated in float64 in that exact order on both sides.
"""

from __future__ import annotations

import numpy as np

from . import cells

DEFAULT_INDEX_RES = 5  # 5.625-degree buckets for the polygon bbox index


class PolygonIndex:
    """Grid-bucket bbox index over a polygon layer (STRtree substitute).

    Built once per worker from the broadcast polygon table (arrays of
    closed rings).  ``bucket -> candidate polygon ids`` via each
    polygon's bbox cells at ``index_res``; candidates are refined with
    exact ray casting.  Build cost is O(total bbox cells); lookup is
    O(points x candidate edges) fully vectorized.
    """

    def __init__(
        self,
        poly_ids: np.ndarray,
        rings: list[np.ndarray],
        index_res: int = DEFAULT_INDEX_RES,
    ):
        self.index_res = index_res
        self.poly_ids = np.asarray(poly_ids, dtype=np.int64)
        # flatten ring coordinates into edge arrays, sliced per polygon
        x1l, y1l, x2l, y2l, eid = [], [], [], [], []
        self.bbox = np.empty((len(rings), 4), dtype=np.float64)
        for k, ring in enumerate(rings):
            ring = np.asarray(ring, dtype=np.float64)
            x1l.append(ring[:-1, 0])
            y1l.append(ring[:-1, 1])
            x2l.append(ring[1:, 0])
            y2l.append(ring[1:, 1])
            eid.append(np.full(len(ring) - 1, k, dtype=np.int64))
            self.bbox[k] = (
                ring[:, 0].min(),
                ring[:, 0].max(),
                ring[:, 1].min(),
                ring[:, 1].max(),
            )
        self.ex1 = np.concatenate(x1l)
        self.ey1 = np.concatenate(y1l)
        self.ex2 = np.concatenate(x2l)
        self.ey2 = np.concatenate(y2l)
        self.epoly = np.concatenate(eid)  # local polygon index per edge
        # edges are concatenated in polygon order: polygon k's edges are
        # the contiguous slice [estart[k], estart[k+1]) — O(1) lookup
        # instead of an O(total_edges) mask scan per candidate
        self.estart = np.concatenate(
            [[0], np.cumsum([len(r) - 1 for r in rings])]
        ).astype(np.int64)
        # bucket -> local polygon index list
        self.buckets: dict[int, np.ndarray] = {}
        tmp: dict[int, list[int]] = {}
        for k in range(len(rings)):
            for cid in cells.grid_cells_in_bbox(*self.bbox[k], index_res):
                tmp.setdefault(int(cid), []).append(k)
        self.buckets = {c: np.array(v, dtype=np.int64) for c, v in tmp.items()}
        # CSR view of the bucket map for the vectorized lookup:
        # _bcells (sorted) -> _bpolys[_bstart[i]:_bstart[i+1]]
        bc = np.sort(np.fromiter(self.buckets.keys(), dtype=np.int64,
                                 count=len(self.buckets)))
        self._bcells = bc
        lens = np.array([len(self.buckets[int(c)]) for c in bc], dtype=np.int64)
        self._bstart = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        self._bpolys = (
            np.concatenate([self.buckets[int(c)] for c in bc])
            if len(bc) else np.empty(0, dtype=np.int64)
        )

    @classmethod
    def from_arrow(cls, polys, index_res: int = DEFAULT_INDEX_RES) -> "PolygonIndex":
        """Build from the polygon Arrow table (poly_id, ring_xy, ...)."""
        ids = polys["poly_id"].to_numpy(zero_copy_only=False)
        rings = [np.asarray(r, dtype=np.float64) for r in polys["ring_xy"].to_pylist()]
        return cls(ids, rings, index_res)

    # -- exact refine ------------------------------------------------------
    def _crossings(self, px: np.ndarray, py: np.ndarray, edge_sel) -> np.ndarray:
        """Ray-cast crossing counts: points x selected edges -> (n, n_edges) bool.

        ``edge_sel`` may be an index array or a slice (zero-copy view)."""
        x1 = self.ex1[edge_sel][None, :]
        y1 = self.ey1[edge_sel][None, :]
        x2 = self.ex2[edge_sel][None, :]
        y2 = self.ey2[edge_sel][None, :]
        pyc = py[:, None]
        pxc = px[:, None]
        straddle = (y1 > pyc) != (y2 > pyc)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x2 - x1) * (pyc - y1) / (y2 - y1) + x1
        return straddle & (pxc < xint)

    def contains(self, lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (point_index, poly_id) containment pairs for a point batch.

        Returns two int64 arrays (row index into the input batch, polygon
        id).  A point inside k polygons yields k pairs — inner-join
        semantics, matching the oracle SQL's odd-crossings GROUP BY.
        """
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        n = len(lon)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if n == 0 or not len(self._bcells):
            return empty
        cell = cells.grid_cell_id(lon, lat, self.index_res)

        # --- point -> candidate-polygon pairs (CSR gather, no loop) ---
        pos = np.searchsorted(self._bcells, cell)
        pos_c = np.minimum(pos, len(self._bcells) - 1)
        hit = self._bcells[pos_c] == cell
        cnt = np.where(hit, self._bstart[pos_c + 1] - self._bstart[pos_c], 0)
        total = int(cnt.sum())
        if total == 0:
            return empty
        pt = np.repeat(np.arange(n, dtype=np.int64), cnt)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        poly_k = self._bpolys[np.repeat(self._bstart[pos_c], cnt) + within]

        # --- bbox prefilter over pairs ---
        bb = self.bbox[poly_k]
        px, py = lon[pt], lat[pt]
        m = (px >= bb[:, 0]) & (px <= bb[:, 1]) & (py >= bb[:, 2]) & (py <= bb[:, 3])
        pt, poly_k, px, py = pt[m], poly_k[m], px[m], py[m]
        if not len(pt):
            return empty

        # --- exact ray cast: pair -> edge expansion, one vector pass ---
        ecnt = self.estart[poly_k + 1] - self.estart[poly_k]
        etotal = int(ecnt.sum())
        pair = np.repeat(np.arange(len(pt), dtype=np.int64), ecnt)
        ewithin = np.arange(etotal, dtype=np.int64) - np.repeat(
            np.cumsum(ecnt) - ecnt, ecnt
        )
        eidx = np.repeat(self.estart[poly_k], ecnt) + ewithin
        x1, y1 = self.ex1[eidx], self.ey1[eidx]
        x2, y2 = self.ex2[eidx], self.ey2[eidx]
        pye, pxe = py[pair], px[pair]
        straddle = (y1 > pye) != (y2 > pye)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x2 - x1) * (pye - y1) / (y2 - y1) + x1
        cross = straddle & (pxe < xint)
        crossings = np.bincount(pair, weights=cross, minlength=len(pt)).astype(np.int64)
        inside = (crossings % 2) == 1
        return pt[inside], self.poly_ids[poly_k[inside]]


# ---------------------------------------------------------------------------
# kNN via expanding cell rings + exact refine
# ---------------------------------------------------------------------------


class CellPointIndex:
    """cell id -> point rows, for ring-expanding kNN candidate generation.

    Built once (per worker for broadcast kNN, or on the driver for the
    small query side).  Distances are plain Euclidean in degrees —
    deterministic and matched exactly by the oracle SQL expression
    ``(lon-qlon)*(lon-qlon) + (lat-qlat)*(lat-qlat)``.
    """

    def __init__(self, lon: np.ndarray, lat: np.ndarray, res: int, payload: np.ndarray | None = None):
        self.res = res
        self.lon = np.asarray(lon, dtype=np.float64)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.payload = payload if payload is not None else np.arange(len(self.lon))
        cell = cells.grid_cell_id(self.lon, self.lat, res)
        order = np.argsort(cell, kind="stable")
        self.order = order
        cs = cell[order]
        bounds = np.flatnonzero(np.diff(cs)) + 1
        starts = np.concatenate([[0], bounds]).astype(np.int64)
        self.cell_starts = {
            int(cs[s]): (int(s), int(e))
            for s, e in zip(starts, np.concatenate([bounds, [len(cs)]]).astype(np.int64))
        }

    def rows_in_cells(self, cell_ids: np.ndarray) -> np.ndarray:
        """Row indices (into the original arrays) for a set of cells."""
        chunks = []
        for c in cell_ids:
            se = self.cell_starts.get(int(c))
            if se is not None:
                chunks.append(self.order[se[0] : se[1]])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def knn(self, qlon: float, qlat: float, k: int, max_ring: int = 64) -> tuple[np.ndarray, np.ndarray]:
        """Exact k nearest points to (qlon, qlat).

        Expands Chebyshev cell rings; stops when the k-th best squared
        distance is <= the squared geometric lower bound of the next
        unexplored ring (``(ring) * step`` degrees), which certifies
        exactness.  Ties broken by (distance, payload) ascending for
        determinism — the oracle orders by the same pair.
        """
        step = cells.grid_cell_step(self.res)
        center = int(cells.grid_cell_id(np.array([qlon]), np.array([qlat]), self.res)[0])
        cand_rows: list[np.ndarray] = []
        n_cand = 0
        ring = 0
        best: tuple[np.ndarray, np.ndarray] | None = None  # (d2 sorted, payload sorted)
        while ring <= max_ring:
            rows = self.rows_in_cells(cells.grid_cell_ring(center, self.res, ring))
            if len(rows):
                cand_rows.append(rows)
                n_cand += len(rows)
            # certification: once we have k candidates, the next ring's
            # points are at least (ring) * step away from q (the current
            # ring's outer boundary), so stop when kth_d2 <= that bound².
            if n_cand >= k:
                allr = np.concatenate(cand_rows)
                dx = self.lon[allr] - qlon
                dy = self.lat[allr] - qlat
                d2 = dx * dx + dy * dy
                sel = np.lexsort((self.payload[allr], d2))[:k]
                kth = d2[sel[-1]]
                bound = ring * step
                # strict < so an equidistant point in the next ring can
                # never be missed (ties then resolve by payload order)
                if kth < bound * bound:
                    return d2[sel], self.payload[allr][sel]
                best = (d2[sel], self.payload[allr][sel])
            ring += 1
        if best is not None:
            return best
        return np.empty(0), np.empty(0, dtype=self.payload.dtype)


def supercover_cells(
    c0: np.ndarray, r0: np.ndarray, c1: np.ndarray, r1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All integer grid cells (row, col) each segment passes through.

    Segments are given in CONTINUOUS cell coordinates ((c, r) =
    (column, row), cell (i, j) spanning [j, j+1) x [i, i+1)), and the
    kernel is vectorized over the whole segment batch: grid-line
    crossing parameters are generated flat (repeat/cumsum offsets, no
    per-segment Python), sorted once with a single lexsort, and each
    cell is read off at the midpoint between consecutive crossings —
    exactly the cells whose interior the segment enters (the
    "supercover" of the segment).  A point exactly ON a grid line
    belongs to its floor() side (right/below), so a segment lying on a
    line burns that side only, and each endpoint's floor() cell is
    always emitted, even when the segment only touches it — a
    deterministic tie rule documented in lieu of GDAL's half-open edge
    conventions (the reference delegates to GDAL ALL_TOUCHED,
    /root/reference/rios/applier.py:713-728).

    Returns ``(seg_idx, rows, cols)`` int64 arrays; duplicates are
    possible where a segment passes within float epsilon of a corner —
    callers dedupe after composing flat pixel indices.
    """
    c0 = np.asarray(c0, dtype=np.float64)
    r0 = np.asarray(r0, dtype=np.float64)
    c1 = np.asarray(c1, dtype=np.float64)
    r1 = np.asarray(r1, dtype=np.float64)
    n = len(c0)
    empty = (np.empty(0, np.int64),) * 3
    if n == 0:
        return empty
    dc, dr = c1 - c0, r1 - r0
    # integer grid lines STRICTLY inside each extent (endpoints are the
    # t=0/1 entries); extents flat on a line contribute none (dc==0 ->
    # floor(cmax) - (floor(cmin)+1) + 1 <= 0)
    cmin, cmax = np.minimum(c0, c1), np.maximum(c0, c1)
    rmin, rmax = np.minimum(r0, r1), np.maximum(r0, r1)
    kc0 = np.floor(cmin) + 1.0
    kr0 = np.floor(rmin) + 1.0
    nx = np.maximum(np.floor(cmax) - kc0 + 1.0, 0.0).astype(np.int64)
    ny = np.maximum(np.floor(rmax) - kr0 + 1.0, 0.0).astype(np.int64)
    nx[dc == 0.0] = 0
    ny[dr == 0.0] = 0

    n_t = 2 + nx + ny
    off = np.concatenate([[0], np.cumsum(n_t)]).astype(np.int64)
    total = int(off[-1])
    t = np.empty(total, dtype=np.float64)
    seg = np.repeat(np.arange(n, dtype=np.int64), n_t)
    t[off[:-1]] = 0.0
    t[off[:-1] + 1] = 1.0

    def fill(base_pos, counts, k_first, p0, dp):
        tot = int(counts.sum())
        if not tot:
            return
        within = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        pos = np.repeat(base_pos, counts) + within
        ks = np.repeat(k_first, counts) + within
        t[pos] = (ks - np.repeat(p0, counts)) / np.repeat(dp, counts)

    fill(off[:-1] + 2, nx, kc0, c0, dc)
    fill(off[:-1] + 2 + nx, ny, kr0, r0, dr)
    np.clip(t, 0.0, 1.0, out=t)

    order = np.lexsort((t, seg))
    t_s = t[order]
    # midpoints of consecutive crossing intervals within each segment
    last = off[1:] - 1  # last slot of each segment after the stable sort
    keep = np.ones(total, dtype=bool)
    keep[last] = False
    i = np.flatnonzero(keep)
    tm = 0.5 * (t_s[i] + t_s[i + 1])
    sm = seg[i]  # seg is already grouped ascending; lexsort keeps groups
    # a grid line through an endpoint leaves a zero-length interval at
    # t=1 (or t=0); read that cell off the exact endpoint, since
    # c0 + 1.0 * dc can round below an on-line c1 and lose its cell
    at_end = tm == 1.0
    col = np.floor(np.where(at_end, c1[sm], c0[sm] + tm * dc[sm])).astype(np.int64)
    row = np.floor(np.where(at_end, r1[sm], r0[sm] + tm * dr[sm])).astype(np.int64)
    return sm, row, col
