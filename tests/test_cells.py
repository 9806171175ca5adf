"""Cell-index goldens: DuckDB SQL parity for grid cells (the same
expression the correctness oracle uses), independent property checks for
s2-style and hex cells."""

import duckdb
import numpy as np
import pyarrow as pa

from rios_ray import cells


def _rand_lonlat(n=20000, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)


def test_grid_cell_sql_parity():
    lon, lat = _rand_lonlat()
    for res in (4, 6, 8):
        ours = cells.grid_cell_id(lon, lat, res)
        step = cells.grid_cell_step(res)
        ny, nx = 1 << res, 2 << res
        con = duckdb.connect()
        con.register("pts", pa.table({"lon": lon, "lat": lat}))
        sql = f"""
            SELECT LEAST(GREATEST(CAST(floor((90.0 - lat) / {step!r}) AS BIGINT), 0), {ny - 1})
                     * {nx}
                 + LEAST(GREATEST(CAST(floor((lon + 180.0) / {step!r}) AS BIGINT), 0), {nx - 1})
              AS cell FROM pts
        """
        theirs = con.sql(sql).fetchnumpy()["cell"]
        np.testing.assert_array_equal(ours, theirs)


def test_grid_cell_edges_clamped():
    lon = np.array([-180.0, 180.0, 0.0])
    lat = np.array([90.0, -90.0, 0.0])
    for res in (2, 6):
        ids = cells.grid_cell_id(lon, lat, res)
        ny, nx = 1 << res, 2 << res
        cy, cx = cells.grid_cell_yx(ids, res)
        assert ((cy >= 0) & (cy < ny)).all()
        assert ((cx >= 0) & (cx < nx)).all()


def test_grid_ring():
    res = 6
    nx = 2 << res
    cid = int(cells.grid_cell_id(np.array([0.0]), np.array([0.0]), res)[0])
    r0 = cells.grid_cell_ring(cid, res, 0)
    assert list(r0) == [cid]
    r1 = cells.grid_cell_ring(cid, res, 1)
    assert len(r1) == 8 and cid not in r1
    r2 = cells.grid_cell_ring(cid, res, 2)
    assert len(r2) == 16
    # longitude wrap: cell at lon=-179.9 has ring-1 neighbors across the seam
    cid_seam = int(cells.grid_cell_id(np.array([-179.99]), np.array([0.0]), res)[0])
    ring = cells.grid_cell_ring(cid_seam, res, 1)
    assert len(ring) == 8
    cx = ring % nx
    assert (cx == nx - 1).any()  # wrapped to the east edge


def test_grid_cells_in_bbox():
    res = 6
    got = cells.grid_cells_in_bbox(-1.0, 1.0, -1.0, 1.0, res)
    lon, lat = _rand_lonlat(5000, seed=3)
    inside = (lon >= -1) & (lon <= 1) & (lat >= -1) & (lat <= 1)
    pts = cells.grid_cell_id(lon[inside], lat[inside], res)
    assert set(pts).issubset(set(got))


def test_s2_hierarchy_and_determinism():
    lon, lat = _rand_lonlat()
    level = 12
    c12 = cells.s2_cell_id(lon, lat, level)
    c11_direct = cells.s2_cell_id(lon, lat, level - 1)
    c11_parent = cells.s2_parent(c12, level, level - 1)
    np.testing.assert_array_equal(c11_direct, c11_parent)
    # deterministic
    np.testing.assert_array_equal(c12, cells.s2_cell_id(lon, lat, level))
    # all six faces hit on a global sample
    faces = np.unique(np.asarray(c12).astype(np.uint64) >> np.uint64(2 * level))
    assert len(faces) == 6
    # locality: points within 0.01 deg share a level-8 parent almost always
    rng = np.random.default_rng(7)
    lon0 = rng.uniform(-170, 170, 2000)
    lat0 = rng.uniform(-80, 80, 2000)
    a = cells.s2_cell_id(lon0, lat0, 8)
    b = cells.s2_cell_id(lon0 + 1e-6, lat0 + 1e-6, 8)
    assert (a == b).mean() > 0.99


def test_morton_interleave():
    i = np.array([0b1010, 0b1111, 0], dtype=np.uint64)
    j = np.array([0b0101, 0b0000, 0], dtype=np.uint64)
    got = cells.morton_interleave(i, j)
    # bit k of i -> bit 2k; bit k of j -> bit 2k+1
    want = []
    for a, b in zip(i, j):
        v = 0
        for k in range(16):
            v |= ((int(a) >> k) & 1) << (2 * k)
            v |= ((int(b) >> k) & 1) << (2 * k + 1)
        want.append(v)
    np.testing.assert_array_equal(got.astype(np.int64), want)


def test_hex_roundtrip_nearest_center():
    """A point's assigned hex center must be the nearest hex center —
    cube rounding == Voronoi of the hex lattice (independent oracle)."""
    rng = np.random.default_rng(5)
    lon = rng.uniform(-60, 60, 3000)
    lat = rng.uniform(-60, 60, 3000)
    for res in (7, 8, 9):
        cid = cells.hex_cell_id(lon, lat, res)
        clon, clat = cells.hex_cell_center(cid)
        d_own = np.hypot(lon - clon, lat - clat)
        # distance to every ring-1 neighbor center must be >= own (tolerance for ties)
        for k in range(len(lon)):
            neigh = cells.hex_ring(int(cid[k]), 1)
            nlon, nlat = cells.hex_cell_center(neigh)
            d_n = np.hypot(lon[k] - nlon, lat[k] - nlat)
            assert d_own[k] <= d_n.min() + 1e-9


def test_hex_center_reindexes_to_self():
    rng = np.random.default_rng(6)
    lon = rng.uniform(-170, 170, 2000)
    lat = rng.uniform(-80, 80, 2000)
    for res in (7, 8, 9):
        cid = cells.hex_cell_id(lon, lat, res)
        clon, clat = cells.hex_cell_center(cid)
        cid2 = cells.hex_cell_id(clon, clat, res)
        np.testing.assert_array_equal(cid, cid2)


def test_hex_ring_sizes():
    cid = int(cells.hex_cell_id(np.array([10.0]), np.array([20.0]), 8)[0])
    assert len(cells.hex_ring(cid, 0)) == 1
    assert len(cells.hex_ring(cid, 1)) == 6
    assert len(cells.hex_ring(cid, 3)) == 18
    assert cid not in set(cells.hex_ring(cid, 1).tolist())


def test_hex_aperture7_area_scaling():
    """Each res step shrinks cells by ~7x in area: count distinct cells
    on a fixed uniform sample grows ~7x per res (coarse statistical check)."""
    rng = np.random.default_rng(8)
    lon = rng.uniform(-50, 50, 40000)
    lat = rng.uniform(-50, 50, 40000)
    n1 = len(np.unique(cells.hex_cell_id(lon, lat, 1)))
    n2 = len(np.unique(cells.hex_cell_id(lon, lat, 2)))
    assert 4.0 < n2 / n1 < 10.0


def test_nan_coordinates_cast_without_warning():
    """A tokenless page has NaN lon/lat; its id is masked to NULL later,
    so the cell kernels must not warn on the cast."""
    import warnings

    lon, lat = np.array([np.nan, 10.0]), np.array([np.nan, 20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (cells.grid_cell_id, cells.s2_cell_id, cells.hex_cell_id):
            assert len(f(lon, lat, 7)) == 2
