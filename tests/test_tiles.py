"""Pyramid decimation goldens (testpyramids.py analogue: strided
``arr[o::lvl, o::lvl]``) and point->raster bridge vs histogram2d."""

import numpy as np
import pyarrow as pa
import pytest

from rios_ray import synth, tiles
from rios_ray.gridmodel import PixelGrid


def test_overview_levels_rule():
    assert tiles.overview_levels(500, 500) == []  # 500//4=125 < 128
    assert tiles.overview_levels(2048, 2048) == [4, 8, 16]
    assert tiles.overview_levels(100000, 100000) == [4, 8, 16, 32, 64, 128, 256, 512]


def _overview_from_rows(rows, lvl, shape):
    """Reassemble one overview level; every pixel must be written once."""
    o = lvl // 2
    want_shape = tuple(len(range(o, n, lvl)) for n in shape)
    got = np.full(want_shape, -1, dtype=np.int64)
    for r in rows:
        if r["level"] != lvl:
            continue
        win = got[r["top"] : r["top"] + r["nrows"], r["left"] : r["left"] + r["ncols"]]
        assert (win == -1).all(), "overview pixel written twice"
        win[...] = np.asarray(r["data"]).reshape(r["nrows"], r["ncols"])
    return got


def test_decimate_matches_strided_golden(ray_session):
    """Image-global phase: ``a[o::lvl, o::lvl]``, also for blocks that
    are not multiples of the level and for a level larger than the block."""
    import ray.data

    ramp = synth.gen_ramp_array()
    for block in (256, 100):
        ds = ray.data.from_arrow(synth.raster_to_tile_table(ramp, block=block))
        for lvl in (4, 8, 512):
            dec = ds.map_batches(
                lambda b, lvl=lvl: tiles.decimate_tile_batch(b, lvl, np.uint8),
                batch_format="pyarrow",
            )
            o = lvl // 2
            np.testing.assert_array_equal(
                _overview_from_rows(dec.take_all(), lvl, ramp.shape),
                ramp[o::lvl, o::lvl],
            )


@pytest.mark.parametrize("window", [256, 100])
def test_applier_overviews_match_strided_golden(ray_session, tmp_path, window):
    """The applier's in-task overviews of a 1000x1000 uint16 raster equal
    the global golden at every level, including a level (512) larger
    than the block and windows that are not multiples of the level."""
    import pyarrow.parquet as pq

    from rios_ray.applier import ApplierControls, apply
    from rios_ray.sources.tileraster import TileRasterInfo, write_tile_raster

    a = np.random.default_rng(5).integers(0, 60000, (1000, 1000), dtype=np.uint16)
    grid = PixelGrid(0.0, 1000.0, 0.0, 1000.0, 1.0, 1.0, "EPSG:28355")
    src = write_tile_raster(str(tmp_path / "src.parquet"),
                            synth.raster_to_tile_table(a, x_left=0.0, y_top=1000.0),
                            grid, 1, np.uint16)
    controls = ApplierControls()
    controls.setCalcStats(False)
    controls.setWindowSize(window, window)
    controls.setOverviewLevels([4, 8, 512])
    controls.setOverviewMinDim(1)

    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    out = str(tmp_path / "out.parquet")
    info = apply(ident, {"img": src}, {"out": out}, controls=controls,
                 out_dir=str(tmp_path)).out_infos["out"]
    assert isinstance(info, TileRasterInfo)
    rows = pq.read_table(out + ".ovr").to_pylist()
    for lvl in (4, 8, 512):
        o = lvl // 2
        np.testing.assert_array_equal(_overview_from_rows(rows, lvl, a.shape),
                                      a[o::lvl, o::lvl])


def test_points_to_raster_matches_histogram2d(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    lon = rng.uniform(-10, 10, 20000)
    lat = rng.uniform(-5, 5, 20000)
    grid = PixelGrid(-10.0, 10.0, -5.0, 5.0, 0.1, 0.1)
    nrows, ncols = grid.dimensions()
    ds = ray.data.from_arrow(pa.table({"lon": lon, "lat": lat}))
    out = tiles.points_to_raster(ds, grid, block_ysize=64, block_xsize=64)
    rows = out.take_all()
    got = np.zeros((nrows, ncols))
    for r in rows:
        got[r["top"] : r["top"] + r["nrows"], r["left"] : r["left"] + r["ncols"]] = np.asarray(
            r["data"]
        ).reshape(r["nrows"], r["ncols"])
    # independent oracle: numpy histogram2d on the same binning
    row_idx = np.floor((5.0 - lat) / 0.1).astype(int)
    col_idx = np.floor((lon + 10.0) / 0.1).astype(int)
    ok = (row_idx >= 0) & (row_idx < nrows) & (col_idx >= 0) & (col_idx < ncols)
    want = np.zeros((nrows, ncols))
    np.add.at(want, (row_idx[ok], col_idx[ok]), 1.0)
    np.testing.assert_array_equal(got, want)
    assert got.sum() == ok.sum()
