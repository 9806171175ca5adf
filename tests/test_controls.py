"""Expanded ApplierControls surface (reference applier.py:59-858):
every setter the reference exposes either drives real engine behavior
(checked here) or is accepted-and-recorded with documented semantics."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rios_ray import synth
from rios_ray.applier import ApplierControls, VectorInput, apply
from rios_ray.gridmodel import PixelGrid
from rios_ray.sources.tileraster import (
    TileRasterInfo,
    read_stats_sidecar,
    write_tile_raster,
)


def _grid() -> PixelGrid:
    return PixelGrid(
        500000.0, 505000.0, 6995000.0, 7000000.0, 10.0, 10.0, "EPSG:28355"
    )


@pytest.fixture(scope="module")
def ramp(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("ctl")
    arr = synth.gen_ramp_array()
    ti = write_tile_raster(
        str(root / "ramp.parquet"), synth.raster_to_tile_table(arr),
        _grid(), 1, np.uint8
    )
    return {"ti": ti, "arr": arr, "root": root}


def _read_back(path):
    info = TileRasterInfo.read(path)
    t = pq.read_table(path)
    nrows, ncols = info.grid.dimensions()
    return synth.tile_table_to_raster(t, info.nbands, nrows, ncols, info.np_dtype)


def _make_ident():
    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    return ident


def test_window_size_and_reference_image_alias(ramp, tmp_path):
    controls = ApplierControls()
    controls.setWindowSize(128, 64)
    assert (controls.window_xsize, controls.window_ysize) == (128, 64)
    controls.setReferenceImage("img")
    assert controls.reference == "img"
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    out = str(tmp_path / "o.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    assert np.array_equal(_read_back(out)[0], ramp["arr"])


def test_tempdir_is_default_out_dir(ramp, tmp_path):
    controls = ApplierControls()
    controls.setTempdir(str(tmp_path))
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    out = str(tmp_path / "o.parquet")
    # no out_dir passed: scratch dirs must land under tempdir
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls)
    assert np.array_equal(_read_back(out)[0], ramp["arr"])


def test_files_for_extent(ramp, tmp_path):
    """Only the named inputs fold the footprint: with a shifted second
    input excluded from the extent, the working grid equals the first
    input's grid (reference applier.py:336-348)."""
    arr = ramp["arr"]
    g2 = PixelGrid(
        501000.0, 506000.0, 6994000.0, 6999000.0, 10.0, 10.0, "EPSG:28355"
    )
    ti2 = write_tile_raster(
        str(tmp_path / "shift.parquet"),
        synth.raster_to_tile_table(arr, x_left=501000.0, y_top=6999000.0),
        g2, 1, np.uint8,
    )

    def two(info, inputs, outputs):
        outputs.out = inputs.img

    controls = ApplierControls()
    controls.setFilesForExtent(["img"])
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    out = str(tmp_path / "o.parquet")
    rtn = apply(two, {"img": ramp["ti"], "img2": ti2}, {"out": out},
                controls=controls, out_dir=str(tmp_path))
    assert rtn.working_grid == ramp["ti"].grid


def test_input_nodata_override(ramp, tmp_path):
    """setInputNoDataValue changes the fill used where an input has no
    block (shift one input so a corner is uncovered)."""
    g_big = PixelGrid(
        499000.0, 505000.0, 6995000.0, 7001000.0, 10.0, 10.0, "EPSG:28355"
    )

    def copy2(info, inputs, outputs):
        outputs.out = inputs.img

    from rios_ray.gridmodel import BOUNDS_FROM_REFERENCE

    controls = ApplierControls()
    controls.setReferencePixgrid(g_big)
    controls.setFootprintType(BOUNDS_FROM_REFERENCE)
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    controls.setInputNoDataValue(7, "img")
    out = str(tmp_path / "o.parquet")
    apply(copy2, {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    got = _read_back(out)[0]
    # the uncovered ring is filled with 7, the covered region is intact
    assert (got[:100, :100] == 7).all()
    assert np.array_equal(got[100:, 100:], ramp["arr"][:500, :500])


def test_layer_names_and_creation_options(ramp, tmp_path, monkeypatch):
    controls = ApplierControls()
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    controls.setLayerNames(["elevation"], "out")
    controls.setCreationOptions({"compression": "zstd"}, "out")
    out = str(tmp_path / "o.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    info = TileRasterInfo.read(out)
    assert info.layer_names == ["elevation"]
    # the written parquet really is zstd-compressed
    frag = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")]
    meta = pq.ParquetFile(frag[0]).metadata
    assert meta.row_group(0).column(0).compression.lower() == "zstd"

    # env default path (reference const.py:49-95)
    monkeypatch.setenv("RIOS_DFLT_CREOPT_PARQUET", "compression=lz4")
    controls2 = ApplierControls()
    controls2.setCalcStats(False)
    controls2.setOmitPyramids(True)
    out2 = str(tmp_path / "o2.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out2}, controls=controls2,
          out_dir=str(tmp_path))
    frag2 = [os.path.join(out2, f) for f in os.listdir(out2) if f.endswith(".parquet")]
    comp2 = pq.ParquetFile(frag2[0]).metadata.row_group(0).column(0).compression
    assert comp2.lower() == "lz4"

    with pytest.raises(ValueError, match="parquet"):
        ApplierControls().setOutputDriverName("GTiff")


def test_pyramids_default_and_omit(ramp, tmp_path):
    controls = ApplierControls()
    controls.setCalcStats(False)
    out = str(tmp_path / "o.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    manifest = json.load(open(os.path.join(out, "_grid.json")))
    assert manifest["overviews"]["levels"] == [4, 8]  # 500px, min dim 33
    ovr = manifest["overviews"]["path"]
    assert os.path.isdir(ovr)
    # overview content: NEAREST decimation of the full raster
    t = pq.read_table(ovr)
    lv4 = t.filter(pa.compute.equal(t["level"], 4))
    assert lv4.num_rows > 0

    controls2 = ApplierControls()
    controls2.setCalcStats(False)
    controls2.setOmitPyramids(True)
    out2 = str(tmp_path / "o2.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out2}, controls=controls2,
          out_dir=str(tmp_path))
    manifest2 = json.load(open(os.path.join(out2, "_grid.json")))
    assert "overviews" not in manifest2

    controls3 = ApplierControls()
    controls3.setCalcStats(False)
    controls3.setOverviewLevels([2])
    out3 = str(tmp_path / "o3.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out3}, controls=controls3,
          out_dir=str(tmp_path))
    manifest3 = json.load(open(os.path.join(out3, "_grid.json")))
    assert manifest3["overviews"]["levels"] == [2]


def test_hook_path_writes_overviews_of_edited_table(ramp, tmp_path):
    """callBeforeClose outputs get pyramids too, decimated from the
    post-hook table; a hook that rewrites pixels but not stats gets
    stats recomputed from what it wrote."""
    def invert(handle):
        t = handle["table"]
        data = t["data"].combine_chunks()
        flipped = 255 - data.values.to_numpy(zero_copy_only=False)
        handle["table"] = t.set_column(
            t.schema.get_field_index("data"), "data",
            pa.ListArray.from_arrays(data.offsets, pa.array(flipped, pa.uint8())),
        )

    controls = ApplierControls()
    controls.callBeforeClose(invert)
    out = str(tmp_path / "hooked.parquet")
    info = apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
                 out_dir=str(tmp_path)).out_infos["out"]
    want = 255 - ramp["arr"]
    manifest = json.load(open(out + ".grid.json"))
    assert manifest["overviews"]["levels"] == [4, 8]
    ovr = pq.read_table(manifest["overviews"]["path"])
    for lvl in (4, 8):
        o = lvl // 2
        rows = ovr.filter(pa.compute.equal(ovr["level"], lvl)).to_pylist()
        got = np.zeros_like(want[o::lvl, o::lvl])
        for r in rows:
            got[r["top"]:r["top"] + r["nrows"], r["left"]:r["left"] + r["ncols"]] = (
                np.asarray(r["data"], np.uint8).reshape(r["nrows"], r["ncols"]))
        np.testing.assert_array_equal(got, want[o::lvl, o::lvl])
    stats = read_stats_sidecar(info.path)["0"]
    assert (stats["min"], stats["max"]) == (want.min(), want.max())
    assert stats["mean"] == pytest.approx(want.mean(), rel=1e-12)


def test_hook_path_new_subdir_and_raising_hook(ramp, tmp_path):
    """A hooked output may sit in a directory that does not exist yet,
    and a hook that raises leaves the previous output in place."""
    controls = ApplierControls()
    controls.callBeforeClose(lambda handle: None)
    out = str(tmp_path / "sub" / "dir" / "hooked.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path / "scratch"))
    before = pq.read_table(out)
    assert before.num_rows > 0

    def boom(handle):
        raise RuntimeError("hook failed")

    controls2 = ApplierControls()
    controls2.callBeforeClose(boom)
    with pytest.raises(RuntimeError, match="hook failed"):
        apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls2,
              out_dir=str(tmp_path / "scratch"))
    assert pq.read_table(out).equals(before)
    assert json.load(open(out + ".grid.json"))["overviews"]["levels"] == [4, 8]


def test_omit_and_approx_stats(ramp, tmp_path):
    controls = ApplierControls()
    controls.setOmitPyramids(True)
    controls.setOmitBasicStats(True)
    controls.setOmitHistogram(True)
    out = str(tmp_path / "o.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    assert read_stats_sidecar(out) is None

    controls2 = ApplierControls()
    controls2.setOmitPyramids(True)
    controls2.setApproxStats(True)
    out2 = str(tmp_path / "o2.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out2}, controls=controls2,
          out_dir=str(tmp_path))
    stats = read_stats_sidecar(out2)
    # sampled: fewer pixels than the full image, sane mean
    assert 0 < stats["0"]["count"] < 500 * 500
    assert abs(stats["0"]["mean"] - float(ramp["arr"].mean())) < 20.0

    # the close-time recompute takes the same sample
    controls2.setSinglePassBasicStats(False)
    out3 = str(tmp_path / "o3.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out3}, controls=controls2,
          out_dir=str(tmp_path))
    assert read_stats_sidecar(out3) == stats


def test_auto_color_table(ramp, tmp_path):
    controls = ApplierControls()
    controls.setOmitPyramids(True)
    controls.setThematic(True, "out")
    controls.setAutoColorTableType("viridis", "out")
    out = str(tmp_path / "o.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    stats = read_stats_sidecar(out)
    ct = np.asarray(stats["color_table"], dtype=np.uint8)
    assert ct.shape == (256, 4)
    assert list(ct[0]) == [68, 1, 84, 255]  # viridis start


SQUARE = [[500100.0, 6999900.0], [502000.0, 6999900.0],
          [502000.0, 6998000.0], [500100.0, 6998000.0],
          [500100.0, 6999900.0]]
FAR = [[504000.0, 6996000.0], [504900.0, 6996000.0],
       [504900.0, 6995100.0], [504000.0, 6995100.0],
       [504000.0, 6996000.0]]


def _poly_table():
    return pa.table(
        {
            "poly_id": pa.array([1, 2], type=pa.int64()),
            "ring_xy": pa.array([SQUARE, FAR]),
            "kind": pa.array(["a", "b"]),
            "weight": pa.array([3, 9], type=pa.int64()),
        }
    )


def _make_copy_mask():
    def copy_mask(info, inputs, outputs):
        outputs.out = inputs.mask

    return copy_mask


def test_vector_controls(ramp, tmp_path):
    """burn value / attribute / null / filter SQL / datatype, resolved
    per vector name (reference applier.py:663-744)."""
    controls = ApplierControls()
    controls.setReference("img")
    controls.setCalcStats(False)
    controls.setOmitPyramids(True)
    controls.setBurnValue(5, "mask")
    controls.setVectorNull(255, "mask")
    controls.setFilterSQL("kind = 'a'", "mask")
    controls.setVectorDatatype(np.uint8, "mask")
    out = str(tmp_path / "mask.parquet")
    apply(_make_copy_mask(), {"img": ramp["ti"], "mask": VectorInput(_poly_table())},
          {"out": out}, controls=controls, out_dir=str(tmp_path))
    got = _read_back(out)[0]
    assert got.dtype == np.uint8
    assert set(np.unique(got)) == {5, 255}  # poly 2 filtered out; burn 5
    # the filtered polygon's area stays at vector null
    assert (got[440:480, 410:480] == 255).all()

    # burn attribute instead of constant
    controls2 = ApplierControls()
    controls2.setReference("img")
    controls2.setCalcStats(False)
    controls2.setOmitPyramids(True)
    controls2.setBurnAttribute("weight", "mask")
    out2 = str(tmp_path / "mask2.parquet")
    apply(_make_copy_mask(), {"img": ramp["ti"], "mask": VectorInput(_poly_table())},
          {"out": out2}, controls=controls2, out_dir=str(tmp_path))
    assert set(np.unique(_read_back(out2)[0])) == {0, 3, 9}


def test_vector_guards_and_recorded_setters():
    controls = ApplierControls()
    controls.setAlltouched(True)  # supercover rule, implemented round 4
    assert controls.getOptionForImagename("alltouched", None) is True
    controls.setAlltouched(False)
    with pytest.raises(ValueError):
        controls.setVectorlayer(1)
    controls.setVectorlayer(0)
    with pytest.raises(ValueError):
        controls.setOverviewAggregationType("AVERAGE")
    # accepted-and-recorded setters never raise
    controls.setConcurrencyStyle(object())
    controls.setJobName("nightly")
    controls.setAllowOverviewsGdalwarp(True)
    controls.setSinglePassPyramids(True)
    controls.setSinglePassBasicStats(False)
    controls.setSinglePassHistogram(None)
    assert controls.job_name == "nightly"


def test_omit_basic_stats_alone(ramp, tmp_path):
    """setOmitBasicStats(True) alone: basic stats skipped but the
    histogram products (median/mode) still computed and written —
    the flags are honored independently, per-flag like the reference."""
    controls = ApplierControls()
    controls.setOmitPyramids(True)
    controls.setOmitBasicStats(True)
    out = str(tmp_path / "o_nobasic.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    stats = read_stats_sidecar(out)
    assert stats is not None and "0" in stats
    assert "mean" not in stats["0"] and "min" not in stats["0"]
    arr = ramp["arr"]
    counts = np.bincount(arr.ravel())
    want_median = float(np.searchsorted(np.cumsum(counts), arr.size / 2.0))
    assert stats["0"]["median"] == want_median
    assert stats["0"]["mode"] == float(np.argmax(counts))


def test_omit_histogram_alone(ramp, tmp_path):
    """setOmitHistogram(True) alone: basic stats written, no
    histogram-derived entries."""
    controls = ApplierControls()
    controls.setOmitPyramids(True)
    controls.setOmitHistogram(True)
    out = str(tmp_path / "o_nohist.parquet")
    apply(_make_ident(), {"img": ramp["ti"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    stats = read_stats_sidecar(out)
    arr = ramp["arr"].astype(np.float64)
    assert stats["0"]["mean"] == pytest.approx(arr.mean(), rel=1e-12)
    assert stats["0"]["count"] == arr.size
    assert "median" not in stats["0"] and "mode" not in stats["0"]
