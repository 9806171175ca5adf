"""Applier parity tests — the reference test suite's golden checks
re-expressed for the Ray engine:

- avg of ramp + reversed ramp, exact equality (testavg.py:35-111)
- 5x5 maximum filter with overlap=2 == whole-image sliding max, ZERO
  mismatches (testoverlap.py:40-93)
- footprint INTERSECTION / UNION extents (testfootprint.py:100-134)
- layer selection (testlayerselection.py)
- otherArgs per-block copies merge (testapplyreturn.py)
- stats sidecar vs numpy (teststats.py)
"""

import numpy as np
import pytest

from rios_ray import synth
from rios_ray.applier import OVERVIEW_KEYS, TILE_KEYS, ApplierControls, apply
from rios_ray.gridmodel import UNION, PixelGrid
from rios_ray.sources.tileraster import TileRasterInfo, read_stats_sidecar, write_tile_raster


def _grid(shift_px: int = 0) -> PixelGrid:
    d = shift_px * 10.0
    return PixelGrid(
        500000.0 + d, 505000.0 + d, 6995000.0 - d, 7000000.0 - d, 10.0, 10.0, "EPSG:28355"
    )


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("rasters")
    ramp = synth.gen_ramp_array()
    out = {}
    out["ramp"] = write_tile_raster(
        str(root / "ramp.parquet"), synth.raster_to_tile_table(ramp), _grid(), 1, np.uint8
    )
    out["ramp_rev"] = write_tile_raster(
        str(root / "ramp_rev.parquet"),
        synth.raster_to_tile_table(ramp[:, ::-1]),
        _grid(),
        1,
        np.uint8,
    )
    out["ramp_shift"] = write_tile_raster(
        str(root / "ramp_shift.parquet"),
        synth.raster_to_tile_table(ramp, x_left=synth.RASTER_XLEFT + 1000.0,
                                   y_top=synth.RASTER_YTOP - 1000.0),
        _grid(100),
        1,
        np.uint8,
    )
    rc = synth.gen_rowcol2_array()
    out["rowcol2"] = write_tile_raster(
        str(root / "rowcol2.parquet"), synth.raster_to_tile_table(rc), _grid(), 2, np.uint16
    )
    odd = np.random.default_rng(7).integers(0, 30000, (1, 333, 517), dtype=np.uint16)
    out["odd"] = write_tile_raster(
        str(root / "odd.parquet"), synth.raster_to_tile_table(odd, block=128),
        PixelGrid(500000.0, 505170.0, 6996670.0, 7000000.0, 10.0, 10.0, "EPSG:28355"),
        1, np.uint16,
    )
    out["odd_arr"] = odd
    out["root"] = root
    out["ramp_arr"] = ramp
    out["rc_arr"] = rc
    return out


def _read_back(path: str) -> np.ndarray:
    import pyarrow.parquet as pq

    info = TileRasterInfo.read(path)
    t = pq.read_table(path)
    nrows, ncols = info.grid.dimensions()
    return synth.tile_table_to_raster(t, info.nbands, nrows, ncols, info.np_dtype)


def test_avg_of_two_ramps(fixtures, tmp_path):
    def avg_fn(info, inputs, outputs):
        outputs.avg = (inputs.img1.astype(np.float64) + inputs.img2.astype(np.float64)) / 2

    out = str(tmp_path / "avg.parquet")
    rtn = apply(avg_fn, {"img1": fixtures["ramp"], "img2": fixtures["ramp_rev"]}, {"avg": out})
    got = _read_back(out)
    ramp = fixtures["ramp_arr"]
    want = (ramp.astype(np.float64) + ramp[:, ::-1].astype(np.float64)) / 2
    np.testing.assert_array_equal(got[0], want)
    assert rtn.n_blocks == 4


def _padded_max(arr: np.ndarray, m: int = 2) -> np.ndarray:
    """Whole-image (2m+1)^2 max per band, zero outside the image."""
    nb, nr, nc = arr.shape
    padded = np.zeros((nb, nr + 2 * m, nc + 2 * m), dtype=arr.dtype)
    padded[:, m:nr + m, m:nc + m] = arr
    k = 2 * m + 1
    return np.maximum.reduce([padded[:, dy:dy + nr, dx:dx + nc]
                              for dy in range(k) for dx in range(k)])


def _max_case(fixtures, case):
    """(inputs, controls, numpy sum of the inputs on the working grid)."""
    controls = ApplierControls()
    controls.setOverlap(2)
    ramp = fixtures["ramp_arr"][None].astype(np.float64)
    if case == "ramp":
        return {"a": fixtures["ramp"]}, controls, ramp
    if case == "window-100x70":
        controls.setWindowSize(100, 70)
        return {"a": fixtures["ramp"]}, controls, ramp
    if case == "odd-dims":
        controls.setWindowSize(100, 70)
        return {"a": fixtures["odd"]}, controls, fixtures["odd_arr"].astype(np.float64)
    if case == "union-offsets":
        controls.setFootprintType(UNION)
        want = np.zeros((1, 600, 600))
        want[:, :500, :500] += ramp
        want[:, 100:, 100:] += ramp
        return {"a": fixtures["ramp"], "b": fixtures["ramp_shift"]}, controls, want
    controls.selectInputImageLayers([2], "a")  # layer-selection
    return {"a": fixtures["rowcol2"]}, controls, fixtures["rc_arr"][1:].astype(np.float64)


@pytest.mark.parametrize("case", ["ramp", "window-100x70", "odd-dims", "union-offsets",
                                  "layer-selection"])
def test_overlap_max_filter_zero_mismatch(fixtures, tmp_path, case):
    """5x5 max filter via overlap=2 halos == whole-image sliding max, into
    a uint16 and a float32 output of the same apply: windows that do not
    divide the 256-px input tiles, odd raster dimensions, a two-input
    union footprint with offsets, and a layer selection."""

    def max_fn(info, inputs, outputs):
        a = sum(getattr(inputs, n).astype(np.float64) for n in sorted(vars(inputs)))
        ny, nx = a.shape[1] - 4, a.shape[2] - 4
        # the filtered interior re-padded to the margin, which the applier trims
        out = np.zeros_like(a)
        out[:, 2:-2, 2:-2] = np.maximum.reduce(
            [a[:, dy:dy + ny, dx:dx + nx] for dy in range(5) for dx in range(5)])
        outputs.filtered = out.astype(np.uint16)
        outputs.scaled = (out * 0.5).astype(np.float32)

    infiles, controls, total = _max_case(fixtures, case)
    out = {k: str(tmp_path / f"{k}.parquet") for k in ("filtered", "scaled")}
    rtn = apply(max_fn, infiles, out, controls=controls, out_dir=str(tmp_path))
    want = _padded_max(total)
    assert rtn.working_grid.dimensions() == want.shape[1:]
    got = _read_back(out["filtered"])
    assert got.dtype == np.uint16 and (got != want.astype(np.uint16)).sum() == 0
    got = _read_back(out["scaled"])
    assert got.dtype == np.float32 and (got != (want * 0.5).astype(np.float32)).sum() == 0


def test_footprint_intersection_and_union(fixtures, tmp_path):
    def ident(info, inputs, outputs):
        outputs.out = inputs.a

    # INTERSECTION (default): 400x400 overlap region
    out = str(tmp_path / "inter.parquet")
    controls = ApplierControls()
    controls.setReference("a")
    rtn = apply(
        ident, {"a": fixtures["ramp"], "b": fixtures["ramp_shift"]}, {"out": out},
        controls=controls,
    )
    assert rtn.working_grid.dimensions() == (400, 400)
    got = _read_back(out)[0]
    # 'a' window within intersection: rows 100.., cols 100..
    np.testing.assert_array_equal(got, fixtures["ramp_arr"][100:, 100:])

    # UNION: 600x600, out-of-extent null-filled with 0
    controls.setFootprintType(UNION)
    out2 = str(tmp_path / "union.parquet")
    rtn2 = apply(
        ident, {"a": fixtures["ramp"], "b": fixtures["ramp_shift"]}, {"out": out2},
        controls=controls,
    )
    assert rtn2.working_grid.dimensions() == (600, 600)
    got2 = _read_back(out2)[0]
    want2 = np.zeros((600, 600), dtype=np.uint8)
    want2[:500, :500] = fixtures["ramp_arr"]
    np.testing.assert_array_equal(got2, want2)


def test_layer_selection(fixtures, tmp_path):
    def pick(info, inputs, outputs):
        assert inputs.img.shape[0] == 1
        outputs.out = inputs.img

    controls = ApplierControls()
    controls.selectInputImageLayers([2], "img")  # 1-based: band 2 = col index
    out = str(tmp_path / "sel.parquet")
    apply(pick, {"img": fixtures["rowcol2"]}, {"out": out}, controls=controls)
    got = _read_back(out)
    np.testing.assert_array_equal(got[0], fixtures["rc_arr"][1])


def test_other_args_per_block_merge(fixtures, tmp_path):
    class OA:
        def __init__(self):
            self.total = 0
            self.count = 0

    def accum(info, inputs, outputs, other):
        other.total += int(inputs.img.astype(np.int64).sum())
        other.count += 1
        outputs.out = inputs.img

    out = str(tmp_path / "oa.parquet")
    rtn = apply(accum, {"img": fixtures["ramp"]}, {"out": out}, other_args=OA())
    assert len(rtn.other_args_list) == 4  # one per block
    merged_total = sum(o.total for o in rtn.other_args_list)
    assert merged_total == int(fixtures["ramp_arr"].astype(np.int64).sum())
    assert sum(o.count for o in rtn.other_args_list) == 4


def test_stats_sidecar(fixtures, tmp_path):
    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    out = str(tmp_path / "stats.parquet")
    apply(ident, {"img": fixtures["ramp"]}, {"out": out})
    stats = read_stats_sidecar(out)["0"]
    ramp = fixtures["ramp_arr"].astype(np.float64)
    assert stats["min"] == ramp.min()
    assert stats["max"] == ramp.max()
    assert stats["mean"] == pytest.approx(ramp.mean(), rel=1e-12)
    assert stats["stddev"] == pytest.approx(ramp.std(), rel=1e-9)
    assert stats["count"] == 250000


def test_knn_cellring_equals_bruteforce(ray_session):
    """The kNN the benchmarks and the ledger run under the cell-ring
    name is the brute-force kNN, row for row."""
    from rios_ray.pipelines.pages import knn_pages, knn_pages_cellring

    sf = "/root/testdata/sf0.001"
    a = knn_pages(sf, k=10).to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    b = (
        knn_pages_cellring(sf, k=10)
        .to_pandas()
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )
    assert a[["qid", "url", "rank"]].equals(b[["qid", "url", "rank"]])


def test_knn_cellring_geocodes_once(ray_session, ray_jobs):
    """The pages are read and geocoded once: building and consuming
    ``knn_pages_cellring`` runs exactly one Ray Data job, whose only
    map operator is the read fused with the geocode and the top-k, so
    the html never leaves the read task."""
    import ray

    from rios_ray.pipelines.pages import knn_pages_cellring

    ray.get(knn_pages_cellring("/root/testdata/sf0.001", k=10).to_arrow_refs())
    assert len(ray_jobs) == 1
    maps = [op.name for op in ray_jobs[0] if "Read" in op.name or "Map" in op.name]
    assert len(maps) == 1 and maps[0].startswith("ReadParquetRowGroups->MapBatches(geocells)"), maps


def _leftover_temp_tables(d) -> list[str]:
    """Warped / rasterized input tables the applier left under ``d``."""
    import glob
    import os

    return [os.path.basename(p) for pat in ("rasterized_*", "resample_*", "reproject_*")
            for p in glob.glob(os.path.join(str(d), pat))]


def test_resample_misaligned_input(fixtures, ray_session, tmp_path):
    """A res-20 input on a reference res-10 working grid: with
    setResampleMethod('near') the applier auto-resamples and the
    output equals the direct numpy nearest resample (testresample
    parity — exact, no interpolation)."""
    from rios_ray.resample import resample_nearest  # noqa: F401 (op under test)

    ramp = fixtures["ramp_arr"].astype(np.float64)
    # build a coarse (res 20) input: every 2nd pixel of the ramp
    coarse = ramp[::2, ::2]
    g20 = PixelGrid(500000.0, 505000.0, 6995000.0, 7000000.0, 20.0, 20.0, "EPSG:28355")
    in_path = str(tmp_path / "coarse.parquet")
    write_tile_raster(in_path, synth.raster_to_tile_table(coarse), g20, 1, np.float64)

    def copy_fn(info, inputs, outputs):
        outputs.out = inputs.a

    controls = ApplierControls()
    controls.setReferencePixgrid(_grid())  # res-10 working grid
    controls.setResampleMethod("near")
    controls.setCalcStats(False)
    out_path = str(tmp_path / "resampled_out.parquet")
    apply(copy_fn, {"a": in_path}, {"out": out_path}, controls=controls,
          out_dir=str(tmp_path))
    got = _read_back(out_path)[0]

    # golden: containing-cell nearest from the coarse grid to res 10
    r = np.arange(500)
    y = 7000000.0 - (r + 0.5) * 10.0
    x = 500000.0 + (r + 0.5) * 10.0
    sr = np.floor((7000000.0 - y) / 20.0).astype(np.int64)
    sc = np.floor((x - 500000.0) / 20.0).astype(np.int64)
    want = coarse[sr[:, None], sc[None, :]]
    assert np.array_equal(got, want)
    # the resampled copy of the input is removed on success and on failure
    assert _leftover_temp_tables(tmp_path) == []

    def fail_fn(info, inputs, outputs):
        raise RuntimeError("user function failed")

    with pytest.raises(Exception, match="user function failed"):
        apply(fail_fn, {"a": in_path}, {"out": out_path}, controls=controls,
              out_dir=str(tmp_path))
    assert _leftover_temp_tables(tmp_path) == []


def test_misaligned_without_resample_raises(fixtures, ray_session, tmp_path):
    from rios_ray.applier import ResampleNeededError

    coarse = fixtures["ramp_arr"][::2, ::2].astype(np.float64)
    g20 = PixelGrid(500000.0, 505000.0, 6995000.0, 7000000.0, 20.0, 20.0, "EPSG:28355")
    in_path = str(tmp_path / "coarse2.parquet")
    write_tile_raster(in_path, synth.raster_to_tile_table(coarse), g20, 1, np.float64)

    def copy_fn(info, inputs, outputs):
        outputs.out = inputs.a

    controls = ApplierControls()
    controls.setReferencePixgrid(_grid())
    controls.setCalcStats(False)
    with pytest.raises(ResampleNeededError):
        apply(copy_fn, {"a": in_path}, {"out": str(tmp_path / "o.parquet")},
              controls=controls, out_dir=str(tmp_path))


def _square_polys():
    """Reference vector fixture (riostestutils.py:168-200): a 20x20-px
    square at pixel offset (10.6, 30.6) from the raster origin, plus a
    second square of another category for the filter case."""
    import pyarrow as pa

    def square(x0, y0, size):
        return [[x0, y0], [x0 + size, y0], [x0 + size, y0 - size], [x0, y0 - size], [x0, y0]]

    x0 = 500000.0 + 10.6 * 10.0
    y0 = 7000000.0 - 30.6 * 10.0
    s1 = square(x0, y0, 200.0)
    s2 = square(500000.0 + 3000.0, 7000000.0 - 3000.0, 500.0)
    return pa.table(
        {
            "poly_id": pa.array([1, 2], type=pa.int64()),
            "ring_xy": pa.array([s1, s2]),
            "category": pa.array(["mask", "other"]),
            "burn_value": pa.array([7, 9], type=pa.int32()),
        }
    )


def test_vector_input_masked_mean(fixtures, ray_session, tmp_path):
    """testvector parity (testvector.py:99-132): masked mean of the
    ramp inside the rasterized square == numpy mean of the known
    sub-array.  Pixel-center rule puts the (10.6, 30.6)-offset 20x20
    square exactly at rows 31..50, cols 11..30."""
    from rios_ray.applier import VectorInput

    polys = _square_polys()

    class Acc:
        def __init__(self):
            self.sum = 0.0
            self.count = 0

    def masked_mean(info, inputs, outputs, other_args):
        m = inputs.mask[0] == 7
        other_args.sum += float(inputs.img[0][m].sum())
        other_args.count += int(m.sum())
        outputs.out = (inputs.mask == 7).astype(np.uint8)

    controls = ApplierControls()
    controls.setReference("img")
    controls.setCalcStats(False)
    out_path = str(tmp_path / "mask_out.parquet")
    ret = apply(
        masked_mean,
        {"img": fixtures["ramp"].path,
         "mask": VectorInput(polys, burn_col="burn_value", where=("category", "mask"))},
        {"out": out_path},
        other_args=Acc(),
        controls=controls,
        out_dir=str(tmp_path),
    )
    total_sum = sum(oa.sum for oa in ret.other_args_list)
    total_count = sum(oa.count for oa in ret.other_args_list)

    ramp = fixtures["ramp_arr"].astype(np.float64)
    want = ramp[31:51, 11:31]
    assert total_count == 400
    assert total_sum == want.sum()
    assert total_sum / total_count == pytest.approx(want.mean(), abs=0)
    # rasterized mask geometry is exactly the reference square
    got_mask = _read_back(out_path)[0]
    expect = np.zeros((500, 500), dtype=np.uint8)
    expect[31:51, 11:31] = 1
    assert np.array_equal(got_mask, expect)
    # the rasterized mask table is removed on success and on failure
    assert _leftover_temp_tables(tmp_path) == []

    def fail_fn(info, inputs, outputs):
        raise RuntimeError("user function failed")

    with pytest.raises(Exception, match="user function failed"):
        apply(fail_fn,
              {"img": fixtures["ramp"].path, "mask": VectorInput(polys, burn_col="burn_value")},
              {"out": out_path}, controls=controls, out_dir=str(tmp_path))
    assert _leftover_temp_tables(tmp_path) == []


def test_vector_all_touched_golden_diff(fixtures, ray_session, tmp_path):
    """allTouched=True burns every pixel the square touches: the
    center rule's [31:51, 11:31] plus the boundary row 30 and column
    10 the edges pass through (square spans pixel coords 10.6-30.6 x
    30.6-50.6) — the supercover union, golden vs the center rule."""
    from rios_ray.applier import VectorInput

    polys = _square_polys()

    def copy_mask(info, inputs, outputs):
        outputs.out = inputs.mask

    controls = ApplierControls()
    controls.setReference("img")
    controls.setCalcStats(False)
    controls.setAlltouched(True, "mask")
    out_path = str(tmp_path / "at_mask.parquet")
    apply(
        copy_mask,
        {"img": fixtures["ramp"].path,
         "mask": VectorInput(polys, burn_col="burn_value", where=("category", "mask"))},
        {"out": out_path},
        controls=controls,
        out_dir=str(tmp_path),
    )
    got = _read_back(out_path)[0]
    expect = np.zeros((500, 500), dtype=got.dtype)
    expect[30:51, 10:31] = 7
    assert np.array_equal(got, expect)
    # explicit golden DIFF vs the center rule: one extra row + column
    center = np.zeros_like(expect)
    center[31:51, 11:31] = 7
    diff = np.argwhere((got != 0) & (center == 0))
    assert set(map(tuple, diff)) == (
        {(30, c) for c in range(10, 31)} | {(r, 10) for r in range(30, 51)}
    )
    assert ((got != 0) >= (center != 0)).all()  # superset of center rule

    # block-size invariance: with 32x32 blocks every edge crosses
    # several blocks, exercising the per-block Liang-Barsky clip — the
    # mask must be identical to the single-big-block run
    controls2 = ApplierControls()
    controls2.setReference("img")
    controls2.setCalcStats(False)
    controls2.setAlltouched(True, "mask")
    controls2.setWindowSize(32, 32)
    out2 = str(tmp_path / "at_mask_32.parquet")
    apply(
        copy_mask,
        {"img": fixtures["ramp"].path,
         "mask": VectorInput(polys, burn_col="burn_value", where=("category", "mask"))},
        {"out": out2},
        controls=controls2,
        out_dir=str(tmp_path),
    )
    assert np.array_equal(_read_back(out2)[0], got)


def test_vector_input_non_intersecting_empty(fixtures, ray_session, tmp_path):
    """Non-intersecting vector yields an all-zero mask
    (testvector.py:76-83 parity)."""
    import pyarrow as pa

    from rios_ray.applier import VectorInput

    far = [[9e6, 9e6], [9.1e6, 9e6], [9.1e6, 8.9e6], [9e6, 8.9e6], [9e6, 9e6]]
    polys = pa.table(
        {
            "poly_id": pa.array([1], type=pa.int64()),
            "ring_xy": pa.array([far]),
            "category": pa.array(["x"]),
            "burn_value": pa.array([1], type=pa.int32()),
        }
    )

    def copy_mask(info, inputs, outputs):
        outputs.out = inputs.mask

    controls = ApplierControls()
    controls.setReference("img")
    controls.setCalcStats(False)
    out_path = str(tmp_path / "empty_mask.parquet")
    apply(copy_mask, {"img": fixtures["ramp"].path, "mask": VectorInput(polys)},
          {"out": out_path}, controls=controls, out_dir=str(tmp_path))
    assert (_read_back(out_path)[0] == 0).all()


# ---- §2.10 user-extension surface ----


def test_env_default_plumbing(monkeypatch):
    """RIOS_DFLT_* / RIOS_RAY_DFLT_* env-var defaults (reference
    imagereader.py:42-46)."""
    from rios_ray.gridmodel import _env_default

    monkeypatch.setenv("RIOS_DFLT_BLOCKXSIZE", "512")
    assert _env_default("BLOCKXSIZE", 256) == 512
    monkeypatch.setenv("RIOS_RAY_DFLT_BLOCKXSIZE", "128")  # engine name wins
    assert _env_default("BLOCKXSIZE", 256) == 128
    monkeypatch.delenv("RIOS_RAY_DFLT_BLOCKXSIZE")
    monkeypatch.delenv("RIOS_DFLT_BLOCKXSIZE")
    assert _env_default("BLOCKXSIZE", 256) == 256


def test_per_image_option_override(fixtures, tmp_path):
    """setOptionForImagename (reference applier.py:166-201): stats on
    for one output, suppressed for the other in the same run."""

    def ident(info, inputs, outputs):
        outputs.a = inputs.img
        outputs.b = inputs.img

    controls = ApplierControls()
    controls.setOptionForImagename("calc_stats", "b", False)
    out_a = str(tmp_path / "a.parquet")
    out_b = str(tmp_path / "b.parquet")
    apply(ident, {"img": fixtures["ramp"]}, {"a": out_a, "b": out_b},
          controls=controls, out_dir=str(tmp_path))
    assert read_stats_sidecar(out_a) is not None
    assert read_stats_sidecar(out_b) is None
    assert controls.getOptionForImagename("calc_stats", "a") is True
    assert controls.getOptionForImagename("calc_stats", "b") is False


class _Prog:
    def __init__(self):
        self.vals = []

    def setProgress(self, pct):
        self.vals.append(pct)


def test_progress_reported(fixtures, tmp_path):
    """Duck-typed progress object (reference cuiprogress.py): receives
    monotonic percentages ending at 100."""

    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    controls = ApplierControls()
    prog = _Prog()
    controls.setProgress(prog)
    controls.setCalcStats(False)
    apply(ident, {"img": fixtures["ramp"]}, {"out": str(tmp_path / "p.parquet")},
          controls=controls, out_dir=str(tmp_path))
    assert prog.vals, "no progress reported"
    assert prog.vals[-1] == 100
    assert all(b >= a for a, b in zip(prog.vals, prog.vals[1:]))


def test_progress_cancellation(fixtures, tmp_path):
    """wasCancelled() True aborts the run with ApplierCancelledError
    before all blocks execute."""
    from rios_ray.applier import ApplierCancelledError

    class CancelProg(_Prog):
        def wasCancelled(self):
            return True

    def slow(info, inputs, outputs):
        import time

        time.sleep(0.4)
        outputs.out = inputs.img

    controls = ApplierControls()
    controls.setProgress(CancelProg())
    controls.setCalcStats(False)
    controls.setWindowXsize(128)
    controls.setWindowYsize(128)
    with pytest.raises(ApplierCancelledError):
        apply(slow, {"img": fixtures["ramp"]}, {"out": str(tmp_path / "c.parquet")},
              controls=controls, out_dir=str(tmp_path))


def test_call_before_close_hook(fixtures, tmp_path):
    """callBeforeClose (reference applier.py:845-858): hook sees each
    output pre-write and its mutations are honoured."""
    seen = []

    def hook(handle, tag):
        seen.append((handle["name"], tag))
        handle["stats"] = None  # drop the stats sidecar

    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    controls = ApplierControls()
    controls.callBeforeClose(hook, "t1")
    out = str(tmp_path / "h.parquet")
    apply(ident, {"img": fixtures["ramp"]}, {"out": out},
          controls=controls, out_dir=str(tmp_path))
    assert seen == [("out", "t1")]
    assert read_stats_sidecar(out) is None


def test_directory_output_chains_as_input(fixtures, tmp_path):
    """Distributed finalize writes a parquet DIRECTORY (resumable
    layout); it must probe and read back as an input to a second
    apply() unchanged."""
    import os

    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    out1 = str(tmp_path / "o1.parquet")
    apply(ident, {"img": fixtures["ramp"]}, {"out": out1}, out_dir=str(tmp_path))
    assert os.path.isdir(out1)  # many-file resumable layout
    out2 = str(tmp_path / "o2.parquet")
    apply(ident, {"img": out1}, {"out": out2}, out_dir=str(tmp_path))
    got = _read_back(out2)[0]
    np.testing.assert_array_equal(
        got.astype(np.uint8), fixtures["ramp_arr"]
    )


def test_nan_inf_warning(fixtures, tmp_path):
    """M5: float outputs containing NaN/Inf trigger one warning per
    output (reference imagewriter checkForNanOrInf/warnNanOrInf)."""
    import warnings as _warnings

    def make_nan(info, inputs, outputs):
        out = inputs.img.astype(np.float64)
        out[0, 0, 0] = np.nan
        outputs.bad = out
        outputs.good = inputs.img.astype(np.float64)

    with pytest.warns(RuntimeWarning, match="NaN or Inf.*bad"):
        apply(make_nan, {"img": fixtures["ramp"]},
              {"bad": str(tmp_path / "bad.parquet"),
               "good": str(tmp_path / "good.parquet")},
              out_dir=str(tmp_path))

    def clean(info, inputs, outputs):
        outputs.out = inputs.img.astype(np.float64)

    with _warnings.catch_warnings():
        _warnings.simplefilter("error", RuntimeWarning)
        apply(clean, {"img": fixtures["ramp"]},
              {"out": str(tmp_path / "clean.parquet")}, out_dir=str(tmp_path))


def _stats_both_modes(fn, fixtures, tmp_path, name):
    out = {}
    for single in (True, False):
        controls = ApplierControls()
        controls.setOmitPyramids(True)
        if not single:
            controls.setSinglePassBasicStats(False)
        path = str(tmp_path / f"{name}-{single}.parquet")
        apply(fn, {"img": fixtures["rowcol2"]}, {"out": path}, controls=controls,
              out_dir=str(tmp_path))
        out[single] = read_stats_sidecar(path)
    return out[True], out[False]


def test_single_pass_stats_match_close_time_recompute(fixtures, tmp_path):
    """Stats merged from the block tasks' partials equal the at-close
    recompute: identical for an integer raster, rel 1e-12 for floats."""
    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    def scaled(info, inputs, outputs):
        outputs.out = inputs.img.astype(np.float64) * 0.1 + 1e-3

    single, recomputed = _stats_both_modes(ident, fixtures, tmp_path, "int")
    assert single == recomputed
    assert set(single) == {"0", "1"} and "median" in single["0"]
    rc = fixtures["rc_arr"].astype(np.float64)
    for b in (0, 1):
        assert single[str(b)]["mean"] == pytest.approx(rc[b].mean(), rel=1e-12)

    single, recomputed = _stats_both_modes(scaled, fixtures, tmp_path, "float")
    assert single.keys() == recomputed.keys()
    for b, entry in single.items():
        for k, v in entry.items():
            assert v == pytest.approx(recomputed[b][k], rel=1e-12), (b, k)


def test_single_output_apply_runs_one_job(fixtures, tmp_path, ray_jobs):
    """A single-output apply with stats and pyramids runs exactly one Ray
    Data job, with no all-to-all exchange: the block tasks read their own
    halos, write the tiles and overview tiles, and send back only the
    stats partials.  Each task file holds one row group per row of blocks."""
    import json
    import os

    import pyarrow.parquet as pq
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
    from ray.data._internal.execution.operators.map_operator import MapOperator

    def ident(info, inputs, outputs):
        outputs.out = inputs.img

    controls = ApplierControls()
    controls.setWindowSize(100, 100)  # 25 blocks: task runs cross rows of blocks
    out = str(tmp_path / "jobs.parquet")
    apply(ident, {"img": fixtures["ramp"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    assert len(ray_jobs) == 1
    assert all(isinstance(op, (InputDataBuffer, MapOperator)) for op in ray_jobs[0])
    manifest = json.load(open(os.path.join(out, "_grid.json")))
    assert manifest["stats"]["0"]["count"] == 250000
    assert manifest["overviews"]["levels"] == [4, 8]
    parts = [pq.ParquetFile(os.path.join(out, f)) for f in os.listdir(out)
             if f.endswith(".parquet")]
    assert max(pf.num_row_groups for pf in parts) > 1
    for pf in parts:
        for g in range(pf.num_row_groups):
            assert len(set(pf.read_row_group(g, columns=["top"])["top"].to_pylist())) == 1


def test_unset_output_fails_loud(fixtures, tmp_path):
    """An output the user function never sets is named in a ValueError."""
    def only_a(info, inputs, outputs):
        outputs.a = inputs.img

    with pytest.raises(ValueError, match="output 'b' was not set"):
        apply(only_a, {"img": fixtures["ramp"]},
              {"a": str(tmp_path / "a.parquet"), "b": str(tmp_path / "b.parquet")},
              out_dir=str(tmp_path))


def test_block_reads_stay_within_the_halo(tmp_path):
    """Planner: on a 4x4-block input with one row group per row of tiles,
    a block's margin-padded window needs at most 3 row groups (its own
    row of tiles and the two beside it), and the window it assembles
    equals the zero-padded numpy slice."""
    import pyarrow.parquet as pq

    from rios_ray.applier import TileReads

    a = np.arange(64 * 64, dtype=np.uint16).reshape(64, 64)
    grid = PixelGrid(0.0, 64.0, 0.0, 64.0, 1.0, 1.0, "EPSG:28355")
    ti = write_tile_raster(str(tmp_path / "in.parquet"),
                           synth.raster_to_tile_table(a, block=16), grid, 1, np.uint16)
    assert pq.ParquetFile(ti.path).num_row_groups == 4
    reads = TileReads.plan(ti, grid)
    padded = np.zeros((68, 68), np.uint16)
    padded[2:-2, 2:-2] = a
    n_groups = []
    for top in range(0, 64, 16):
        for left in range(0, 64, 16):
            idx = reads.meeting(top, left, 16, 16, 2)
            n_groups.append(len(set(zip(reads.file[idx], reads.row_group[idx]))))
            np.testing.assert_array_equal(reads.window(idx, top, left, 16, 16, 2, {})[0],
                                          padded[top:top + 20, left:left + 20])
    assert max(n_groups) == 3 and min(n_groups) == 2


def test_close_streams_wide_range_histograms(fixtures, tmp_path, monkeypatch):
    """Closing an output of many blocks of full-range uint16 data never
    holds all the per-tile histograms on the driver: the partials reach
    the merge as a stream of small batches, and the Arrow bytes held
    while it runs stay a small fraction of the histograms' total."""
    import pyarrow as pa

    from rios_ray import applier as applier_mod

    held, rows = [], []
    merge = applier_mod.merge_partials

    def watched_merge(tables, *args, **kwargs):
        def watched():
            for t in tables:
                held.append(pa.total_allocated_bytes())
                rows.append(t.num_rows)
                yield t
        return merge(watched(), *args, **kwargs)

    monkeypatch.setattr(applier_mod, "merge_partials", watched_merge)

    def spread(info, inputs, outputs):
        # a full-range uint16 value per pixel, from its band-0 value
        v = inputs.img[0].astype(np.uint64) * 2654435761
        outputs.out = (v % 65536).astype(np.uint16)[None]

    controls = ApplierControls()
    controls.setOmitPyramids(True)
    controls.setWindowSize(50, 50)
    out = str(tmp_path / "wide.parquet")
    base = pa.total_allocated_bytes()
    apply(spread, {"img": fixtures["rowcol2"]}, {"out": out}, controls=controls,
          out_dir=str(tmp_path))
    n_tiles, hist_bytes = 100, 65536 * 8
    assert sum(rows) == n_tiles and max(rows) < n_tiles
    assert max(held) - base < n_tiles * hist_bytes // 4
    want = ((fixtures["rc_arr"][0].astype(np.uint64) * 2654435761) % 65536).astype(np.uint16)
    got = read_stats_sidecar(out)["0"]
    assert (got["min"], got["max"], got["count"]) == (want.min(), want.max(), want.size)
    assert got["mean"] == pytest.approx(want.mean(), rel=1e-12)


def test_one_task_per_cpu_each_a_row_of_blocks(fixtures, tmp_path, monkeypatch):
    """A 4x4-block raster at 4 CPUs runs as one wave: 4 block tasks, each
    writing one row of blocks to its own part file.  At 1 CPU one task
    writes every block, and the tiles, stats sidecar, overviews and
    manifest are identical."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq

    from rios_ray import util

    def max_fn(info, inputs, outputs):
        a = inputs.a
        ny, nx = a.shape[1] - 4, a.shape[2] - 4
        out = np.zeros_like(a)
        out[:, 2:-2, 2:-2] = np.maximum.reduce(
            [a[:, dy:dy + ny, dx:dx + nx] for dy in range(5) for dx in range(5)])
        outputs.filtered = out

    def run(tag):
        controls = ApplierControls()
        controls.setWindowSize(128, 128)
        controls.setOverlap(2)
        controls.setCalcStats(True)
        controls.setOmitPyramids(False)
        out = str(tmp_path / tag / "filtered.parquet")
        rtn = apply(max_fn, {"a": fixtures["ramp"]}, {"filtered": out}, controls=controls,
                    out_dir=str(tmp_path / tag))
        assert rtn.n_blocks == 16
        with open(os.path.join(out, "_grid.json")) as f:
            manifest = json.load(f)
        manifest["overviews"]["path"] = os.path.basename(manifest["overviews"]["path"])
        return (sorted(glob.glob(os.path.join(out, "part-*.parquet"))),
                pq.read_table(out).sort_by([(k, "ascending") for k in TILE_KEYS]),
                pq.read_table(out + ".ovr").sort_by([(k, "ascending") for k in OVERVIEW_KEYS]),
                manifest)

    assert util.cluster_cpus() == 4
    parts, tiles, overviews, manifest = run("four")
    assert len(parts) == 4
    for i, part in enumerate(parts):
        t = pq.read_table(part, columns=["tile_y", "tile_x"])
        assert set(t["tile_y"].to_pylist()) == {i}
        assert set(t["tile_x"].to_pylist()) == {0, 1, 2, 3}
    assert manifest["stats"] and manifest["overviews"]["levels"]

    monkeypatch.setattr(util, "cluster_cpus", lambda: 1)
    parts_1, tiles_1, overviews_1, manifest_1 = run("one")
    assert len(parts_1) == 1
    assert tiles_1.equals(tiles)
    assert overviews_1.equals(overviews)
    assert manifest_1 == manifest
