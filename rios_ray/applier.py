"""The applier: RIOS's block-model ``apply()`` re-expressed on Ray Data.

Reference surface: ``rios.applier.apply`` (``/root/reference/rios/
applier.py:861-955``) — a user function ``user_fn(info, inputs,
outputs[, other_args])`` runs once per block of a working grid, with
multi-input alignment, margin/overlap halos, nodata fill, margin-trimmed
writes, and optional single-pass stats.

Ray-Data-first design (no port of the reference's thread/process
machinery — its BlockBuffer/ComputeWorkerManager concurrency collapses
into the streaming executor):

1. **Plan (driver, pure python)**: probe input grids, resolve the
   working grid by footprint rule (``applier.py:1226-1283`` +
   ``pixelgrid.py:415-444``), derive block decomposition
   (``applier.py:1308-1326``).  No cluster work.
2. **Fragment (map_batches, per input)**: each tile row of each input
   is sliced into fragments addressed to every working-grid block whose
   margin-padded window it overlaps — the margin is satisfied by
   *over-emitting* rows to neighbouring blocks (the keyed equivalent of
   RIOS reading halos straight from files, ``applier.py:253-268``).
3. **Assemble + user function (groupby(block).map_groups)**: fragments
   of one block gather (the J1 multi-input alignment join,
   ``structures.py:587-616``), missing regions are nodata-filled
   (``imagereader.py:102-121``), the user function runs on dense
   ``(bands, ys+2m, xs+2m)`` arrays, outputs are margin-trimmed
   (``imagewriter.py:44-47``) and emitted as tile rows, each with its
   single-pass stats partial, beside one overview tile per level (the
   reference's single-pass manager, ``calcstats.py:400-616``).
4. **Write (one pass)**: all outputs stream to parquet partitioned by
   output name, overview rows under ``<name>.ovr``; per-block
   ``other_args`` copies ride along as a side partition and are
   returned for user-side merging (the ST5 contract,
   ``applier.py:1182-1192``).
5. **Close (one more job per output)**: tiles rewrite to the canonical
   layout; stats partials and overview tiles are merged / copied on the
   driver without re-reading the pixels.
"""

from __future__ import annotations

import copy
import os
import shutil
import warnings

from ray import cloudpickle as pickle
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .gridmodel import (
    DEFAULT_BLOCK_XSIZE,
    DEFAULT_BLOCK_YSIZE,
    DEFAULT_FOOTPRINT,
    DEFAULT_OVERLAP,
    INTERSECTION,
    BlockDefn,
    PixelGrid,
    find_common_region,
)
from .resample import TILE_SCHEMA
from .sources.tileraster import TileRasterInfo
from .stats import PARTIAL_SCHEMA, make_partials_fn, merge_partials, tile_partial
from .tiles import decimate_block, decimate_tile_batch, overview_levels, overview_schema

OTHERARGS_NAME = "__otherargs__"
OVERVIEW_SUFFIX = ".ovr"  # scratch partition of output X's overview rows: X.ovr


class ResampleNeededError(ValueError):
    """Inputs not aligned with the reference grid and no resampling
    requested (reference ``applier.py:1268-1272``)."""


class ApplierCancelledError(RuntimeError):
    """Raised when the registered progress object's ``wasCancelled()``
    returns True mid-run (reference ``cuiprogress.py:24-178`` duck-typed
    cancel protocol, checked per block)."""


@dataclass
class ApplierControls:
    """Engine config mirroring the reference's controls surface
    (``applier.py:59-858``), with the same setter names.  Per-image
    variants (``imagename`` last arg) store through the generic
    override channel; ``getOptionForImagename`` resolves override →
    global.  Setters whose GDAL concept collapses under Ray
    (concurrency style, gdalwarp overview use, single-pass pyramids)
    accept and record their value so reference scripts run unchanged —
    each documents what the engine does instead.

    Stats and pyramids are single-pass: the block task that runs the
    user function also emits one stats partial per (block, band) and
    one overview tile per (block, band, level), so closing an output
    re-reads nothing.  Stats recompute from the written tiles only for
    ``setSinglePass{BasicStats,Histogram}(False)``."""

    window_xsize: int = DEFAULT_BLOCK_XSIZE
    window_ysize: int = DEFAULT_BLOCK_YSIZE
    overlap: int = DEFAULT_OVERLAP
    footprint: int = DEFAULT_FOOTPRINT
    reference: str | None = None  # symbolic name of the reference input
    ref_pixgrid: PixelGrid | None = None
    selected_layers: dict = field(default_factory=dict)  # name -> [band,...]
    stats_ignore: dict = field(default_factory=dict)  # out name -> nullval
    stats_ignore_default: float | None = None  # global fallback
    calc_stats: bool = True
    thematic: dict = field(default_factory=dict)  # out name -> bool
    thematic_default: bool = False  # global fallback
    resample_method: str | None = None  # near/bilinear/average enables auto-resample
    # generic per-image override channel (reference applier.py:166-201):
    # (option, imagename) -> value, consulted before the global value
    option_overrides: dict = field(default_factory=dict)
    progress: object | None = None  # duck-typed: setProgress(pct), wasCancelled()
    before_close_hooks: list = field(default_factory=list)  # (func, args)
    # --- extent / planning ---
    files_for_extent: list | None = None  # subset of inputs that fold the footprint
    tempdir: str | None = None  # default out_dir / scratch parent
    # --- per-input reads ---
    input_nodata: float | None = None  # override input nullval for null-fill
    # --- output writing ---
    output_driver: str = "parquet"  # the engine's only storage driver
    creation_options: dict | None = None  # parquet writer args (compression, ...)
    layer_names: list | None = None  # output band names -> manifest
    # --- stats / pyramids at close ---
    omit_basic_stats: bool = False
    omit_histogram: bool = False
    omit_pyramids: bool = False  # reference builds overviews by default
    overview_levels: list | None = None
    overview_min_dim: int = 33  # reference DEFAULT_MINOVERVIEWDIM
    overview_agg_type: str = "NEAREST"
    approx_stats: bool = False  # sampled stats (reference approxStats)
    auto_color_table_type: str | None = None  # ramp name for thematic outputs
    # --- vector rasterization (per vector name via overrides) ---
    burn_value: int = 1
    burn_attribute: str | None = None
    vector_null: int = 0  # background value of the burned mask
    filter_sql: str | None = None  # DuckDB WHERE clause on the layer
    alltouched: bool = False  # only the pixel-center rule is implemented
    vector_datatype: str = "int32"
    vector_layer: int = 0
    # --- accepted-and-recorded (collapse under Ray; see setters) ---
    concurrency_style: object | None = None
    job_name: str | None = None
    allow_overviews_gdalwarp: bool = False
    single_pass_pyramids: bool | None = None
    single_pass_basic_stats: bool | None = None
    single_pass_histogram: bool | None = None

    def _set(self, attr, value, imagename=None):
        if imagename is None:
            setattr(self, attr, value)
        else:
            self.option_overrides[(attr, imagename)] = value

    def setWindowXsize(self, n):
        self.window_xsize = n

    def setWindowYsize(self, n):
        self.window_ysize = n

    def setWindowSize(self, x, y):
        """Both block dimensions at once (reference applier.py:299)."""
        self.window_xsize, self.window_ysize = x, y

    def setOverlap(self, n):
        self.overlap = n

    def setFootprintType(self, fp):
        self.footprint = fp

    def setReference(self, name):
        self.reference = name

    def setReferenceImage(self, name):
        """Reference spelling (applier.py:349) of :meth:`setReference`."""
        self.reference = name

    def setReferencePixgrid(self, grid):
        self.ref_pixgrid = grid

    def setFilesForExtent(self, names):
        """Only these inputs participate in the footprint fold
        (reference applier.py:336-348); the others must still overlap
        the resulting grid."""
        self.files_for_extent = list(names)

    def setTempdir(self, tempdir):
        """Default scratch/out_dir parent (reference applier.py:647)."""
        self.tempdir = tempdir

    def setInputNoDataValue(self, nodata, imagename=None):
        """Override the null value used when filling missing input
        blocks (reference applier.py:421-452)."""
        self._set("input_nodata", nodata, imagename)

    def setOutputDriverName(self, drivername, imagename=None):
        """The engine stores tile tables as parquet — the only
        accepted "driver" (reference applier.py:270-284 takes any GDAL
        short name; a GDAL name here would silently produce parquet,
        so reject instead)."""
        if str(drivername).lower() != "parquet":
            raise ValueError(
                f"unsupported output driver {drivername!r}: this engine "
                "writes parquet tile tables (use 'parquet')"
            )
        self._set("output_driver", str(drivername).lower(), imagename)

    def setCreationOptions(self, options, imagename=None):
        """Output writer options (reference applier.py:386-398 /
        GDAL creation options): a dict of pyarrow.parquet arguments,
        e.g. ``{"compression": "zstd"}``.  Defaults come from
        ``$RIOS_DFLT_CREOPT_PARQUET`` ("key=value key=value", reference
        const.py:49-95)."""
        self._set("creation_options", dict(options), imagename)

    def setLayerNames(self, names, imagename=None):
        """Output band names, stored in the manifest (reference
        applier.py:636-646)."""
        self._set("layer_names", list(names), imagename)

    def setOmitBasicStats(self, flag, imagename=None):
        self._set("omit_basic_stats", flag, imagename)

    def setOmitHistogram(self, flag, imagename=None):
        self._set("omit_histogram", flag, imagename)

    def setOmitPyramids(self, flag, imagename=None):
        self._set("omit_pyramids", flag, imagename)

    def setOverviewLevels(self, levels, imagename=None):
        self._set("overview_levels", list(levels), imagename)

    def setOverviewMinDim(self, min_dim, imagename=None):
        self._set("overview_min_dim", min_dim, imagename)

    def setOverviewAggregationType(self, agg, imagename=None):
        """Only NEAREST decimation is implemented (the reference
        passes the string to gdal BuildOverviews)."""
        if str(agg).upper() != "NEAREST":
            raise ValueError(
                "only NEAREST overview aggregation is implemented"
            )
        self._set("overview_agg_type", str(agg).upper(), imagename)

    def setApproxStats(self, flag, imagename=None):
        """Sampled (approximate) stats (reference applier.py:823-844;
        the CLI calcstats 'approx' path): stats cover every other row
        and column of each block, a deterministic 1/4 of the pixels
        whatever the block layout; the close-time recompute of
        ``setSinglePassBasicStats(False)`` takes the same sample."""
        self._set("approx_stats", flag, imagename)

    def setAutoColorTableType(self, colortype, imagename=None):
        """Attach a generated color table (any ramp name from
        :mod:`rios_ray.colorramps`, or rainbow/gray/random) to thematic
        outputs' manifests (reference applier.py:773-797)."""
        self._set("auto_color_table_type", colortype, imagename)

    # --- vector rasterization controls (per vector name) ---

    def setBurnValue(self, burnvalue, vectorname=None):
        self._set("burn_value", int(burnvalue), vectorname)

    def setBurnAttribute(self, burnattribute, vectorname=None):
        self._set("burn_attribute", burnattribute, vectorname)

    def setVectorNull(self, vectornull, vectorname=None):
        self._set("vector_null", int(vectornull), vectorname)

    def setFilterSQL(self, filtersql, vectorname=None):
        """SQL WHERE clause filtering layer features before
        rasterization (reference applier.py:692-698's OGR attribute
        filter) — evaluated with DuckDB on the driver-side table."""
        self._set("filter_sql", filtersql, vectorname)

    def setAlltouched(self, alltouched, vectorname=None):
        """``False`` (default): GDAL's pixel-CENTER rule.  ``True``:
        burn every pixel the polygon touches — center-inside pixels
        plus the supercover of every boundary edge
        (:func:`rios_ray.spatial.supercover_cells`; the reference
        passes ALL_TOUCHED to GDAL, applier.py:713-728 /
        imagereader.py:256-271).  Edge-on-gridline ties burn the
        floor() side (right/below), deterministically."""
        self._set("alltouched", bool(alltouched), vectorname)

    def setVectorDatatype(self, vectordatatype, vectorname=None):
        self._set("vector_datatype", str(np.dtype(vectordatatype)), vectorname)

    def setVectorlayer(self, vectorlayer, vectorname=None):
        """Layer index within a datasource; tile-table vector sources
        are single-layer, so only 0 is valid."""
        if int(vectorlayer) != 0:
            raise ValueError("vector sources here are single-layer (use 0)")
        self._set("vector_layer", int(vectorlayer), vectorname)

    # --- accepted-and-recorded ---

    def setConcurrencyStyle(self, concurrencyStyle):
        """Recorded only: worker/reader counts collapse into Ray Data's
        streaming scheduler (SURVEY §2.10; see BASELINE.md scaling
        runs for the equivalent evidence)."""
        self.concurrency_style = concurrencyStyle

    def setJobName(self, jobName):
        """Recorded only (reference uses it for batch-system job names)."""
        self.job_name = jobName

    def setAllowOverviewsGdalwarp(self, flag):
        """Recorded only: the engine's resample kernels always read
        full-resolution tiles (reference applier.py:798-822 guards a
        gdalwarp shortcut that does not exist here)."""
        self.allow_overviews_gdalwarp = bool(flag)

    def setSinglePassPyramids(self, flag, imagename=None):
        """Recorded only: overviews are always decimated inside the
        block task from each full-resolution block (with a
        ``callBeforeClose`` hook, from the post-hook table at close)."""
        self._set("single_pass_pyramids", flag, imagename)

    def setSinglePassBasicStats(self, flag, imagename=None):
        """``True``/``None`` (default): stats partials come out of the
        block task and merge at close.  ``False``: stats recompute at
        close with one streamed re-read of the written tiles (the
        reference's at-close semantics); same values, one more job."""
        self._set("single_pass_basic_stats", flag, imagename)

    def setSinglePassHistogram(self, flag, imagename=None):
        """As :meth:`setSinglePassBasicStats`: ``False`` recomputes the
        whole stats block, histogram included, at close."""
        self._set("single_pass_histogram", flag, imagename)

    def selectInputImageLayers(self, layers, imagename):
        """Layer numbers are 1-based, following the reference's GDAL
        convention (``applier.py:730-743``); selected layers are
        renumbered 1..n in the reduced set."""
        self.selected_layers[imagename] = [int(l) - 1 for l in layers]

    def setStatsIgnore(self, val, imagename=None):
        if imagename is None:
            self.stats_ignore_default = val
        else:
            self.stats_ignore[imagename] = val

    def setCalcStats(self, flag, imagename=None):
        self._set("calc_stats", flag, imagename)

    def setThematic(self, flag, imagename=None):
        if imagename is None:
            self.thematic_default = flag
        else:
            self.thematic[imagename] = flag

    def setResampleMethod(self, method):
        """Enable on-the-fly resampling of misaligned inputs onto the
        working grid (reference ``allowOverviewsGdalwarp``/warp-VRT
        path, ``imagereader.py:280-333``; method list accepted at
        ``applier.py:745-758``): "near", "bilinear" or "average"."""
        from .resample import RESAMPLE_METHODS

        if method is not None and method not in RESAMPLE_METHODS:
            raise ValueError(
                f"unknown resample method {method!r}; one of {RESAMPLE_METHODS}"
            )
        self.resample_method = method

    def setOptionForImagename(self, option, imagename, value):
        """Per-image override of any controls attribute, mirroring the
        reference's generic override dict (``applier.py:166-201``) —
        e.g. ``setOptionForImagename('calc_stats', 'mask', False)``."""
        self.option_overrides[(option, imagename)] = value

    def getOptionForImagename(self, option, imagename):
        if (option, imagename) in self.option_overrides:
            return self.option_overrides[(option, imagename)]
        return getattr(self, option)

    def setProgress(self, progress):
        """Register a duck-typed progress object (``setProgress(pct)``
        and optionally ``wasCancelled()``, reference
        ``cuiprogress.py:24-178``).  Progress is reported from a driver
        poller thread as blocks complete; if ``wasCancelled()`` turns
        True the run aborts with :class:`ApplierCancelledError`."""
        self.progress = progress

    def callBeforeClose(self, func, *args):
        """Register a pre-close hook (reference ``applier.py:845-858``):
        ``func(handle, *args)`` runs once per output just before the
        tile raster is written, where ``handle`` is a mutable dict
        ``{"name", "table", "stats", "path"}`` — the analogue of the
        reference passing the still-open GDAL dataset.  Mutations to
        ``handle["stats"]`` / ``handle["table"]`` are written."""
        self.before_close_hooks.append((func, args))


class ReaderInfo:
    """Per-block metadata given to the user function (reference
    ``readerinfo.py:94-400``)."""

    def __init__(self, working_grid: PixelGrid, block: BlockDefn, overlap: int,
                 xtotalblocks: int, ytotalblocks: int, block_xsize: int, block_ysize: int):
        self.working_grid = working_grid
        self.block = block
        self.overlap = overlap
        self.xtotalblocks = xtotalblocks
        self.ytotalblocks = ytotalblocks
        self.xblock = block.left // block_xsize
        self.yblock = block.top // block_ysize

    def getBlockSize(self):
        return (self.block.ncols, self.block.nrows)

    def getPixelSize(self):
        return (self.working_grid.x_res, self.working_grid.y_res)

    def getBlockBounds(self):
        return self.working_grid.block_bounds(self.block)

    def getBlockCoordArrays(self):
        """Pixel-centre world coordinates incl. the margin, matching the
        reference formula (``readerinfo.py:234-258``)."""
        g = self.working_grid
        ncols = self.block.ncols + 2 * self.overlap
        nrows = self.block.nrows + 2 * self.overlap
        tlx = g.x_min + self.block.left * g.x_res
        tly = g.y_max - self.block.top * g.y_res
        row_ndx, col_ndx = np.mgrid[0:nrows, 0:ncols]
        x = tlx - self.overlap * g.x_res + g.x_res / 2.0 + col_ndx * g.x_res
        y = tly + self.overlap * g.y_res - g.y_res / 2.0 - row_ndx * g.y_res
        return (x, y)

    def isFirstBlock(self):
        return self.xblock == 0 and self.yblock == 0

    def isLastBlock(self):
        return (
            self.xblock == self.xtotalblocks - 1 and self.yblock == self.ytotalblocks - 1
        )


@dataclass
class ApplierReturn:
    working_grid: PixelGrid
    other_args_list: list
    out_infos: dict
    n_blocks: int


FRAGMENT_SCHEMA = pa.schema(
    [
        ("block_id", pa.int64()),
        ("name", pa.string()),
        ("band", pa.int32()),
        ("dst_top", pa.int32()),
        ("dst_left", pa.int32()),
        ("frows", pa.int32()),
        ("fcols", pa.int32()),
        ("payload", pa.binary()),
    ]
)

OUT_SCHEMA = pa.schema(
    [
        ("name", pa.string()),
        ("tile_y", pa.int32()),
        ("tile_x", pa.int32()),
        ("top", pa.int32()),
        ("left", pa.int32()),
        ("nrows", pa.int32()),
        ("ncols", pa.int32()),
        ("band", pa.int32()),
        ("dtype", pa.string()),
        # M5: per-block NaN/Inf presence for float outputs, checked
        # where the block is already dense (reference imagewriter.py
        # checkForNanOrInf at write, warned once per file at close)
        ("nonfinite", pa.bool_()),
        ("payload", pa.binary()),
        # 1: a full-resolution tile; N > 1: an overview tile of level N
        # (name X.ovr), its position and shape in overview pixels
        ("level", pa.int32()),
    ]
    # the single-pass stats partial of a full-resolution tile
    + list(PARTIAL_SCHEMA)[3:]
)


def _block_geom(block_id: int, wg_nrows: int, wg_ncols: int, B_y: int, B_x: int):
    nbx = -(-wg_ncols // B_x)
    br, bc = divmod(block_id, nbx)
    top, left = br * B_y, bc * B_x
    return top, left, min(B_y, wg_nrows - top), min(B_x, wg_ncols - left)


def make_fragment_fn(name: str, dtype, off_y: int, off_x: int, wg_nrows: int,
                     wg_ncols: int, B_y: int, B_x: int, margin: int,
                     selected: list[int] | None = None):
    """Tile rows -> margin-aware fragments addressed to working blocks."""
    dtype = np.dtype(dtype)
    nbx = -(-wg_ncols // B_x)
    nby = -(-wg_nrows // B_y)

    def fragment(batch: pa.Table) -> pa.Table:
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
            band = int(bands[i])
            if selected is not None:
                if band not in selected:
                    continue
                out_band = selected.index(band)
            else:
                out_band = band
            nr, nc = int(nrs[i]), int(ncs[i])
            arr = flat[offsets[i] : offsets[i + 1]].reshape(nr, nc)
            wr0, wc0 = int(tops[i]) + off_y, int(lefts[i]) + off_x
            wr1, wc1 = wr0 + nr, wc0 + nc
            br_lo = max(0, (wr0 - margin - B_y + 1) // B_y)
            br_hi = min(nby - 1, (wr1 - 1 + margin) // B_y)
            bc_lo = max(0, (wc0 - margin - B_x + 1) // B_x)
            bc_hi = min(nbx - 1, (wc1 - 1 + margin) // B_x)
            for br in range(br_lo, br_hi + 1):
                bt = br * B_y
                ys = min(B_y, wg_nrows - bt)
                r0 = max(wr0, bt - margin)
                r1 = min(wr1, bt + ys + margin)
                if r0 >= r1:
                    continue
                for bc in range(bc_lo, bc_hi + 1):
                    bl = bc * B_x
                    xs = min(B_x, wg_ncols - bl)
                    c0 = max(wc0, bl - margin)
                    c1 = min(wc1, bl + xs + margin)
                    if c0 >= c1:
                        continue
                    sub = arr[r0 - wr0 : r1 - wr0, c0 - wc0 : c1 - wc0]
                    rows.append(
                        {
                            "block_id": br * nbx + bc,
                            "name": name,
                            "band": out_band,
                            "dst_top": r0 - (bt - margin),
                            "dst_left": c0 - (bl - margin),
                            "frows": r1 - r0,
                            "fcols": c1 - c0,
                            "payload": np.ascontiguousarray(sub).tobytes(),
                        }
                    )
        return pa.Table.from_pylist(rows, schema=FRAGMENT_SCHEMA)

    return fragment


class _ProgressState:
    """Block-completion counter + cancel flag shared between the driver
    poller thread and the assemble tasks (wrapped in a zero-cpu Ray
    actor only when a progress object is registered — no overhead
    otherwise)."""

    def __init__(self):
        self.done = 0
        self.cancel = False

    def incr(self) -> bool:
        self.done += 1
        return self.cancel

    def set_cancelled(self):
        self.cancel = True

    def state(self):
        return self.done, self.cancel


def make_assemble_fn(user_fn, input_meta: dict, wg: PixelGrid, B_y: int, B_x: int,
                     margin: int, other_args=None, progress_actor=None,
                     side: dict | None = None):
    """groupby(block_id).map_groups body: align inputs, nodata-fill, run
    the user function, margin-trim outputs.  ``side`` (output name ->
    :func:`_side_plan`) asks for each output's stats partials and
    overview tiles, emitted from the trimmed block beside its tile rows."""
    side = side or {}
    wg_nrows, wg_ncols = wg.dimensions()
    nbx = -(-wg_ncols // B_x)
    nby = -(-wg_nrows // B_y)

    def assemble(group: pa.Table) -> pa.Table:
        if progress_actor is not None:
            import ray

            if ray.get(progress_actor.incr.remote()):
                raise ApplierCancelledError("cancelled by progress object")
        block_id = int(group["block_id"][0].as_py())
        top, left, ys, xs = _block_geom(block_id, wg_nrows, wg_ncols, B_y, B_x)
        block = BlockDefn(top, left, ys, xs)
        inputs = SimpleNamespace()
        for name, meta in input_meta.items():
            fill = meta["nullval"] if meta["nullval"] is not None else 0
            arr = np.full(
                (meta["nbands"], ys + 2 * margin, xs + 2 * margin),
                fill,
                dtype=np.dtype(meta["dtype"]),
            )
            setattr(inputs, name, arr)
        names = group["name"].to_pylist()
        bands = group["band"].to_numpy(zero_copy_only=False)
        d_tops = group["dst_top"].to_numpy(zero_copy_only=False)
        d_lefts = group["dst_left"].to_numpy(zero_copy_only=False)
        frows = group["frows"].to_numpy(zero_copy_only=False)
        fcols = group["fcols"].to_numpy(zero_copy_only=False)
        payloads = group["payload"]
        for i in range(group.num_rows):
            meta = input_meta[names[i]]
            sub = np.frombuffer(
                payloads[i].as_py(), dtype=np.dtype(meta["dtype"])
            ).reshape(int(frows[i]), int(fcols[i]))
            arr = getattr(inputs, names[i])
            arr[
                int(bands[i]),
                int(d_tops[i]) : int(d_tops[i]) + int(frows[i]),
                int(d_lefts[i]) : int(d_lefts[i]) + int(fcols[i]),
            ] = sub

        info = ReaderInfo(wg, block, margin, nbx, nby, B_x, B_y)
        outputs = SimpleNamespace()
        oa = copy.deepcopy(other_args) if other_args is not None else None
        if oa is not None:
            user_fn(info, inputs, outputs, oa)
        else:
            user_fn(info, inputs, outputs)

        out_rows = []

        def emit(**row):
            out_rows.append({
                "tile_y": top // B_y, "tile_x": left // B_x, "top": top,
                "left": left, "nrows": ys, "ncols": xs, "level": 1,
                "nonfinite": False, **row,
            })

        for name, arr in vars(outputs).items():
            arr = np.asarray(arr)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            if margin:
                arr = arr[:, margin:-margin or None, margin:-margin or None]
            plan = side.get(name, {})
            for b in range(arr.shape[0]):
                plane = np.ascontiguousarray(arr[b])
                partial = {"band": b}
                if plan.get("stats"):
                    step = plan["step"]
                    partial = tile_partial(plane[::step, ::step], *plan["stats"]).to_row(b)
                emit(
                    name=name, dtype=str(arr.dtype),
                    nonfinite=bool(
                        arr.dtype.kind in "fc" and not np.isfinite(plane).all()
                    ),
                    payload=plane.tobytes(), **partial,
                )
                for lvl in plan.get("levels", ()):
                    sub, dst_top, dst_left = decimate_block(plane, top, left, lvl)
                    if sub.size:
                        emit(
                            name=name + OVERVIEW_SUFFIX, band=b, dtype=str(arr.dtype),
                            level=lvl,
                            top=dst_top, left=dst_left, nrows=sub.shape[0],
                            ncols=sub.shape[1],
                            payload=np.ascontiguousarray(sub).tobytes(),
                        )
        if oa is not None:
            emit(name=OTHERARGS_NAME, band=-1, dtype="object",
                 payload=pickle.dumps(oa))
        return pa.Table.from_pylist(out_rows, schema=OUT_SCHEMA)

    return assemble


def _materialize_warped(ti, wg, out_dir, method, prefix, warp):
    """Write a warped input as a temp tile table the applier then reads
    as a normal aligned input (the reference prepares a warp VRT once
    per input before block reading, ``imagereader.py:280-333``).

    Dtype: for "near" the warped raster is cast back to the SOURCE
    dtype (nearest never invents values; the reference warp-VRT path
    preserves dtype) — merge_tile_patches sums in float64 so the cast
    is needed.  Interpolating methods (bilinear/average) stay float64,
    matching GDAL's practical promotion for fractional results.
    """
    import tempfile

    import ray.data

    from .sources.tileraster import TileRasterInfo

    tmp = tempfile.mkdtemp(prefix=prefix, dir=out_dir or "/tmp")
    ds = ray.data.read_parquet(ti.path)
    warped = warp(ds)
    src_dtype = str(np.dtype(ti.dtype))
    out_dtype = src_dtype if method == "near" else "float64"
    if out_dtype != "float64":
        import pyarrow.compute as _pc

        target = pa.list_(pa.from_numpy_dtype(np.dtype(out_dtype)))

        def cast_back(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("data"),
                "data",
                _pc.cast(b["data"], target, safe=False),
            )

        warped = warped.map_batches(
            cast_back, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
    warped.write_parquet(tmp)
    return TileRasterInfo(
        path=tmp, grid=wg, nbands=ti.nbands, dtype=out_dtype,
        nullval=ti.nullval, thematic=ti.thematic, layer_names=ti.layer_names,
    )


def _reproject_input(ti, wg, out_dir, method="near"):
    """Materialize a cross-CRS input onto the working grid (warped
    resample via the registered axis-separable transforms) — the
    reference's gdalwarp-VRT-per-input path (``imagereader.py:280-333``)
    for projections, one warp per input per run."""
    from .reproject import reproject_raster

    return _materialize_warped(
        ti, wg, out_dir, method, "reproject_",
        lambda ds: reproject_raster(ds, ti.grid, wg, method=method),
    )


def _resample_input(ti, wg, out_dir, method="near"):
    """Materialize a misaligned same-CRS input onto the working grid."""
    from .resample import resample_grid

    return _materialize_warped(
        ti, wg, out_dir, method, "resample_",
        lambda ds: resample_grid(ds, ti.grid, wg, method=method),
    )


@dataclass
class VectorInput:
    """A polygon-layer input to :func:`apply`, rasterized onto the
    working grid on the fly (reference ``imagereader.py:195-276`` +
    ``RasterizationMgr`` build-once semantics, ``structures.py:1062-1096``).

    - ``burn_col``: polygon attribute burned into the mask (None -> 1),
      mirroring ``burnAttribute``/``burnvalue`` (``applier.py:692-728``).
    - ``where``: simple (column, value) equality filter applied BEFORE
      rasterization — the ``filtersql`` analogue (M11).
    - ``projection``: CRS of the ring coordinates; when it differs from
      the working grid's, rings are transformed through the
      ``reproject`` registry before rasterization (the reference
      reprojects vectors with OGR before burning,
      ``imagereader.py:195-276`` / testvector reproj case).
    - Pixel-center containment rule (``allTouched=False`` default of the
      reference); overlapping polygons burn last-in-file-order wins
      (GDAL feature-order semantics).
    """

    source: "str | object"  # parquet path or pyarrow Table
    burn_col: str | None = None
    where: tuple | None = None
    projection: str | None = None  # None -> assume working-grid CRS


def _clip_segments(c0, r0, c1, r1, cmin: float, cmax: float,
                   rmin: float, rmax: float):
    """Vectorized Liang-Barsky: clip each segment to the rectangle
    [cmin, cmax] x [rmin, rmax] in continuous cell coordinates.
    Returns (keep mask, clipped c0, r0, c1, r1 for the kept rows)."""
    dc, dr = c1 - c0, r1 - r0
    t0 = np.zeros(len(c0))
    t1 = np.ones(len(c0))
    keep = np.ones(len(c0), dtype=bool)
    for p, q in ((-dc, c0 - cmin), (dc, cmax - c0),
                 (-dr, r0 - rmin), (dr, rmax - r0)):
        zero = p == 0.0
        keep &= ~(zero & (q < 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = q / p
        t0 = np.where(~zero & (p < 0.0), np.maximum(t0, t), t0)
        t1 = np.where(~zero & (p > 0.0), np.minimum(t1, t), t1)
    keep &= t0 <= t1
    cc0 = c0 + t0 * dc
    rr0 = r0 + t0 * dr
    cc1 = c0 + t1 * dc
    rr1 = r0 + t1 * dr
    return keep, cc0[keep], rr0[keep], cc1[keep], rr1[keep]


def _rasterize_vector(vi: VectorInput, wg, B_y: int, B_x: int, out_dir,
                      controls: "ApplierControls | None" = None,
                      name: str | None = None):
    """Vector layer -> temp tile raster on the working grid (one Ray
    task per block; the polygon index ships once via the object store).
    Honors the per-vector controls (burn value/attribute, vector null,
    filter SQL, datatype — reference applier.py:663-744)."""
    import tempfile

    import pyarrow.compute as pc
    import ray
    import ray.data

    from .gridmodel import make_block_list
    from .spatial import PolygonIndex

    def opt(attr):
        if controls is None:
            return getattr(ApplierControls(), attr)
        return controls.getOptionForImagename(attr, name)

    table = pq.read_table(vi.source) if isinstance(vi.source, str) else vi.source
    if vi.where is not None:
        col, val = vi.where
        table = table.filter(pc.equal(table[col], val))
    filter_sql = opt("filter_sql")
    if filter_sql is not None:
        # the reference applies an OGR attribute filter
        # (applier.py:692-698); here DuckDB evaluates the WHERE clause
        # against the (small, driver-side) layer table
        import duckdb

        con = duckdb.connect()
        con.register("layer", table)
        table = con.execute(f"SELECT * FROM layer WHERE {filter_sql}").arrow()
        con.close()
    if vi.projection is not None and vi.projection != wg.projection:
        # reproject ring coordinates onto the working grid's CRS once,
        # driver-side (vector layers are the small side by contract)
        from .reproject import get_xy_transform

        f = get_xy_transform(vi.projection, wg.projection)
        new_rings = []
        for ring in table["ring_xy"].to_pylist():
            r = np.asarray(ring, dtype=np.float64)
            rx, ry = f(r[:, 0], r[:, 1])
            new_rings.append(np.stack([rx, ry], axis=1).tolist())
        idx = table.schema.get_field_index("ring_xy")
        table = table.set_column(idx, "ring_xy", pa.array(new_rings))
    v_dtype = np.dtype(opt("vector_datatype"))
    v_null = opt("vector_null")
    burn_col = vi.burn_col or opt("burn_attribute")
    if burn_col is not None:
        burns = table[burn_col].to_numpy(zero_copy_only=False).astype(v_dtype)
    else:
        burns = np.full(table.num_rows, opt("burn_value"), dtype=v_dtype)
    # last-in-file-order wins for overlaps: rank polygons by position
    order_of = {int(p): i for i, p in enumerate(table["poly_id"].to_pylist())}
    table_ref = ray.put((table, burns, order_of))

    blocks = make_block_list(wg, B_y, B_x)
    items = [
        {"top": b.top, "left": b.left, "nrows": b.nrows, "ncols": b.ncols}
        for b in blocks
    ]

    x_min, y_max, xr, yr = wg.x_min, wg.y_max, wg.x_res, wg.y_res
    all_touched = bool(opt("alltouched"))

    def burn_block(batch: pa.Table) -> pa.Table:
        from .spatial import supercover_cells

        tbl, burns_, order_ = ray.get(table_ref)
        index = PolygonIndex.from_arrow(tbl)
        tbl_ids = tbl["poly_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # map global poly_id -> table position (vectorized), and table
        # position -> file rank for the last-in-file-order overlap rule
        id_sort = np.argsort(tbl_ids)
        ids_sorted = tbl_ids[id_sort]
        rank_of_pos = np.array(
            [order_[int(p)] for p in tbl_ids], dtype=np.int64
        )
        if all_touched:
            # polygon edges in continuous pixel coordinates, once per task
            ec1 = (index.ex1 - x_min) / xr
            er1 = (y_max - index.ey1) / yr
            ec2 = (index.ex2 - x_min) / xr
            er2 = (y_max - index.ey2) / yr
            elo_c, ehi_c = np.minimum(ec1, ec2), np.maximum(ec1, ec2)
            elo_r, ehi_r = np.minimum(er1, er2), np.maximum(er1, er2)
        rows = []
        for rec in batch.to_pylist():
            top, left = rec["top"], rec["left"]
            nr, nc = rec["nrows"], rec["ncols"]
            cx = x_min + (left + np.arange(nc) + 0.5) * xr
            cy = y_max - (top + np.arange(nr) + 0.5) * yr
            px = np.repeat(cx[None, :], nr, axis=0).ravel()
            py = np.repeat(cy[:, None], nc, axis=1).ravel()
            pt_idx, poly_ids = index.contains(px, py)
            pos = (
                id_sort[np.searchsorted(ids_sorted, poly_ids)]
                if len(pt_idx)
                else np.empty(0, np.int64)
            )
            idx_parts, pos_parts = [pt_idx], [pos]
            if all_touched:
                # supercover of every edge whose pixel bbox meets the
                # block: all-touched = center-inside UNION edge cells
                # (a cell meeting the interior with its center outside
                # must contain boundary).  Each selected edge is FIRST
                # parametrically clipped to the block rectangle
                # (vectorized Liang-Barsky) so the crossing walk is
                # O(edge length INSIDE the block) — without the clip a
                # long edge re-walks its full length once per block it
                # touches (O(blocks x length) at scale)
                m = (
                    (ehi_c >= left) & (elo_c < left + nc)
                    & (ehi_r >= top) & (elo_r < top + nr)
                )
                if m.any():
                    sel = np.flatnonzero(m)
                    keep, cc0, rr0, cc1, rr1 = _clip_segments(
                        ec1[sel], er1[sel], ec2[sel], er2[sel],
                        float(left), float(left + nc),
                        float(top), float(top + nr),
                    )
                    sel = sel[keep]
                    sidx, rws, cls_ = supercover_cells(cc0, rr0, cc1, rr1)
                    inb = (
                        (rws >= top) & (rws < top + nr)
                        & (cls_ >= left) & (cls_ < left + nc)
                    )
                    sidx, rws, cls_ = sidx[inb], rws[inb], cls_[inb]
                    idx_parts.append((rws - top) * nc + (cls_ - left))
                    pos_parts.append(index.epoly[sel[sidx]])
            mask = np.full(nr * nc, v_null, dtype=v_dtype)
            idx_all = np.concatenate(idx_parts)
            if len(idx_all):
                pos_all = np.concatenate(pos_parts)
                # overlap rule: keep the pair whose polygon is LAST in
                # file order (sort by rank, later assignments overwrite)
                srt = np.argsort(rank_of_pos[pos_all], kind="stable")
                mask[idx_all[srt]] = burns_[pos_all[srt]]
            rows.append(
                {
                    "tile_y": top // B_y,
                    "tile_x": left // B_x,
                    "top": top,
                    "left": left,
                    "nrows": nr,
                    "ncols": nc,
                    "band": 0,
                    "data": mask,
                }
            )
        schema = TILE_SCHEMA.set(7, pa.field("data", pa.list_(pa.from_numpy_dtype(v_dtype))))
        return pa.Table.from_pylist(rows, schema=schema)

    tmp = tempfile.mkdtemp(prefix="rasterized_", dir=out_dir or "/tmp")
    ray.data.from_items(items).map_batches(
        burn_block, batch_format="pyarrow", batch_size=8
    ).write_parquet(tmp)
    return TileRasterInfo(
        path=tmp, grid=wg, nbands=1, dtype=str(v_dtype), nullval=v_null,
        thematic=True,
    )


def _resolve_input(spec):
    """Accept TileRasterInfo, path, VectorInput, or a pyarrow table."""
    if isinstance(spec, (TileRasterInfo, VectorInput)):
        return spec
    if isinstance(spec, str):
        return TileRasterInfo.read(spec)
    raise TypeError(f"unsupported input spec {type(spec)}")


def apply(user_fn, infiles: dict, outfiles: dict, other_args=None,
          controls: ApplierControls | None = None, out_dir: str | None = None) -> ApplierReturn:
    """Run ``user_fn`` over every block of the working grid.

    ``infiles``: symbolic name -> TileRasterInfo or tile-raster path.
    ``outfiles``: symbolic name -> output parquet path.
    Returns ApplierReturn with per-block other_args copies (user merges,
    same contract as reference ``applier.py:1182-1192``).
    """
    import ray.data

    controls = controls or ApplierControls()
    if out_dir is None:
        out_dir = controls.tempdir  # setTempdir default scratch parent
    inputs = {name: _resolve_input(spec) for name, spec in infiles.items()}

    # ---- plan (driver) ----
    vector_names = [n for n, ti in inputs.items() if isinstance(ti, VectorInput)]
    extent_names = [
        n for n in inputs
        if n not in vector_names
        and (controls.files_for_extent is None or n in controls.files_for_extent)
    ]
    all_grids = [inputs[n].grid for n in extent_names]
    if not all_grids:
        raise ValueError("at least one raster input is required")
    if controls.ref_pixgrid is not None:
        ref = controls.ref_pixgrid
    elif controls.reference is not None:
        ref = inputs[controls.reference].grid
    else:
        ref = all_grids[0]
        for g in all_grids[1:]:
            if g.projection == ref.projection and not ref.aligned_with(g):
                raise ResampleNeededError(
                    "input grids not aligned and no reference set"
                )
    # cross-CRS inputs are warped onto the working grid below and do
    # not participate in footprint folding (reference semantics: a
    # reprojected run needs a reference grid, imagereader.py:280-333)
    grids = [g for g in all_grids if g.projection == ref.projection]
    if grids:
        wg = find_common_region(grids, ref, controls.footprint)
    elif controls.ref_pixgrid is not None:
        # every input is cross-CRS: the explicit reference grid IS the
        # working grid (BOUNDS_FROM_REFERENCE semantics)
        wg = ref
    else:
        raise ResampleNeededError(
            "no input shares the reference projection; set a reference pixgrid"
        )
    B_y, B_x = controls.window_ysize, controls.window_xsize
    # rasterize vector inputs onto the working grid (reference S6)
    for name in vector_names:
        inputs[name] = _rasterize_vector(inputs[name], wg, B_y, B_x, out_dir,
                                         controls=controls, name=name)
    # on-the-fly resample / reproject of misaligned inputs (reference
    # warp-VRT path)
    for name in list(inputs):
        ti = inputs[name]
        method = controls.resample_method
        if ti.grid.projection != wg.projection:
            if method is None:
                raise ResampleNeededError(
                    f"input {name!r} is in {ti.grid.projection}, working grid "
                    f"is {wg.projection}; call controls.setResampleMethod()"
                )
            inputs[name] = _reproject_input(ti, wg, out_dir, method)
        elif not wg.aligned_with(ti.grid):
            if method is None:
                raise ResampleNeededError(
                    f"input {name!r} not aligned with working grid; "
                    "call controls.setResampleMethod()"
                )
            inputs[name] = _resample_input(ti, wg, out_dir, method)
    # per-input nodata override for null-fill (setInputNoDataValue)
    for name in list(inputs):
        nd = controls.getOptionForImagename("input_nodata", name)
        if nd is not None:
            import dataclasses as _dc

            inputs[name] = _dc.replace(inputs[name], nullval=nd)
    wg_nrows, wg_ncols = wg.dimensions()
    m = controls.overlap
    nbx = -(-wg_ncols // B_x)
    nby = -(-wg_nrows // B_y)

    # ---- fragment each input ----
    frag_ds = None
    input_meta = {}
    for name, ti in inputs.items():
        selected = controls.selected_layers.get(name)
        nbands = len(selected) if selected else ti.nbands
        input_meta[name] = {
            "nbands": nbands,
            "dtype": ti.dtype,
            "nullval": ti.nullval,
        }
        # input pixel (r, c) lands at working pixel (r + off_y, c + off_x):
        # y = in.y_max - r*res  =>  working row = (wg.y_max - y)/res
        off_y = int(round((wg.y_max - ti.grid.y_max) / wg.y_res))
        off_x = int(round((ti.grid.x_min - wg.x_min) / wg.x_res))
        ds = ray.data.read_parquet(ti.path)
        f = ds.map_batches(
            make_fragment_fn(
                name, ti.dtype, off_y, off_x, wg_nrows, wg_ncols, B_y, B_x, m, selected
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        frag_ds = f if frag_ds is None else frag_ds.union(f)

    # ---- progress / cancellation plumbing (only when registered) ----
    progress_actor = None
    poller = None
    stop_evt = None
    if controls.progress is not None:
        import threading

        import ray

        progress_actor = ray.remote(num_cpus=0)(_ProgressState).remote()
        n_blocks_total = nbx * nby
        prog, actor = controls.progress, progress_actor
        stop_evt = threading.Event()

        def _poll():
            while not stop_evt.is_set():
                done, _ = ray.get(actor.state.remote())
                prog.setProgress(min(100, int(100 * done / max(1, n_blocks_total))))
                if getattr(prog, "wasCancelled", lambda: False)():
                    ray.get(actor.set_cancelled.remote())
                    return
                stop_evt.wait(0.2)

        poller = threading.Thread(target=_poll, daemon=True)
        poller.start()

    # ---- assemble + user fn + margin trim (+ stats partials, overviews) ----
    side = {name: _side_plan(name, controls, wg) for name in outfiles}
    hooks = bool(controls.before_close_hooks)  # overviews then come from the hooked table
    out_ds = frag_ds.groupby("block_id").map_groups(
        make_assemble_fn(user_fn, input_meta, wg, B_y, B_x, m, other_args, progress_actor,
                         {n: {**p, "levels": []} if hooks else p for n, p in side.items()}),
        batch_format="pyarrow",
    )

    # ---- write all outputs in one pass, partitioned by name ----
    if out_dir is None:
        out_dir = os.path.commonpath(list(outfiles.values())) if len(outfiles) > 1 else (
            os.path.dirname(next(iter(outfiles.values()))) or "."
        )
    # unique per-run scratch: a fixed name would make a second apply()
    # into the same out_dir read the first run's leftover fragments
    # (write_parquet appends into an existing directory)
    import tempfile as _tempfile

    os.makedirs(out_dir, exist_ok=True)
    scratch = _tempfile.mkdtemp(prefix="_applier_run_", dir=out_dir)
    try:
        out_ds.write_parquet(scratch, partition_cols=["name"])
    except Exception as e:
        # walk the full cause chain for a real ApplierCancelledError
        # instance (Ray wraps task errors with a .cause attribute;
        # plain exceptions chain via __cause__/__context__) — never
        # string-match, and never swallow genuine task errors.
        def _chain_has_cancel(err: BaseException) -> bool:
            stack, seen = [err], 0
            while stack and seen < 32:
                cur = stack.pop()
                seen += 1
                if isinstance(cur, ApplierCancelledError):
                    return True
                for nxt in (
                    getattr(cur, "cause", None),
                    cur.__cause__,
                    cur.__context__,
                ):
                    if isinstance(nxt, BaseException) and nxt is not cur:
                        stack.append(nxt)
            return False

        cancelled = _chain_has_cancel(e)
        if not cancelled and progress_actor is not None:
            try:
                cancelled = bool(ray.get(progress_actor.state.remote())[1])
            except Exception:  # noqa: BLE001 — actor may be gone at teardown
                pass
        if cancelled:
            raise ApplierCancelledError("cancelled by progress object") from e
        raise
    finally:
        if stop_evt is not None:
            stop_evt.set()
            poller.join(timeout=2)
    if controls.progress is not None:
        controls.progress.setProgress(100)

    # ---- finalize: per-output manifest + optional stats; other_args ----
    other_args_list = []
    oa_dir = os.path.join(scratch, f"name={OTHERARGS_NAME}")
    if os.path.isdir(oa_dir):
        t = pq.read_table(oa_dir, columns=["payload"])
        other_args_list = [pickle.loads(b.as_py()) for b in t["payload"]]

    out_infos = {}
    try:
        for name, path in outfiles.items():
            out_infos[name] = _finalize(name, path, os.path.join(scratch, f"name={name}"),
                                        wg, controls, side[name])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return ApplierReturn(wg, other_args_list, out_infos, nbx * nby)


def _out_options(name: str, controls: ApplierControls):
    nullval = controls.option_overrides.get(
        ("stats_ignore", name),
        controls.stats_ignore.get(name, controls.stats_ignore_default),
    )
    thematic = controls.option_overrides.get(
        ("thematic", name),
        controls.thematic.get(name, controls.thematic_default),
    )
    return nullval, thematic


def _side_plan(name: str, controls: ApplierControls, wg: PixelGrid) -> dict:
    """What the block task emits beside output ``name``'s tiles: an
    overview tile per level in ``"levels"``, and stats partials with the
    (nullval, thematic, include_hist) in ``"stats"`` over every
    ``"step"``-th pixel row and column.  ``"stats"`` is None when stats
    recompute at close, absent when they are off."""
    opt = lambda k: controls.getOptionForImagename(k, name)  # noqa: E731
    plan = {"levels": [] if opt("omit_pyramids") else overview_levels(
        *wg.dimensions(), opt("overview_levels"), opt("overview_min_dim")),
        "step": 2 if opt("approx_stats") else 1}
    if opt("calc_stats") and not (opt("omit_basic_stats") and opt("omit_histogram")):
        single = not (opt("single_pass_basic_stats") is False
                      or opt("single_pass_histogram") is False)
        nullval, thematic = _out_options(name, controls)
        plan["stats"] = (nullval, thematic, not opt("omit_histogram")) if single else None
    return plan


def _stats_dict(merged_accs: dict, include_basic: bool = True,
                include_hist: bool = False) -> dict | None:
    """Assemble the sidecar stats dict, honoring the two omit flags
    INDEPENDENTLY (reference skips basic stats and histogram per-flag,
    not only when both are set): ``include_basic`` gates the
    min/max/mean/stddev/count block, ``include_hist`` gates the
    histogram-derived median/mode block (calcstats.py:954-970 rules,
    same format the CLI calcstats writes)."""
    stats = {}
    for b, acc in sorted(merged_accs.items()):
        entry = {}
        if include_basic:
            mn, mx, mean, std = acc.final_stats()
            entry.update({
                "min": None if mn is None else float(mn),
                "max": None if mx is None else float(mx),
                "mean": mean,
                "stddev": std,
                "count": acc.count,
            })
        if include_hist:
            hmin, hmax, counts = acc.full_hist()
            if hmin is not None and counts is not None and counts.sum() > 0:
                half = counts.sum() / 2.0
                entry["median"] = float(
                    hmin + int(np.searchsorted(np.cumsum(counts), half))
                )
                entry["mode"] = float(hmin + int(np.argmax(counts)))
        if entry:
            stats[str(b)] = entry
    return stats or None


TILE_KEYS = ("tile_y", "tile_x", "top", "left", "nrows", "ncols", "band")
OVERVIEW_KEYS = ("level", "top", "left", "nrows", "ncols", "band")


def make_canonical_fn(dtype, keys=TILE_KEYS):
    """map_batches kernel: scratch rows (binary payload) -> canonical
    tile rows (``keys`` + ``data: list<T>``), vectorized per batch."""
    np_dtype = np.dtype(dtype)
    pa_dtype = pa.from_numpy_dtype(np_dtype)

    def canonical(b: pa.Table) -> pa.Table:
        payloads = b["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        flat = np.frombuffer(b"".join(payloads.to_pylist()), dtype=np_dtype)
        lengths = (
            b["nrows"].to_numpy(zero_copy_only=False).astype(np.int64)
            * b["ncols"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        offs = np.concatenate([[0], np.cumsum(lengths)])
        data = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()), pa.array(flat, type=pa_dtype)
        )
        return pa.table({**{k: b[k] for k in keys}, "data": data})

    return canonical


def _delete_if_existing(path: str):
    """S10 ``deleteIfExisting`` semantics for both layouts, together
    with the output's manifest and overview sidecars."""
    for p in (path, path + ".grid.json", path + ".ovr"):
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)


def _finalize(name: str, path: str, part: str, wg: PixelGrid,
              controls: ApplierControls, plan: dict):
    """Close one output from its scratch partition ``part``.

    Without ``callBeforeClose`` hooks the raster never reaches the
    driver: one Ray Data job rewrites the scratch tiles into a parquet
    DIRECTORY (many files — resumable output), stats merge from the
    partials the block tasks emitted, and the emitted overview rows
    stream into ``path + ".ovr"``.  Hooks receive the open in-memory
    handle (reference ``applier.py:845-858``), so the output is
    assembled on the driver and written as one file; stats recompute
    if a hook rewrites the table but not the stats, and overviews
    decimate the post-hook table.  Stats that are not single-pass
    recompute from the written tiles (``calcstats.py``, S9/A7).
    """
    import pyarrow.dataset as pads
    import ray.data

    from .sources.tileraster import write_manifest

    hooks = controls.before_close_hooks
    opt = lambda k: controls.getOptionForImagename(k, name)  # noqa: E731
    skip = {"name", "hist_pos", "hist_neg"} | (set() if hooks else {"payload"})
    t = pq.read_table(  # metadata-sized unless hooks need the pixels
        part, columns=[f for f in OUT_SCHEMA.names if f not in skip])
    dtype = t["dtype"][0].as_py()
    nbands = int(pa.compute.max(t["band"]).as_py()) + 1
    nullval, thematic = _out_options(name, controls)
    if pa.compute.any(t["nonfinite"]).as_py():
        # once per output (reference warnNanOrInf, imagewriter.py:331-360)
        warnings.warn(f"NaN or Inf values written to output {path!r}", RuntimeWarning)

    def close_stats(partials) -> dict | None:
        include_hist = np.dtype(dtype).kind in "iu" and not opt("omit_histogram")
        return _stats_dict(
            merge_partials(partials, nullval, thematic, np.dtype(dtype)),
            include_basic=not opt("omit_basic_stats"), include_hist=include_hist,
        )

    partials_fn = make_partials_fn(dtype, nullval, thematic,
                                   include_hist=not opt("omit_histogram"), step=plan["step"])
    write_args = _creation_options(name, controls)
    if hooks:
        table = make_canonical_fn(dtype)(t)
    else:
        _delete_if_existing(path)
        ray.data.read_parquet(part, columns=[*TILE_KEYS, "payload"]).map_batches(
            make_canonical_fn(dtype), batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(path, **write_args)

    stats = None
    if plan.get("stats"):  # histograms stream past, a few tiles' worth at a time
        stats = close_stats(pads.dataset(part).to_batches(
            columns=PARTIAL_SCHEMA.names, batch_size=8, batch_readahead=1,
            fragment_readahead=1))
    elif "stats" in plan and hooks:
        stats = close_stats([partials_fn(table)])
    elif "stats" in plan:
        stats = close_stats(ray.data.read_parquet(path).map_batches(
            partials_fn, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow", batch_size=None))

    if hooks:
        handle = {"name": name, "table": table, "stats": stats, "path": path}
        stats_before = copy.deepcopy(stats)
        for func, hook_args in hooks:
            func(handle, *hook_args)
        if (stats is not None and handle["table"] is not table
                and handle["stats"] == stats_before):
            handle["stats"] = close_stats([partials_fn(handle["table"])])
        table, stats = handle["table"], handle["stats"]
        _delete_if_existing(path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(table, path, **write_args)

    # overview pyramids (reference imagewriter BuildOverviews, NEAREST),
    # written alongside the output like GDAL's .ovr, streamed so they
    # are never held whole
    overviews = None
    if plan["levels"]:
        if hooks:
            ovr_tables = (decimate_tile_batch(table, lvl, dtype) for lvl in plan["levels"])
        elif os.path.isdir(part + OVERVIEW_SUFFIX):
            ovr_tables = (
                make_canonical_fn(dtype, OVERVIEW_KEYS)(pa.Table.from_batches([b]))
                for b in pads.dataset(part + OVERVIEW_SUFFIX).to_batches(
                    columns=[*OVERVIEW_KEYS, "payload"], batch_size=256)
            )
        else:  # no block held a sample of any level
            ovr_tables = ()
        overviews = {"levels": plan["levels"], "path": path + ".ovr"}
        os.makedirs(overviews["path"])
        with pq.ParquetWriter(os.path.join(overviews["path"], "overviews.parquet"),
                              overview_schema(dtype), **write_args) as w:
            for ovr in ovr_tables:
                w.write_table(ovr)

    ct_type = opt("auto_color_table_type")
    if ct_type is not None and thematic:
        from .colortable import gen_color_table

        stats = dict(stats or {})
        stats["color_table"] = gen_color_table(256, ct_type).tolist()

    return write_manifest(
        path, wg, nbands, dtype, nullval=nullval, thematic=thematic,
        layer_names=opt("layer_names"), stats=stats, overviews=overviews,
    )


def _creation_options(name: str, controls: ApplierControls) -> dict:
    """Writer kwargs for an output: explicit setCreationOptions, else
    ``$RIOS_DFLT_CREOPT_PARQUET`` ("key=value ..." — reference
    const.py:49-95 env-default creation options)."""
    opts = controls.getOptionForImagename("creation_options", name)
    if opts is None:
        env = os.environ.get("RIOS_DFLT_CREOPT_PARQUET")
        opts = (
            dict(kv.split("=", 1) for kv in env.split() if "=" in kv)
            if env else {}
        )
    return dict(opts)
