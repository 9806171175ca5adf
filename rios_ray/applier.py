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
2. **Read plan (driver)**: from each input's metadata columns and
   Parquet footers (:class:`TileReads`), where every tile row lives
   (file, row group, row) and where it lands on the working grid; a
   block's margin-padded window needs the tile rows it overlaps.  The
   margin is satisfied by reading halos straight from the input files,
   as RIOS does (``applier.py:253-268``, ``imagereader.py:65-121``).
3. **Block tasks (one map job, no exchange)**: about two tasks per
   cluster CPU, each over a contiguous row-major run of blocks.  Per
   block a task reads the row groups it needs (cached across its
   blocks), fills each input's ``(bands, ys+2m, xs+2m)`` array,
   nodata-filled where no tile covers it (``imagereader.py:102-121``;
   the J1 multi-input alignment, ``structures.py:587-616``), runs the
   user function and margin-trims each output (``imagewriter.py:44-47``).
4. **Write (in the task)**: each output's canonical tile rows go to
   ``<out>/part-<task>.parquet``, one row group per row of blocks, and
   its overview tiles to ``<out>.ovr/part-<task>.parquet``; names are
   deterministic, so a retried task overwrites its own files.  Only the
   side rows return to the driver: per (output, block, band) the dtype,
   a NaN/Inf flag and the single-pass stats partial (the reference's
   single-pass manager, ``calcstats.py:400-616``), and per block the
   ``other_args`` copy (the ST5 contract, ``applier.py:1182-1192``).
5. **Close (driver)**: stats partials stream into the merge one task's
   rows at a time, and the manifest is written; nothing re-reads the
   pixels unless hooks or close-time stats ask for them.
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile
import warnings

from ray import cloudpickle as pickle
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import pyarrow.parquet as pq

from . import util
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
from .stats import HIST_COLUMNS, PARTIAL_SCHEMA, make_partials_fn, merge_partials, tile_partial
from .tiles import decimate_block, decimate_tile_batch, overview_levels, overview_schema

OTHERARGS_NAME = "__otherargs__"
OVERVIEW_SUFFIX = ".ovr"  # output X's overview tiles: directory X.ovr


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
    tempdir: str | None = None  # default out_dir: parent of temp tables
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
        """Default ``out_dir``, the parent of warped/rasterized input
        tables and hooked outputs' staging (reference applier.py:647)."""
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
        ``func(handle, *args)`` runs once per output after the block
        tasks wrote its tiles to a staging directory and before it
        replaces any previous output, where ``handle`` is a mutable dict
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


# what a block task sends back to the driver: per (output, block, band)
# the dtype, the NaN/Inf flag (M5: checked where the block is already
# dense, reference imagewriter.py checkForNanOrInf, warned once per file
# at close) and the single-pass stats partial; per block a pickled
# ``other_args`` copy in ``payload`` (name OTHERARGS_NAME)
SIDE_SCHEMA = pa.schema(
    [
        ("name", pa.string()),
        ("dtype", pa.string()),
        ("nonfinite", pa.bool_()),
        ("payload", pa.binary()),
    ]
    + list(PARTIAL_SCHEMA)
)

TILE_KEYS = ("tile_y", "tile_x", "top", "left", "nrows", "ncols", "band")
OVERVIEW_KEYS = ("level", "top", "left", "nrows", "ncols", "band")


def _block_geom(block_id: int, wg_nrows: int, wg_ncols: int, B_y: int, B_x: int):
    nbx = -(-wg_ncols // B_x)
    br, bc = divmod(block_id, nbx)
    top, left = br * B_y, bc * B_x
    return top, left, min(B_y, wg_nrows - top), min(B_x, wg_ncols - left)


_READ_ARRAYS = ("file", "row_group", "row", "top", "left", "nrows", "ncols", "band")


@dataclass
class TileReads:
    """Where one input's tile rows live and where they land: per tile
    row its Parquet file, row group and row within the group, its
    working-grid position and shape, and its band in the (layer-selected)
    block array.  Built on the driver from the metadata columns and the
    footers only; block tasks read the pixels of the rows they need."""

    files: list
    nbands: int
    dtype: str
    fill: float
    file: np.ndarray
    row_group: np.ndarray
    row: np.ndarray
    top: np.ndarray
    left: np.ndarray
    nrows: np.ndarray
    ncols: np.ndarray
    band: np.ndarray

    @classmethod
    def plan(cls, ti: TileRasterInfo, wg: PixelGrid, selected: list | None = None):
        import pyarrow.dataset as pads

        files = pads.dataset(ti.path, format="parquet").files
        cols, where = [], []
        for fi, f in enumerate(files):
            pf = pq.ParquetFile(f)
            cols.append(pf.read(columns=["top", "left", "nrows", "ncols", "band"]))
            sizes = [pf.metadata.row_group(g).num_rows for g in range(pf.num_row_groups)]
            starts = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
            where.append(np.stack([np.full(sum(sizes), fi),
                                   np.repeat(np.arange(len(sizes)), sizes),
                                   np.arange(sum(sizes)) - starts]))
        t = pa.concat_tables(cols)
        fi, rg, row = np.concatenate(where, axis=1)
        meta = {k: t[k].to_numpy().astype(np.int64) for k in t.column_names}
        band = meta["band"]
        if selected:
            lut = np.full(max(band.max(initial=0), *selected) + 1, -1)
            lut[selected] = np.arange(len(selected))
            band = lut[band]
        keep = band >= 0
        # input pixel (r, c) lands at working pixel (r + off_y, c + off_x):
        # y = in.y_max - r*res  =>  working row = (wg.y_max - y)/res
        off_y = int(round((wg.y_max - ti.grid.y_max) / wg.y_res))
        off_x = int(round((ti.grid.x_min - wg.x_min) / wg.x_res))
        return cls(
            files, len(selected) if selected else ti.nbands, ti.dtype,
            ti.nullval if ti.nullval is not None else 0,
            fi[keep], rg[keep], row[keep], meta["top"][keep] + off_y,
            meta["left"][keep] + off_x, meta["nrows"][keep], meta["ncols"][keep], band[keep],
        )

    def meeting(self, top: int, left: int, nrows: int, ncols: int, margin: int) -> np.ndarray:
        """Indices of the tile rows that overlap the window
        ``[top, top + nrows) x [left, left + ncols)`` padded by ``margin``."""
        return np.flatnonzero(
            (self.top < top + nrows + margin) & (self.top + self.nrows > top - margin)
            & (self.left < left + ncols + margin) & (self.left + self.ncols > left - margin))

    def take(self, idx: np.ndarray) -> "TileReads":
        return replace(self, **{k: getattr(self, k)[idx] for k in _READ_ARRAYS})

    def window(self, idx, top: int, left: int, ys: int, xs: int, margin: int,
               cache: dict) -> np.ndarray:
        """The ``(bands, ys + 2m, xs + 2m)`` padded block from tile rows
        ``idx`` (see :meth:`meeting`), fill value where no tile covers it
        (``imagereader.py:102-121``); row groups are read through
        ``cache``, keyed by (file, row group)."""
        arr = np.full((self.nbands, ys + 2 * margin, xs + 2 * margin), self.fill,
                      dtype=np.dtype(self.dtype))
        wr, wc = top - margin, left - margin
        for j in idx.tolist():
            key = (int(self.file[j]), int(self.row_group[j]))
            if key not in cache:
                col = pq.ParquetFile(self.files[key[0]]).read_row_group(
                    key[1], columns=["data"])["data"].combine_chunks()
                cache[key] = (col.offsets.to_numpy(), col.values.to_numpy(
                    zero_copy_only=False).astype(np.dtype(self.dtype), copy=False))
            offs, values = cache[key]
            k, t0, l0 = int(self.row[j]), int(self.top[j]), int(self.left[j])
            tile = values[offs[k]:offs[k + 1]].reshape(int(self.nrows[j]), int(self.ncols[j]))
            r0, r1 = max(t0, wr), min(t0 + tile.shape[0], wr + arr.shape[1])
            c0, c1 = max(l0, wc), min(l0 + tile.shape[1], wc + arr.shape[2])
            arr[self.band[j], r0 - wr:r1 - wr, c0 - wc:c1 - wc] = tile[r0 - t0:r1 - t0,
                                                                       c0 - l0:c1 - l0]
        return arr


class _TileWriter:
    """One task's Parquet file of canonical tile rows (``keys`` +
    ``data: list<T>``), written one row group per row of blocks so a
    later reader of a block's halo reads a few groups, not the file."""

    def __init__(self, path: str, keys: tuple, write_args: dict):
        self.path, self.keys, self.write_args = path, keys, write_args
        self.rows, self.planes, self.writer = [], [], None

    def add(self, plane: np.ndarray, *key_values):
        self.rows.append(key_values)
        self.planes.append(plane.ravel())

    def flush(self):
        if not self.rows:
            return
        values = pa.array(np.concatenate(self.planes))
        if self.writer is None:
            self.writer = pq.ParquetWriter(self.path, pa.schema(
                [(k, pa.int32()) for k in self.keys] + [("data", pa.list_(values.type))]),
                **self.write_args)
        offsets = pa.array(np.cumsum([0, *map(len, self.planes)]), pa.int32())
        keys = np.array(self.rows, dtype=np.int32).T
        self.writer.write_table(pa.Table.from_arrays(
            [*map(pa.array, keys), pa.ListArray.from_arrays(offsets, values)],
            schema=self.writer.schema), row_group_size=len(self.rows))
        self.rows, self.planes = [], []

    def close(self):
        self.flush()
        if self.writer is not None:
            self.writer.close()


class _ProgressState:
    """Block-completion counter + cancel flag shared between the driver
    poller thread and the block tasks (wrapped in a zero-cpu Ray actor
    only when a progress object is registered — no overhead otherwise)."""

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


def make_block_task(user_fn, reads: dict, wg: PixelGrid, B_y: int, B_x: int, margin: int,
                    runs: list, writes: dict, other_args=None, progress_actor=None):
    """map_batches body over task ids: task ``i`` runs working blocks
    ``runs[i]:runs[i + 1]`` (row-major).  Per block it fills each
    input's padded window from :class:`TileReads` (a row group is read
    once and dropped after the last block that needs it), runs the user
    function, margin-trims each output (``imagewriter.py:44-47``) and
    writes its tile rows to ``<tiles>/part-<i>.parquet`` and its overview
    tiles to ``<overviews>/part-<i>.parquet``.  ``writes``: output name
    -> (tiles dir, overviews dir or None, :func:`_side_plan`, Parquet
    writer kwargs).  Returns the :data:`SIDE_SCHEMA` rows."""
    wg_nrows, wg_ncols = wg.dimensions()
    nbx = -(-wg_ncols // B_x)
    nby = -(-wg_nrows // B_y)

    def run_blocks(task: int) -> list:
        geoms = [_block_geom(b, wg_nrows, wg_ncols, B_y, B_x)
                 for b in range(runs[task], runs[task + 1])]
        span = geoms[-1][0] + geoms[-1][2] - geoms[0][0]
        local = {n: r.take(r.meeting(geoms[0][0], 0, span, wg_ncols, margin))
                 for n, r in reads.items()}
        needs = [{n: r.meeting(*g, margin) for n, r in local.items()} for g in geoms]
        last_use = {(n, int(f), int(g)): i for i, need in enumerate(needs)
                    for n, idx in need.items()
                    for f, g in zip(local[n].file[idx], local[n].row_group[idx])}
        drop = {}  # block index -> the row groups last needed by that block
        for (n, *key), i in last_use.items():
            drop.setdefault(i, []).append((n, tuple(key)))
        caches = {n: {} for n in local}
        part = f"part-{task:05d}.parquet"
        writers = {n: (_TileWriter(os.path.join(tiles, part), TILE_KEYS, args),
                       ovr and _TileWriter(os.path.join(ovr, part), OVERVIEW_KEYS, args))
                   for n, (tiles, ovr, _, args) in writes.items()}
        files = [w for pair in writers.values() for w in pair if w]
        rows = []
        for i, (top, left, ys, xs) in enumerate(geoms):
            if progress_actor is not None and ray.get(progress_actor.incr.remote()):
                raise ApplierCancelledError("cancelled by progress object")
            if i and top != geoms[i - 1][0]:  # a row of blocks is complete
                for w in files:
                    w.flush()
            inputs = SimpleNamespace(**{
                n: r.window(needs[i][n], top, left, ys, xs, margin, caches[n])
                for n, r in local.items()})
            for n, key in drop.get(i, ()):
                caches[n].pop(key)
            info = ReaderInfo(wg, BlockDefn(top, left, ys, xs), margin, nbx, nby, B_x, B_y)
            outputs = SimpleNamespace()
            oa = copy.deepcopy(other_args) if other_args is not None else None
            user_fn(info, inputs, outputs, *([] if oa is None else [oa]))
            for name, arr in vars(outputs).items():
                if name not in writes:
                    continue
                arr = np.asarray(arr)
                if arr.ndim == 2:
                    arr = arr[None, :, :]
                if margin:
                    arr = arr[:, margin:-margin or None, margin:-margin or None]
                if arr.shape[1:] != (ys, xs):
                    raise ValueError(f"output {name!r}: block of shape {arr.shape[1:]} "
                                     f"after the margin trim, expected {(ys, xs)}")
                plan, (tiles, ovr) = writes[name][2], writers[name]
                for b in range(arr.shape[0]):
                    plane = np.ascontiguousarray(arr[b])
                    partial = {"band": b}
                    if plan.get("stats"):
                        step = plan["step"]
                        partial = tile_partial(plane[::step, ::step], *plan["stats"]).to_row(b)
                    rows.append({
                        "name": name, "dtype": str(arr.dtype), "top": top, "left": left,
                        "nonfinite": bool(arr.dtype.kind in "fc" and not np.isfinite(plane).all()),
                        **partial,
                    })
                    tiles.add(plane, top // B_y, left // B_x, top, left, ys, xs, b)
                    for lvl in plan["levels"] if ovr else ():
                        sub, dst_top, dst_left = decimate_block(plane, top, left, lvl)
                        if sub.size:
                            ovr.add(sub, lvl, dst_top, dst_left, *sub.shape, b)
            if oa is not None:
                rows.append({"name": OTHERARGS_NAME, "band": -1, "top": top, "left": left,
                             "payload": pickle.dumps(oa)})
        for w in files:
            w.close()
        return rows

    def run(batch: pa.Table) -> pa.Table:
        rows = [r for task in batch["task"].to_pylist() for r in run_blocks(task)]
        return pa.Table.from_pylist(rows, schema=SIDE_SCHEMA)

    return run


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
    import ray.data

    from .sources.tileraster import TileRasterInfo

    tmp = tempfile.mkdtemp(prefix=prefix, dir=out_dir or "/tmp")
    ds = ray.data.read_parquet(ti.path)
    warped = warp(ds)
    src_dtype = str(np.dtype(ti.dtype))
    out_dtype = src_dtype if method == "near" else "float64"
    if out_dtype != "float64":
        target = pa.list_(pa.from_numpy_dtype(np.dtype(out_dtype)))

        def cast_back(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("data"),
                "data",
                pc.cast(b["data"], target, safe=False),
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
        out_dir = controls.tempdir  # setTempdir default
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
    # tile tables this call materializes (warped and rasterized inputs,
    # hooked outputs' staging) are removed on success and on failure
    temps, staged = [], {}
    progress_actor = poller = stop_evt = None
    try:
        # rasterize vector inputs onto the working grid (reference S6)
        for name in vector_names:
            inputs[name] = _rasterize_vector(inputs[name], wg, B_y, B_x, out_dir,
                                             controls=controls, name=name)
            temps.append(inputs[name].path)
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
                temps.append(inputs[name].path)
            elif not wg.aligned_with(ti.grid):
                if method is None:
                    raise ResampleNeededError(
                        f"input {name!r} not aligned with working grid; "
                        "call controls.setResampleMethod()"
                    )
                inputs[name] = _resample_input(ti, wg, out_dir, method)
                temps.append(inputs[name].path)
        # per-input nodata override for null-fill (setInputNoDataValue)
        for name in list(inputs):
            nd = controls.getOptionForImagename("input_nodata", name)
            if nd is not None:
                inputs[name] = replace(inputs[name], nullval=nd)
        m = controls.overlap
        wg_nrows, wg_ncols = wg.dimensions()
        n_blocks = -(-wg_ncols // B_x) * -(-wg_nrows // B_y)
        reads = {name: TileReads.plan(ti, wg, controls.selected_layers.get(name))
                 for name, ti in inputs.items()}
        in_paths = {os.path.abspath(ti.path) for ti in inputs.values()}
        for name, path in outfiles.items():
            if os.path.abspath(path) in in_paths:
                raise ValueError(f"output {name!r} would overwrite input {path!r}")

        # ---- where each output's block tasks write ----
        # A callBeforeClose hook sees the output before it replaces the
        # previous one, so hooked outputs' tiles go to a staging directory.
        side = {name: _side_plan(name, controls, wg) for name in outfiles}
        hooks = bool(controls.before_close_hooks)
        writes = {}
        for name, path in outfiles.items():
            if hooks:
                parent = out_dir or os.path.dirname(path) or "."
                os.makedirs(parent, exist_ok=True)
                tiles = staged[name] = tempfile.mkdtemp(prefix="_hooked_", dir=parent)
            else:
                _delete_if_existing(path)
                os.makedirs(path)
                tiles = path
            ovr = None
            if side[name]["levels"] and not hooks:  # hooked overviews decimate the hooked table
                ovr = path + OVERVIEW_SUFFIX
                os.makedirs(ovr)
            writes[name] = (tiles, ovr, side[name], _creation_options(name, controls))

        # ---- progress / cancellation plumbing (only when registered) ----
        if controls.progress is not None:
            import threading

            progress_actor = ray.remote(num_cpus=0)(_ProgressState).remote()
            prog, actor = controls.progress, progress_actor
            stop_evt = threading.Event()

            def _poll():
                while not stop_evt.is_set():
                    done, _ = ray.get(actor.state.remote())
                    prog.setProgress(min(100, int(100 * done / max(1, n_blocks))))
                    if getattr(prog, "wasCancelled", lambda: False)():
                        ray.get(actor.set_cancelled.remote())
                        return
                    stop_evt.wait(0.2)

            poller = threading.Thread(target=_poll, daemon=True)
            poller.start()

        # ---- one map job, one wave: a contiguous run of blocks per CPU ----
        if not ray.is_initialized():
            ray.init()
        n_tasks = min(n_blocks, util.cluster_cpus())
        runs = [n_blocks * i // n_tasks for i in range(n_tasks + 1)]
        job = ray.data.from_items([{"task": i} for i in range(n_tasks)],
                                  override_num_blocks=n_tasks).map_batches(
            make_block_task(user_fn, reads, wg, B_y, B_x, m, runs, writes, other_args,
                            progress_actor),
            batch_format="pyarrow", batch_size=None)
        # only the side rows come back; they stay in the object store
        refs = [ref for bundle in job.iter_internal_ref_bundles() for ref, _ in bundle.blocks]
        if controls.progress is not None:
            controls.progress.setProgress(100)

        # ---- finalize: per-output manifest + stats; other_args ----
        meta = pa.concat_tables([ray.get(r).drop_columns(HIST_COLUMNS) for r in refs])
        oa = meta.filter(pc.equal(meta["name"], OTHERARGS_NAME)).sort_by(
            [("top", "ascending"), ("left", "ascending")])
        other_args_list = [pickle.loads(b) for b in oa["payload"].to_pylist()]
        rows = {name: meta.filter(pc.equal(meta["name"], name)) for name in outfiles}
        for name, t in rows.items():
            n_set = pc.sum(pc.equal(t["band"], 0)).as_py() or 0
            if n_set < n_blocks:
                raise ValueError(f"output {name!r} was not set by the user function "
                                 f"in {n_blocks - n_set} of {n_blocks} blocks")
            if len(t["dtype"].unique()) > 1:
                raise ValueError(f"output {name!r} has blocks of different dtypes "
                                 f"{sorted(t['dtype'].unique().to_pylist())}")

        def partials(name):  # one task's rows at a time
            for r in refs:
                t = ray.get(r)
                yield t.filter(pc.equal(t["name"], name))

        out_infos = {name: _finalize(name, path, writes[name][0], rows[name], partials(name),
                                     wg, controls, side[name])
                     for name, path in outfiles.items()}
    except Exception as e:
        if progress_actor is not None and ray.get(progress_actor.state.remote())[1]:
            raise ApplierCancelledError("cancelled by progress object") from e
        raise
    finally:
        if stop_evt is not None:
            stop_evt.set()
            poller.join(timeout=2)
        for d in [*temps, *staged.values()]:
            shutil.rmtree(d, ignore_errors=True)

    return ApplierReturn(wg, other_args_list, out_infos, n_blocks)


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


def _delete_if_existing(path: str):
    """S10 ``deleteIfExisting`` semantics for both layouts, together
    with the output's manifest and overview sidecars."""
    for p in (path, path + ".grid.json", path + ".ovr"):
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)


def _finalize(name: str, path: str, tiles: str, rows: pa.Table, partials, wg: PixelGrid,
              controls: ApplierControls, plan: dict):
    """Close one output whose block tasks wrote their tiles to ``tiles``
    (``path`` itself unless hooks are registered) and sent back ``rows``
    (:data:`SIDE_SCHEMA`, this output's) and the stream ``partials``.

    Without ``callBeforeClose`` hooks the raster never reaches the
    driver: the tiles and overview tiles are already in place, and stats
    merge from the streamed partials.  Hooks receive the open in-memory
    handle (reference ``applier.py:845-858``), so the staged tiles are
    read back and the hooked table is written as one file; stats
    recompute if a hook rewrites the table but not the stats, and
    overviews decimate the hooked table.  Stats that are not single-pass
    recompute from the written tiles (``calcstats.py``, S9/A7).
    """
    import ray.data

    from .sources.tileraster import write_manifest

    hooks = controls.before_close_hooks
    opt = lambda k: controls.getOptionForImagename(k, name)  # noqa: E731
    dtype = rows["dtype"][0].as_py()
    nbands = int(pc.max(rows["band"]).as_py()) + 1
    nullval, thematic = _out_options(name, controls)
    if pc.any(rows["nonfinite"]).as_py():
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
    if hooks:
        table = pq.read_table(tiles)

    stats = None
    if plan.get("stats"):
        stats = close_stats(partials)
    elif "stats" in plan and hooks:
        stats = close_stats([partials_fn(table)])
    elif "stats" in plan:
        stats = close_stats(ray.data.read_parquet(path).map_batches(
            partials_fn, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow", batch_size=None))

    write_args = _creation_options(name, controls)
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
    # written alongside the output like GDAL's .ovr
    overviews = None
    if plan["levels"]:
        overviews = {"levels": plan["levels"], "path": path + OVERVIEW_SUFFIX}
        if hooks:
            os.makedirs(overviews["path"])
            with pq.ParquetWriter(os.path.join(overviews["path"], "overviews.parquet"),
                                  overview_schema(dtype), **write_args) as w:
                for lvl in plan["levels"]:
                    w.write_table(decimate_tile_batch(table, lvl, dtype))

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
