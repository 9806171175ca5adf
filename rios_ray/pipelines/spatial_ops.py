"""Extended spatial operators: radius (DWITHIN) join, hierarchical cell
rollup, per-polygon zonal statistics.

These extend the PIP/kNN join family (``pipelines.pages``) with the
remaining classic geospatial query shapes, each built on the same two
scale primitives:

- **cell pruning** — a broadcast driver plan turns a geometric
  predicate into a candidate cell-id set, so the scan touches only
  rows whose cell can possibly satisfy it (the key-space analogue of
  the reference's block margin windowing,
  ``/root/reference/rios/applier.py:253-268``);
- **combiner-first aggregation** — per-batch partials before the one
  keyed exchange (``functions.agg``).

Zonal statistics mirror the reference's per-region stats idea
(``/root/reference/rios/calcstats.py`` single-pass accumulators) keyed
by polygon instead of by file.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from .. import cells as C
from .. import synth
from ..functions.agg import (
    grouped_count,
    hash_grouped_aggregate,
    hash_partitioned_groups,
)
from ..stages.cellassign import DEFAULT_GRID_RES
from ..stages.pip import pip_join_fn
from .pages import BATCH_SIZE, geocoded_pages


def radius_join(
    sf_dir: str,
    radius: float = 8.0,
    grid_res: int = DEFAULT_GRID_RES,
) -> ray.data.Dataset:
    """DWITHIN join: every (query point, page) pair within ``radius``
    degrees (planar), exact.

    Scale shape: the driver plans each query's candidate cell set —
    the grid cells intersecting its radius bbox (Chebyshev superset of
    the Euclidean disk) — and broadcasts one small tuple via
    ``ray.put``.  Each batch filters to the union set with one
    vectorized ``isin`` and refines per query on the survivors only;
    no shuffle, no per-row Python.  Work is proportional to the rows
    inside candidate cells, not the corpus, so a localized query set
    over 10^12 rows touches a fixed fraction of blocks (and column
    pruning keeps those reads to 3 columns).

    The per-query loop is over the *broadcast query list* (bounded,
    driver-supplied), never over rows.
    """
    qpath = synth.ensure_knn_queries()
    qt = pq.read_table(qpath)
    qid = qt["qid"].to_numpy()
    qlon = qt["qlon"].to_numpy()
    qlat = qt["qlat"].to_numpy()
    r2 = radius * radius

    cand = [
        C.grid_cells_in_bbox(
            float(qlon[j] - radius), float(qlon[j] + radius),
            float(qlat[j] - radius), float(qlat[j] + radius), grid_res,
        )
        for j in range(len(qid))
    ]
    union_cells = np.unique(np.concatenate(cand))
    q_ref = ray.put((qid, qlon, qlat, cand, union_cells))

    def within(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qid_, qlon_, qlat_, cand_, union_ = ray.get(q_ref)
        cells = b["cell"].to_numpy()
        b = b.filter(pa.array(np.isin(cells, union_)))
        out_qid, out_idx, out_d2 = [], [], []
        if b.num_rows:
            cells = b["cell"].to_numpy()
            lon = b["lon"].to_numpy()
            lat = b["lat"].to_numpy()
            for j in range(len(qid_)):
                rows = np.flatnonzero(np.isin(cells, cand_[j]))
                if not len(rows):
                    continue
                dlon = lon[rows] - qlon_[j]
                dlat = lat[rows] - qlat_[j]
                d2 = dlon * dlon + dlat * dlat
                hit = d2 <= r2
                if not hit.any():
                    continue
                out_qid.append(np.full(int(hit.sum()), qid_[j], dtype=np.int64))
                out_idx.append(rows[hit])
                out_d2.append(d2[hit])
        if not out_qid:
            return pa.table({"qid": pa.array([], type=pa.int64()),
                             "url": pa.array([], type=pa.string()),
                             "d2": pa.array([], type=pa.float64())})
        urls = pc.take(b["url"].combine_chunks(),
                       pa.array(np.concatenate(out_idx)))
        return pa.table({
            "qid": pa.array(np.concatenate(out_qid)),
            "url": urls.cast(pa.string()),
            "d2": pa.array(np.concatenate(out_d2), type=pa.float64()),
        })

    return geocoded_pages(sf_dir, keep_text=False, grid_res=grid_res,
                          families=("grid",)).map_batches(
        within, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


def cell_rollup(
    sf_dir: str,
    res: int = DEFAULT_GRID_RES,
    levels: int = 3,
) -> ray.data.Dataset:
    """Multi-resolution page counts: ``(res, cell, n_pages)`` for the
    base resolution and ``levels - 1`` coarser parents (the H3
    compact / tile-pyramid rollup shape; reference analogue: overview
    pyramid layers, ``/root/reference/rios/calcstats.py``).

    One streaming pass: each batch emits its cell id at every level
    (child -> parent is pure bit math, ``cells.grid_parent``), then a
    single combiner-first aggregate — the per-batch partial collapses
    to distinct ``(res, cell)`` pairs before anything moves, and the
    final combine is one tree task because total key cardinality is
    bounded by the grid (sum of 4^-k shrinking levels), independent of
    corpus size.
    """
    if levels < 1 or levels > res:
        raise ValueError("need 1 <= levels <= res")

    def explode_levels(b: pa.Table) -> pa.Table:
        cells = b["cell"].to_numpy()
        out_res, out_cell = [], []
        cur, r = cells, res
        for i in range(levels):
            out_res.append(np.full(len(cur), r, dtype=np.int64))
            out_cell.append(cur)
            if i + 1 < levels:
                cur = C.grid_parent(cur, r)
                r -= 1
        return pa.table({
            "res": pa.array(np.concatenate(out_res)),
            "cell": pa.array(np.concatenate(out_cell)),
        })

    ds = geocoded_pages(sf_dir, keep_text=False, grid_res=res,
                        families=("grid",)).select_columns(
        ["cell"]
    ).map_batches(
        explode_levels, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return grouped_count(ds, ["res", "cell"], alias="n_pages", final_mode="tree")


def s2_rollup(sf_dir: str, level: int = 12, levels: int = 2) -> ray.data.Dataset:
    """Quadtree rollup on the s2-style index: ``(level, s2_cell,
    n_pages)`` for the base level and coarser parents.

    The hierarchy is pure bit math (``cells.s2_parent``: Morton pos >>
    2 per level, face preserved), exact by the same floor-halving
    identity as the grid rollup — the (i, j) leaf coordinates halve per
    level, so the parent of a point's level-L cell IS its level-(L-1)
    cell.  Same one-pass explode + combiner-first shape as
    :func:`cell_rollup`.
    """
    if levels < 1 or levels > level:
        raise ValueError("need 1 <= levels <= level")

    def explode_levels(b: pa.Table) -> pa.Table:
        base = b["s2_cell"].to_numpy()
        out_lv, out_cell = [], []
        cur, lv = base, level
        for i in range(levels):
            out_lv.append(np.full(len(cur), lv, dtype=np.int64))
            out_cell.append(cur)
            if i + 1 < levels:
                cur = C.s2_parent(cur, lv, lv - 1)
                lv -= 1
        return pa.table({
            "level": pa.array(np.concatenate(out_lv)),
            "s2_cell": pa.array(np.concatenate(out_cell)),
        })

    ds = geocoded_pages(sf_dir, keep_text=False, s2_level=level,
                        families=("s2",)).select_columns(
        ["s2_cell"]
    ).map_batches(
        explode_levels, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return grouped_count(ds, ["level", "s2_cell"], alias="n_pages",
                         final_mode="tree")


def zonal_stats(sf_dir: str, grid_res: int = DEFAULT_GRID_RES) -> ray.data.Dataset:
    """Per-polygon zonal statistics over page text size: for every
    polygon, the count / sum / min / max / mean of contained pages'
    extracted-text length.

    The PIP broadcast join tags each page with its containing
    polygon(s); ``n_chars`` is computed *before* the join so the join
    output carries two int columns instead of the text.  The aggregate
    is combiner-first with a tree final (polygon cardinality is the
    broadcast layer's, i.e. tiny).  ``mean_chars`` is derived after the
    final combine as exact-int ``sum / count`` in float64 — the same
    expression the SQL oracle uses, so it hashes identically.
    """
    import pyarrow.compute as pc

    ppath, _ = synth.ensure_polygons()

    def with_n_chars(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_chars", pc.utf8_length(b["extracted_text"]).cast(pa.int64())
        )

    ds = (
        geocoded_pages(sf_dir, keep_text=True, grid_res=grid_res, families=())
        .map_batches(with_n_chars, batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=BATCH_SIZE)
        .map_batches(
            pip_join_fn(ppath, keep_cols=["n_chars"]),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE,
        )
    )
    agg = hash_grouped_aggregate(
        ds, ["poly_id", "category"],
        [
            (None, "count", "n_pages"),
            ("n_chars", "sum", "sum_chars"),
            ("n_chars", "min", "min_chars"),
            ("n_chars", "max", "max_chars"),
        ],
        final_mode="tree",
    )

    def add_mean(b: pa.Table) -> pa.Table:
        mean = pc.divide(
            pc.cast(b["sum_chars"], pa.float64()),
            pc.cast(b["n_pages"], pa.float64()),
        )
        return b.append_column("mean_chars", mean)

    return agg.map_batches(add_mean, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)


def polygon_raster_cells(
    sf_dir: str | None = None, res: int = DEFAULT_GRID_RES
) -> ray.data.Dataset:
    """Polygon rasterization onto the cell grid: (cell, poly_id,
    category) for every res-``res`` cell whose CENTER is contained —
    the vector->raster burn (reference ``applier.py`` vector inputs /
    S6) expressed as a PIP join over the generated cell-center lattice.

    The lattice is a ``ray.data.range`` over cell ids (never
    materialized), centers are pure arithmetic per batch, and the
    broadcast polygon index does one CSR containment pass — so
    rasterizing at a finer resolution only grows the *generated* row
    count, not any input or exchange.  ``sf_dir`` is unused (polygon
    layer is the fixture's); kept for the uniform query signature.
    """
    ppath, _ = synth.ensure_polygons()
    ny, nx = 1 << res, 2 << res
    step = C.grid_cell_step(res)

    def centers(b: pa.Table) -> pa.Table:
        cell = b["id"].to_numpy()
        cy, cx = cell // nx, cell % nx
        return pa.table({
            "cell": pa.array(cell),
            "lon": pa.array(-180.0 + (cx.astype(np.float64) + 0.5) * step),
            "lat": pa.array(90.0 - (cy.astype(np.float64) + 0.5) * step),
        })

    pts = ray.data.range(ny * nx).map_batches(
        centers, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    joined = pts.map_batches(
        pip_join_fn(ppath, keep_cols=["cell"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE,
    )
    return joined.select_columns(["cell", "poly_id", "category"])


def cell_focal_stats(sf_dir: str, res: int = DEFAULT_GRID_RES) -> ray.data.Dataset:
    """Focal (3x3 neighborhood) statistics over the cell-count surface:
    for every OCCUPIED cell, its own count plus the zero-padded
    neighborhood sum and mean — the raster convolution / focal-mean
    analogue in cell-key space (the reference's block-margin overlap
    filters, e.g. testoverlap's 3x3 mean, lifted from pixel windows to
    grid cells).

    Shape: counts are bounded by the grid, so after the combiner-first
    count each cell emits nine (neighbor, n) contribution rows
    (longitude wraps, latitude clips — cells.grid_cell_ring semantics)
    and ONE keyed exchange both sums contributions and keeps only
    receivers that are themselves occupied (zero-padding = absent
    neighbors contribute nothing; the divisor stays 9).
    """
    ny, nx = 1 << res, 2 << res

    counts = grouped_count(
        geocoded_pages(sf_dir, keep_text=False, grid_res=res,
                       families=("grid",)).select_columns(["cell"]),
        ["cell"], alias="n", final_mode="tree",
    )

    def contributions(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy()
        n = b["n"].to_numpy()
        cy, cx = cell // nx, cell % nx
        out_cell, out_n, out_self = [], [], []
        for dy in (-1, 0, 1):
            ncy = cy + dy
            ok = (ncy >= 0) & (ncy < ny)
            for dx in (-1, 0, 1):
                ncx = (cx + dx) % nx
                out_cell.append((ncy[ok] * nx + ncx[ok]))
                out_n.append(n[ok])
                out_self.append(
                    np.full(int(ok.sum()), int(dy == 0 and dx == 0), dtype=np.int8)
                )
        return pa.table({
            "cell": pa.array(np.concatenate(out_cell)),
            "n": pa.array(np.concatenate(out_n)),
            "is_self": pa.array(np.concatenate(out_self)),
        })

    contrib = counts.map_batches(
        contributions, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def reduce_cells(tbl: pa.Table) -> pa.Table:
        cell = tbl["cell"].to_numpy()
        n = tbl["n"].to_numpy()
        is_self = tbl["is_self"].to_numpy()
        order = np.argsort(cell, kind="stable")
        c_s, n_s, s_s = cell[order], n[order], is_self[order]
        new = np.concatenate([[True], c_s[1:] != c_s[:-1]]) if len(c_s) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        focal = np.add.reduceat(n_s, starts) if len(starts) else np.zeros(0, np.int64)
        own = np.add.reduceat(n_s * s_s, starts) if len(starts) else np.zeros(0, np.int64)
        has_self = (np.add.reduceat(s_s.astype(np.int64), starts) > 0) if len(starts) else np.zeros(0, bool)
        return pa.table({
            "cell": pa.array(c_s[starts][has_self]),
            "n_pages": pa.array(own[has_self], type=pa.int64()),
            "focal_sum": pa.array(focal[has_self], type=pa.int64()),
            "focal_mean": pa.array(focal[has_self].astype(np.float64) / 9.0),
        })

    return hash_partitioned_groups(contrib, ["cell"], reduce_cells)


def grid_dbscan(sf_dir: str, minpts: int = 10,
                res: int = DEFAULT_GRID_RES) -> ray.data.Dataset:
    """Grid-DBSCAN: density-based spatial clusters of the page surface.

    A cell is CORE when it holds >= ``minpts`` pages; core cells that
    are 8-neighbors (longitude wraps, latitude clips — the focal-stats
    adjacency) belong to one cluster; cluster_id = min cell id of the
    component.  Output (cell, cluster_id, n_pages), one row per core
    cell — the density-clustering composite: combiner-first counts ->
    vectorized neighbor-edge emission -> semi-join against the core set
    -> distributed connected components (functions.graph, pointer-
    halving rounds) -> label back-join.  Every stage is grid-bounded
    except the first scan, so the whole clustering costs one pass over
    the data plus exchanges over cell-cardinality tables.
    """
    import pyarrow.compute as pc

    from ..functions.graph import connected_components
    from ..functions.join import partitioned_exists_join, partitioned_lookup_join

    nx = 2 << res
    ny = 1 << res

    counts = grouped_count(
        geocoded_pages(sf_dir, keep_text=False, families=("grid",))
        .select_columns(["cell"]),
        ["cell"], alias="n_pages", final_mode="tree",
    )

    def core_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["n_pages"], minpts))

    core = counts.map_batches(
        core_only, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()  # grid-bounded; consumed 3x (edges, semi-join, labels)

    def edges9(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        cy, cx = cell // nx, cell % nx
        src, dst = [], []
        for dy in (-1, 0, 1):
            ok = (cy + dy >= 0) & (cy + dy < ny)  # latitude clips
            if not ok.any():
                continue
            for dx in (-1, 0, 1):
                ncell = (cy[ok] + dy) * nx + (cx[ok] + dx) % nx  # lon wraps
                src.append(cell[ok])
                dst.append(ncell)
        return pa.table({
            "cell": pa.array(np.concatenate(src) if src else np.zeros(0, np.int64)),
            "dst": pa.array(np.concatenate(dst) if dst else np.zeros(0, np.int64)),
        })

    cand = core.map_batches(
        edges9, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # keep only edges whose destination is itself a core cell (the
    # dy=dx=0 self-edge always survives, so isolated core cells still
    # reach the component solver and label themselves)
    edges = partitioned_exists_join(
        cand, core, "dst", "cell", [("cell", pa.int64()), ("dst", pa.int64())]
    )
    labels = connected_components(edges, col_a="cell", col_b="dst")
    return partitioned_lookup_join(
        core, labels, "cell", "node",
        [("cell", pa.int64()), ("n_pages", pa.int64())],
        [("cluster_id", pa.int64(), "cluster_id")],
    )


def pip_join_left(sf_dir: str) -> ray.data.Dataset:
    """LEFT OUTER point-in-polygon join: every page emits (url,
    category) per containing polygon, or one ('none') row when no
    polygon contains it — the vector-join analogue of the reference's
    nodata fill for out-of-extent reads (imagereader.py:102-121).
    Same broadcast-index shape as the inner join; the outer rows cost
    one setdiff per batch, no extra exchange."""
    from .pages import geocoded_pages

    ppath, _ = synth.ensure_polygons()
    ds = geocoded_pages(sf_dir, keep_text=False, families=("grid",))
    return ds.map_batches(
        pip_join_fn(ppath, keep_cols=["url"], outer=True),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE,
    ).select_columns(["url", "category"])


def cell_gradient(sf_dir: str, res: int = DEFAULT_GRID_RES) -> ray.data.Dataset:
    """Central-difference gradient of the cell-count surface: for every
    OCCUPIED cell, (cell, n_pages, gx, gy) with gx = n(east) - n(west)
    and gy = n(south) - n(north), zero-padded — the slope/aspect raster
    derivative in cell-key space (longitude wraps, latitude clips),
    integer-exact so the oracle compare is bitwise.

    Same scale shape as the focal stats: counts are grid-bounded, each
    cell emits 5 tagged contribution rows (self + one per compass
    direction), one keyed exchange reduces them vectorized.
    """
    ny, nx = 1 << res, 2 << res

    counts = grouped_count(
        geocoded_pages(sf_dir, keep_text=False, grid_res=res,
                       families=("grid",)).select_columns(["cell"]),
        ["cell"], alias="n", final_mode="tree",
    )

    def contributions(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy()
        n = b["n"].to_numpy()
        cy, cx = cell // nx, cell % nx
        out_cell, out_n, out_gx, out_gy, out_self = [], [], [], [], []

        def emit(tc, tn, gx, gy, is_self):
            out_cell.append(tc)
            out_n.append(tn)
            out_gx.append(np.full(len(tc), gx, dtype=np.int8))
            out_gy.append(np.full(len(tc), gy, dtype=np.int8))
            out_self.append(np.full(len(tc), is_self, dtype=np.int8))

        emit(cell, n, 0, 0, 1)                                # self
        emit(cy * nx + (cx + nx - 1) % nx, n, +1, 0, 0)       # I'm my west neighbor's EAST
        emit(cy * nx + (cx + 1) % nx, n, -1, 0, 0)            # I'm my east neighbor's WEST
        ok = cy - 1 >= 0                                       # I'm my north neighbor's SOUTH
        emit((cy[ok] - 1) * nx + cx[ok], n[ok], 0, +1, 0)
        ok = cy + 1 < ny                                       # I'm my south neighbor's NORTH
        emit((cy[ok] + 1) * nx + cx[ok], n[ok], 0, -1, 0)
        return pa.table({
            "cell": pa.array(np.concatenate(out_cell)),
            "n": pa.array(np.concatenate(out_n)),
            "tgx": pa.array(np.concatenate(out_gx)),
            "tgy": pa.array(np.concatenate(out_gy)),
            "is_self": pa.array(np.concatenate(out_self)),
        })

    contrib = counts.map_batches(
        contributions, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def reduce_cells(tbl: pa.Table) -> pa.Table:
        cell = tbl["cell"].to_numpy()
        n = tbl["n"].to_numpy()
        tgx = tbl["tgx"].to_numpy().astype(np.int64)
        tgy = tbl["tgy"].to_numpy().astype(np.int64)
        is_self = tbl["is_self"].to_numpy().astype(np.int64)
        order = np.argsort(cell, kind="stable")
        c_s = cell[order]
        new = np.concatenate([[True], c_s[1:] != c_s[:-1]]) if len(c_s) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        if not len(starts):
            return pa.table({"cell": pa.array([], type=pa.int64()),
                             "n_pages": pa.array([], type=pa.int64()),
                             "gx": pa.array([], type=pa.int64()),
                             "gy": pa.array([], type=pa.int64())})
        gx = np.add.reduceat((n * tgx)[order], starts)
        gy = np.add.reduceat((n * tgy)[order], starts)
        own = np.add.reduceat((n * is_self)[order], starts)
        has_self = np.add.reduceat(is_self[order], starts) > 0
        return pa.table({
            "cell": pa.array(c_s[starts][has_self]),
            "n_pages": pa.array(own[has_self]),
            "gx": pa.array(gx[has_self]),
            "gy": pa.array(gy[has_self]),
        })

    return hash_partitioned_groups(contrib, ["cell"], reduce_cells)


def compact_cells(
    sf_dir: str, res: int = DEFAULT_GRID_RES, res_min: int | None = None
) -> ray.data.Dataset:
    """H3-``compact`` analogue over the quad grid: replace any fully
    occupied sibling group (all 4 children) of the distinct occupied
    cells at ``res`` by its parent, recursively up to ``res_min`` —
    the minimal mixed-resolution covering set ``(cell, res)`` of the
    page distribution (the tiling dual of ``cell_rollup``; reference
    analogue: overview-pyramid level selection).

    Scale shape: one combiner-first distinct over the geocoded scan,
    then ONE keyed exchange on each cell's ``res_min`` ancestor —
    promotion decisions never cross an ancestor boundary, so every
    partition compacts its subtrees locally with pure bit math
    (``cells.grid_parent``), and output cardinality is bounded by the
    occupied-cell count at any corpus size.
    """
    if res_min is None:
        res_min = max(res - 2, 1)
    if not 1 <= res_min < res:
        raise ValueError("need 1 <= res_min < res")

    ds = geocoded_pages(sf_dir, keep_text=False, grid_res=res,
                        families=("grid",)).select_columns(["cell"])
    distinct = hash_grouped_aggregate(ds, ["cell"], [(None, "count", "_n")])

    def tag_ancestor(b: pa.Table) -> pa.Table:
        a = b["cell"].to_numpy(zero_copy_only=False)
        for r in range(res, res_min, -1):
            a = C.grid_parent(a, r)
        return pa.table({"cell": b["cell"], "_anc": pa.array(a)})

    tagged = distinct.map_batches(
        tag_ancestor, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def compact(tbl: pa.Table) -> pa.Table:
        cur = np.unique(tbl["cell"].to_numpy(zero_copy_only=False))
        out_cell, out_res = [], []
        for level in range(res, res_min, -1):
            if len(cur) == 0:
                break
            par = C.grid_parent(cur, level)
            # row-major ids interleave across parent rows, so parent
            # order != child order: group sibling runs by sorting
            order = np.argsort(par, kind="stable")
            par_s, cur_s = par[order], cur[order]
            new = np.concatenate([[True], par_s[1:] != par_s[:-1]])
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(par_s)))
            full = np.repeat(counts == 4, counts)
            keep = cur_s[~full]
            out_cell.append(keep)
            out_res.append(np.full(len(keep), level, dtype=np.int64))
            cur = par_s[starts][counts == 4]
        out_cell.append(cur)
        out_res.append(np.full(len(cur), res_min, dtype=np.int64))
        return pa.table({
            "cell": pa.array(np.concatenate(out_cell)),
            "res": pa.array(np.concatenate(out_res)),
        })

    return hash_partitioned_groups(tagged, ["_anc"], compact)


def uncompact_cells(
    ds: ray.data.Dataset, res: int = DEFAULT_GRID_RES
) -> ray.data.Dataset:
    """Inverse of ``compact_cells``: expand a mixed-resolution
    ``(cell, res)`` cover back to uniform resolution ``res`` cells —
    H3's ``uncompact``.  Pure per-batch bit math (``cells.
    grid_children``), embarrassingly parallel, output exactly the
    occupied set the compaction started from (property-tested round
    trip)."""

    def expand(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        r = b["res"].to_numpy(zero_copy_only=False)
        out = []
        for rv in np.unique(r):
            if rv > res:
                raise ValueError(f"cover holds res {rv} finer than target {res}")
            cur = cell[r == rv]
            for level in range(int(rv), res):
                cur = C.grid_children(cur, level)
            out.append(cur)
        flat = np.concatenate(out) if out else np.zeros(0, np.int64)
        return pa.table({"cell": pa.array(flat, type=pa.int64())})

    return ds.map_batches(expand, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
