"""The headline pipelines: pages -> geocode -> cells -> spatial join.

This is the engine's equivalent of the reference's top entry point
``rios.applier.apply`` (``/root/reference/rios/applier.py:861-955``):
plan on the driver, stream blocks through vectorized per-batch
transforms, finalize with a small aggregate.  Row-level outputs stay
lazy; a pipeline that ends in a bounded aggregate or top-k folds it on
the driver (``functions.agg.gather_final``), so it executes when called
and returns an in-memory Dataset.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .. import synth
from ..functions.agg import gather_final
from ..sources.pages import read_pages
from ..stages.cellassign import (
    DEFAULT_GRID_RES,
    DEFAULT_HEX_RES,
    DEFAULT_S2_LEVEL,
    assign_cells,
    cell_column,
)
from ..stages.geocode import extract_text, geocode
from ..stages.knn import knn_final_merge_all, knn_partial_fn
from ..stages.pip import pip_join_fn

GEO_COLS = ["url", "lang", "extracted_text", "lat", "lon"]

# Rows per batch for the vectorized stages chained after
# ``geocoded_pages`` / ``page_cells`` in other pipelines (PIP join,
# spatial ops) and for the host/url pipelines below: large enough that
# pyarrow / numpy kernel launch overhead amortizes, small enough that a
# batch x concurrency stays well inside worker heaps (a geocoded row is
# ~300 B).  Inside ``geocoded_pages``, ``page_cells`` and the tiling
# pipelines every stage takes ``batch_size=None`` instead: the footer
# planner already sized the read block, and Ray fuses no read into a
# map chain in which any stage asks for a row count
# (``min_rows_per_bundled_input``): the read then runs as its own
# operator and every read block, html and all, crosses the object
# store.  A consumer that chains a ``BATCH_SIZE`` map onto
# ``geocoded_pages`` (``spatial_join``, the spatial ops) reads apart.
BATCH_SIZE = 16384


def geocoded_pages(
    sf_dir: str,
    grid_res: int = DEFAULT_GRID_RES,
    s2_level: int = DEFAULT_S2_LEVEL,
    hex_res: int = DEFAULT_HEX_RES,
    keep_text: bool = True,
    paths: list[str] | None = None,
    families: tuple[str, ...] = ("grid", "s2", "hex"),
) -> ray.data.Dataset:
    """pages -> extract_text (from html, byte-identical) -> geocode -> cells.

    Prune at the read: only ``url, html, lang`` are decoded.
    ``families`` prunes the cell-index computation the same way — a
    grid-only consumer skips the s2 trig and hex cube-rounding per row.
    """
    # balanced row-group runs on full scans; one task per shard when the
    # caller restricts paths (the checkpoint-resume unit)
    ds = read_pages(sf_dir, columns=["url", "html", "lang"], paths=paths,
                    bundle_files=paths is None)
    ds = ds.map_batches(extract_text, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    ds = ds.map_batches(geocode, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    # html served its purpose; drop the heavy binary column before any shuffle
    ds = ds.select_columns(GEO_COLS if keep_text else
                           [c for c in GEO_COLS if c != "extracted_text"])
    return ds.map_batches(
        lambda b: assign_cells(b, grid_res, s2_level, hex_res, families),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def spatial_join(sf_dir: str, **geo_kwargs) -> ray.data.Dataset:
    """Broadcast PIP join: one output row per (page, containing polygon).

    Runs on the shared TASK pool with a per-worker index cache
    (stages.pip.pip_join_fn): same build-once-per-process semantics as
    an actor pool, none of the per-execution pool cold-start (which
    capped effective parallelism at ~5x on a 32-cpu run).
    """
    ppath, _ = synth.ensure_polygons()
    geo_kwargs.setdefault("families", ("grid",))
    ds = geocoded_pages(sf_dir, keep_text=False, **geo_kwargs)
    return ds.map_batches(
        pip_join_fn(ppath),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def geocells(b: pa.Table, grid_res: int = DEFAULT_GRID_RES, url: bool = False) -> pa.Table:
    """``lon, lat, cell`` (grid cells only) of a batch of pages, straight
    off the ``html`` bytes: the geo token regex matches identically with
    or without the html wrapper, so no extracted-text copy is made.
    ``url=True`` passes the ``url`` column through in front."""
    import pyarrow.compute as pc

    from .. import cells as C
    from ..stages.geocode import GEO_PATTERN

    ex = pc.extract_regex(pc.cast(b["html"], pa.string()), GEO_PATTERN)
    lat = pc.cast(pc.struct_field(ex, "glat"), pa.float64())
    lon = pc.cast(pc.struct_field(ex, "glon"), pa.float64())
    lon_np = lon.to_numpy(zero_copy_only=False)
    lat_np = lat.to_numpy(zero_copy_only=False)
    cell = cell_column(C.grid_cell_id(lon_np, lat_np, grid_res), lon_np, lat_np)
    cols = {"url": b["url"]} if url else {}
    return pa.table({**cols, "lon": lon, "lat": lat, "cell": cell})


def page_cells(sf_dir: str, grid_res: int = DEFAULT_GRID_RES, url: bool = False,
               paths: list[str] | None = None) -> ray.data.Dataset:
    """:func:`geocells` over a footer-planned read of ``html`` (and
    ``url``), fused into the read: the read block is the batch.

    ``paths`` restricts the read to those shard files with one read
    task per file (the checkpoint-resume unit); a full scan reads
    balanced runs of row groups (``sources.read_pages``)."""
    ds = read_pages(sf_dir, columns=["url", "html"] if url else ["html"], paths=paths,
                    bundle_files=paths is None)
    return ds.map_batches(partial(geocells, grid_res=grid_res, url=url),
                          batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


FLAGSHIP_KEYS = ["cell", "category"]
FLAGSHIP_AGGS = [(None, "count", "n_pages")]


def flagship_partials(sf_dir: str, polygons, grid_res: int = DEFAULT_GRID_RES,
                      paths: list[str] | None = None) -> ray.data.Dataset:
    """The flagship's exchange-free map chain: one ``(cell, category,
    n_pages)`` partial per block, to be folded with
    ``combine_partials(..., FLAGSHIP_KEYS, FLAGSHIP_AGGS)``.

    Lean projection of the general path (the flagship is memory-
    bandwidth-bound once vectorized, so every byte not read or copied
    is throughput): reads ONLY ``html``, geocodes it with
    :func:`geocells` (grid cell only, no s2/hex), and the PIP stage
    keeps only ``cell``.  Read, geocode, join and partial aggregate
    run as one fused operator, one task per read block; ``polygons``
    is :func:`stages.pip.pip_join_fn`'s, ``paths`` :func:`page_cells`'.
    """
    from ..functions.agg import partial_aggregate

    joined = page_cells(sf_dir, grid_res, paths=paths).map_batches(
        pip_join_fn(polygons, keep_cols=["cell"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    return partial_aggregate(joined, FLAGSHIP_KEYS, FLAGSHIP_AGGS)


def flagship(sf_dir: str, grid_res: int = DEFAULT_GRID_RES) -> ray.data.Dataset:
    """Spatial-join + tiling headline: per-(cell, category) page counts.

    :func:`flagship_partials` then one driver-side combine (cell x
    category cardinality is bounded by the grid, so a gather beats a
    keyed exchange); runs once, when called.  Result is identical to
    ``grouped_count(spatial_join(...), ["cell", "category"])`` —
    verified by the same DuckDB oracle.
    """
    from ..functions.agg import combine_tree

    ppath, _ = synth.ensure_polygons()
    partials = flagship_partials(sf_dir, ppath, grid_res)
    return combine_tree(partials, FLAGSHIP_KEYS, FLAGSHIP_AGGS)


def cell_band_math(
    sf_dir: str,
    cat_a: str = "world",
    cat_b: str = "quad",
    grid_res: int = DEFAULT_GRID_RES,
) -> ray.data.Dataset:
    """RIOS band-arithmetic analogue on the cell grid: treating each
    polygon category's per-cell page count as a raster band, emit — for
    every cell where BOTH bands are present — the exact integer counts,
    their difference, and the band ratio as ONE shared IEEE division
    (the applier's ``(b1 - b2) / b2``-style user function, reference
    ``/root/reference/rios/applier.py`` user-fn examples, re-expressed
    over the flagship's tiled counts).

    Cost: the flagship aggregate itself; the pivot is one vectorized
    pass over its combined counts in the same driver-side final (cell x
    category is grid-bounded at any corpus size, so the driver fold
    holds at 100 TB).
    """
    from ..functions.agg import combine_partials

    ppath, _ = synth.ensure_polygons()
    partials = flagship_partials(sf_dir, ppath, grid_res)

    def pivot(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        cat = b["category"]
        cells_np = b["cell"].to_numpy(zero_copy_only=False)
        n = b["n_pages"].to_numpy(zero_copy_only=False)
        ma = pc.equal(cat, cat_a).to_numpy(zero_copy_only=False)
        mb = pc.equal(cat, cat_b).to_numpy(zero_copy_only=False)
        ca, na = cells_np[ma], n[ma]
        cb, nb = cells_np[mb], n[mb]
        # intersect1d's return_indices works on unsorted unique inputs
        both, ia, ib = np.intersect1d(ca, cb, assume_unique=True,
                                      return_indices=True)
        na, nb = na[ia], nb[ib]
        return pa.table({
            "cell": pa.array(both),
            "n_a": pa.array(na),
            "n_b": pa.array(nb),
            "band_diff": pa.array(na - nb),
            "band_ratio": pa.array(na.astype(np.float64)
                                   / nb.astype(np.float64)),
        })

    # the pivot needs BOTH bands of a cell in one table: it runs in the
    # same gather as the combine
    return gather_final(
        partials, lambda t: pivot(combine_partials(t, FLAGSHIP_KEYS, FLAGSHIP_AGGS)))


def knn_pages(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Exact kNN of every broadcast query point over all pages: each
    read block's brute-force top-k (``stages.knn.KnnPartialStage``,
    fused into the read), merged on the driver."""
    queries = pq.read_table(synth.ensure_knn_queries())
    partials = page_cells(sf_dir, url=True).map_batches(
        knn_partial_fn(queries, k), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    return gather_final(partials, knn_final_merge_all(k))


def knn_pages_cellring(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """:func:`knn_pages`, under the name the benchmarks and the ledger
    query use.  No cell-ring pruning: per block, working out each
    query's rings costs more than the brute-force top-k it would skip,
    and both are a fraction of the geocode."""
    return knn_pages(sf_dir, k)


HOST_RE = r"^[a-z]+://(?P<host>[^/]+)"


def host_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-domain stats: page count + total text bytes per URL host.

    The standard crawl-pipeline rollup (politeness budgeting, domain
    mix reports).  One vectorized RE2 extract per batch feeding the
    combiner-first grouped aggregate — host cardinality is bounded by
    the crawl's domain list, far below row count, so the exchange
    moves only partial rows.
    """
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate

    def host_stats(b: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host")
        return pa.table(
            {
                "host": host,
                "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
            }
        )

    ds = read_pages(sf_dir, columns=["url", "text"], bundle_files=True).map_batches(
        host_stats, batch_format="pyarrow", zero_copy_batch=True
    )
    return hash_grouped_aggregate(
        ds, ["host"],
        [(None, "count", "n_pages"), ("n_chars", "sum", "sum_chars")],
    )


def top_pages_per_host(sf_dir: str, n: int = 3) -> ray.data.Dataset:
    """Distributed windowed top-N: the ``n`` longest pages of every URL
    host, ranked — ``ROW_NUMBER() OVER (PARTITION BY host ORDER BY
    n_chars DESC, url) <= n``.

    Scale shape: a per-batch pre-cap (no batch needs to forward more
    than ``n`` rows per host it sees) bounds the exchange at
    ``n x hosts-per-batch`` rows, then one keyed exchange co-locates
    each host and ranks with a single composite Arrow sort per
    partition (``stages.skew.ranked_head_per_key``) — the window
    function never sees a global sort.
    """
    import pyarrow.compute as pc

    from ..functions.agg import hash_partitioned_groups
    from ..stages.skew import ranked_head_per_key

    ORDER = [("n_chars", "descending"), ("url", "ascending")]

    def host_rows(b: pa.Table) -> pa.Table:
        t = pa.table({
            "host": pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host"),
            "url": b["url"],
            "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
        })
        # combiner: only each host's local top-n can be in the global top-n
        return ranked_head_per_key(t, "host", n, ORDER).drop_columns(["rank"])

    ds = read_pages(sf_dir, columns=["url", "text"], bundle_files=True).map_batches(
        host_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    return hash_partitioned_groups(
        ds, ["host"], lambda t: ranked_head_per_key(t, "host", n, ORDER)
    )


def url_canonical(sf_dir: str) -> ray.data.Dataset:
    """Crawl URL canonicalization: (url, canon_url, domain, path_depth).

    One pruned single-column read -> one vectorized RE2 stage
    (``text.urls.canonical_batch``); row-local, shuffle-free, the
    cheapest possible 100 TB shape.  The canonical form is the usual
    pre-dedup normalizer (lowercased scheme/host, www/default-port
    stripped, fragment + utm params dropped, trailing slash trimmed).
    """
    from ..text.urls import canonical_batch

    return read_pages(sf_dir, columns=["url"], bundle_files=True).map_batches(
        canonical_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def host_char_share(sf_dir: str) -> ray.data.Dataset:
    """Windowed group-share: every page's fraction of its host's total
    text bytes — ``SUM() OVER (PARTITION BY host)`` without a window
    function: one host-keyed exchange, then per partition a single sort
    + ``reduceat`` computes each host's total and broadcasts it back to
    the rows by repeat.  Output (host, url, n_chars, host_chars, share).
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.agg import hash_partitioned_groups

    def host_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "host": pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host"),
            "url": b["url"],
            "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
        })

    ds = read_pages(sf_dir, columns=["url", "text"], bundle_files=True).map_batches(
        host_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )

    def share(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("host", "ascending"), ("url", "ascending")])
        hcol = tbl["host"].combine_chunks()
        codes = hcol.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]]) if len(codes) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(codes)))
        x = tbl["n_chars"].to_numpy(zero_copy_only=False)
        totals = np.add.reduceat(x, starts) if len(starts) else np.zeros(0, np.int64)
        per_row = np.repeat(totals, counts)
        return pa.table({
            "host": tbl["host"],
            "url": tbl["url"],
            "n_chars": tbl["n_chars"],
            "host_chars": pa.array(per_row, type=pa.int64()),
            "share": pa.array(x.astype(np.float64) / per_row.astype(np.float64)),
        })

    return hash_partitioned_groups(ds, ["host"], share)


def pages_cube(sf_dir: str) -> ray.data.Dataset:
    """GROUPING SETS cube over the crawl mix: page counts for
    ((lang, tld), (lang), (tld), ()) with 'ALL' as the roll-up
    sentinel — the multi-level report query (language x domain-suffix
    mix) in ONE pass.

    Scale shape: the scan aggregates only the FINEST level
    (combiner-first; lang x tld cardinality is bounded by the crawl's
    language list x suffix list, not rows), and every coarser grouping
    set is derived from that small table on the driver — the
    cell_rollup parents-from-children move applied to categorical
    dimensions, so the cube costs one exchange of finest-level partials
    no matter how many grouping sets it reports.
    """
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate, rename_aggregates

    def lang_tld(b: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host")
        tld = pc.struct_field(
            pc.extract_regex(host, r"\.(?P<tld>[a-z]+)$"), "tld"
        )
        return pa.table({"lang": b["lang"], "tld": tld})

    ds = read_pages(sf_dir, columns=["url", "lang"], bundle_files=True).map_batches(
        lang_tld, batch_format="pyarrow", zero_copy_batch=True
    )
    finest = hash_grouped_aggregate(
        ds, ["lang", "tld"], [(None, "count", "n_pages")], final_mode="tree"
    )

    def expand_sets(b: pa.Table) -> pa.Table:
        all_ = pa.array(["ALL"] * b.num_rows, type=pa.string())
        lang, tld, n = b["lang"], b["tld"], b["n_pages"]
        out = pa.concat_tables([
            pa.table({"lang": lang, "tld": tld, "n_pages": n}),
            pa.table({"lang": lang, "tld": all_, "n_pages": n}),
            pa.table({"lang": all_, "tld": tld, "n_pages": n}),
            pa.table({"lang": all_, "tld": all_, "n_pages": n}),
        ])
        g = out.group_by(["lang", "tld"]).aggregate([("n_pages", "sum")])
        return rename_aggregates(g, [("n_pages", "sum")], ["n_pages"])

    # finest is one in-memory block: expand it on the driver too
    return gather_final(finest, expand_sets)


def host_crawl_sessions(sf_dir: str, gap_us: int = 6 * 3600 * 1_000_000) -> ray.data.Dataset:
    """Gap-based crawl sessionization of the PAGES table: one row per
    (host, session) with (host, session_id, n_pages, t_start, t_end) —
    the events sessionizer (``events.gap_sessions``) lifted to a string
    key and the crawl timestamp (politeness/burst analysis: how many
    distinct visits did the crawler pay each domain).

    Same co-location contract: the keyed exchange puts all of a host's
    pages in one partition, and the per-partition kernel is ONE
    composite sort + vectorized gap cumsum over dictionary codes — no
    per-host Python, no window-function barrier.
    """
    import pyarrow.compute as pc

    from ..functions.agg import hash_partitioned_groups
    from .events import gap_sessions

    def project(b: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host")
        return pa.table({"host": host, "e": b["warc_ts"].cast(pa.int64())})

    ds = read_pages(sf_dir, columns=["url", "warc_ts"], bundle_files=True).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    return hash_partitioned_groups(
        ds, ["host"], lambda g: gap_sessions(g, "host", gap_us, "n_pages"))
