"""The engine's query registry and its DuckDB oracles.

``entry()`` runs the flagship as a smoke check (Ray is already
initialised, local mode).  ``queries()`` maps 118 names, in a fixed
order, to callables taking ``sf_dir``: most are the pipeline function
itself, a ``functools.partial`` binds the one argument whose gated value
is not the pipeline's default, and the ``_q_*`` defs project or compose
a pipeline.  Each ``queries()[name](sf_dir)`` at sf=0.01 is compared
against ``oracle_sql()[name]`` via DuckDB (row-count + schema +
order-insensitive value-hash).

Pages-table queries run over the deterministic synthetic pages parquet
(``BASELINE.json: input_hint`` schema) materialized idempotently under
/tmp/graft_synth; the oracle SQL reads the very same file via
``read_parquet``, so both sides see identical inputs.  No ``ray.init``
/ ``ray.shutdown`` here (driver owns the session).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from rios_ray import synth
from rios_ray.cells import grid_cell_step
from rios_ray.stages.cellassign import DEFAULT_GRID_RES

SF001 = "/root/testdata/sf0.01"

# ---------------------------------------------------------------------------
# shared SQL fragments (must mirror the Ray stages bit-for-bit)
# ---------------------------------------------------------------------------

_GEO_RE = r"geo:(-?\d+\.\d+),(-?\d+\.\d+)"

# frame-sampling constants, mirrored from rios_ray.pipelines.multimodal
_FRAME_BYTES = 32
_FRAME_EVERY = 2


def _pages_sql(sf_dir: str = SF001) -> str:
    """Parsed pages CTE: url, lang, text, lat, lon from the same parquet
    (NULL lat/lon for a page without a geo token)."""
    path = synth.pages_path(sf_dir)
    return f"""
        SELECT url, lang, text,
               CAST(NULLIF(regexp_extract(text, '{_GEO_RE}', 1), '') AS DOUBLE) AS lat,
               CAST(NULLIF(regexp_extract(text, '{_GEO_RE}', 2), '') AS DOUBLE) AS lon
          FROM read_parquet('{path}/*.parquet')
    """


def _cell_sql(res: int = DEFAULT_GRID_RES) -> str:
    """Grid-cell expression — identical float64 ops to cells.grid_cell_id;
    NULL without coordinates (DuckDB's LEAST/GREATEST skip a NULL)."""
    step = grid_cell_step(res)
    ny, nx = 1 << res, 2 << res
    return (
        "CASE WHEN lat IS NULL OR lon IS NULL THEN NULL ELSE "
        f"LEAST(GREATEST(CAST(floor((90.0 - lat) / {step!r}) AS BIGINT), 0), {ny - 1})"
        f" * {nx}"
        f" + LEAST(GREATEST(CAST(floor((lon + 180.0) / {step!r}) AS BIGINT), 0), {nx - 1})"
        " END"
    )


def _round_away_sql(x: str) -> str:
    """Round-half-away-from-zero, same op order as gridmodel.round_away_vec."""
    return (
        f"(trunc({x}) + CASE WHEN abs({x} - trunc({x})) >= 0.5 "
        f"THEN (CASE WHEN {x} < 0 THEN -1.0 ELSE 1.0 END) ELSE 0.0 END)"
    )


def _hex_cells_sql(res: int = 8, sf_dir: str = SF001) -> str:
    """Full hex-cell oracle: identical float64 ops to cells.hex_cell_id
    (axial binning + cube rounding), packed arithmetically — the three
    bit fields never overlap, so ``|`` becomes ``+``."""
    from rios_ray.cells import _HEX_OFF, _SQRT3

    size = 10.0 * (7.0 ** (-res / 2.0))
    c1 = _SQRT3 / 3.0
    return f"""
        WITH pts AS ({_pages_sql(sf_dir)}),
        f AS (
          SELECT url, ({c1!r} * lon - lat / 3.0) / {size!r} AS xf,
                 ({(2.0 / 3.0)!r} * lat) / {size!r} AS zf
            FROM pts
        ), r0 AS (
          SELECT url, xf, zf,
                 {_round_away_sql('xf')} AS rx,
                 {_round_away_sql('(-xf) - zf')} AS ry,
                 {_round_away_sql('zf')} AS rz
            FROM f
        ), r1 AS (
          SELECT url, rx, ry, rz,
                 abs(rx - xf) AS dx, abs(ry - ((-xf) - zf)) AS dy,
                 abs(rz - zf) AS dz
            FROM r0
        ), r2 AS (
          SELECT url, ry, rz, dy, dz,
                 (dx > dy AND dx > dz) AS fix_x,
                 CASE WHEN (dx > dy AND dx > dz) THEN (-ry) - rz ELSE rx END AS rx2
            FROM r1
        ), r3 AS (
          SELECT url, rx2,
                 CASE WHEN (NOT fix_x) AND dz > dy THEN (-rx2) - ry ELSE rz END AS rz2
            FROM r2
        )
        SELECT url,
               CAST({res} AS BIGINT) * {1 << 56}
               + (CAST(rx2 AS BIGINT) + {_HEX_OFF}) * {1 << 28}
               + (CAST(rz2 AS BIGINT) + {_HEX_OFF}) AS hex_cell
          FROM r3
    """


def _s2_spread_sql(col: str) -> str:
    """Morton bit-spread (cells._spread_bits) via BIGINT shift/mask."""
    e = col
    for mask, sh in (
        (0x0000FFFF0000FFFF, 16),
        (0x00FF00FF00FF00FF, 8),
        (0x0F0F0F0F0F0F0F0F, 4),
        (0x3333333333333333, 2),
        (0x5555555555555555, 1),
    ):
        e = f"(({e} | ({e} << {sh})) & {mask})"
    return e


def _s2_cells_sql(level: int = 12, sf_dir: str = SF001) -> str:
    """Full s2-style-cell oracle: identical float64 ops to cells.s2_cell_id.

    DuckDB's cos/sin/sqrt and numpy's float64 kernels agree bit-for-bit
    on this platform (verified over all sf0.01 points); the quadratic
    (u,v)->(s,t) transform and Morton interleave are recomputed natively.
    A NULL face makes the cell NULL where a point has no coordinates.
    """
    import math

    n = 1 << level
    rad = math.pi / 180.0

    def st(u: str) -> str:
        return (
            f"CASE WHEN {u} >= 0.0 THEN 0.5 * sqrt(greatest(1.0 + 3.0 * {u}, 0.0)) "
            f"ELSE 1.0 - 0.5 * sqrt(greatest(1.0 - 3.0 * {u}, 0.0)) END"
        )

    return f"""
        WITH pts AS ({_pages_sql(sf_dir)}),
        t AS (
          SELECT url, cos(lat * {rad!r}) * cos(lon * {rad!r}) AS x,
                 cos(lat * {rad!r}) * sin(lon * {rad!r}) AS y,
                 sin(lat * {rad!r}) AS z
            FROM pts
        ), fc AS (
          SELECT url, x, y, z,
            CASE WHEN x IS NULL THEN NULL
                 WHEN abs(x) >= abs(y) AND abs(x) >= abs(z)
                 THEN (CASE WHEN x >= 0 THEN 0 ELSE 3 END)
                 WHEN abs(y) >= abs(z) THEN (CASE WHEN y >= 0 THEN 1 ELSE 4 END)
                 ELSE (CASE WHEN z >= 0 THEN 2 ELSE 5 END) END AS face
            FROM t
        ), uv AS (
          SELECT url, face,
            CASE face WHEN 0 THEN y/x WHEN 1 THEN (-x)/y WHEN 2 THEN (-x)/z
                      WHEN 3 THEN (-z)/x WHEN 4 THEN (-z)/y ELSE y/z END AS u,
            CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN y/z
                      WHEN 3 THEN y/x WHEN 4 THEN (-x)/y ELSE (-x)/z END AS v
            FROM fc
        ), ij AS (
          SELECT url, face,
            CAST(least(greatest(floor(({st('u')}) * {n}.0), 0.0), {n - 1}.0)
                 AS BIGINT) AS i,
            CAST(least(greatest(floor(({st('v')}) * {n}.0), 0.0), {n - 1}.0)
                 AS BIGINT) AS j
            FROM uv
        )
        SELECT url, face * {1 << (2 * level)}
               + ({_s2_spread_sql('i')} | ({_s2_spread_sql('j')} << 1)) AS s2_cell
          FROM ij
    """


def _polys_path() -> str:
    ppath, _ = synth.ensure_polygons()
    return ppath


def _pip_pairs_sql(sf_dir: str = SF001) -> str:
    """(url, lat, lon, poly_id) containment pairs by odd ray-crossing count.

    The crossing predicate is the same float64 expression, in the same
    order, as PolygonIndex._crossings.
    """
    epath = synth.edges_path()
    return f"""
        WITH pts AS ({_pages_sql(sf_dir)}),
        cross_counts AS (
            SELECT p.url, p.lat, p.lon, e.poly_id, count(*) AS n_cross
              FROM pts p
              JOIN read_parquet('{epath}') e
                ON ((e.y1 > p.lat) != (e.y2 > p.lat))
               AND p.lon < (e.x2 - e.x1) * (p.lat - e.y1) / (e.y2 - e.y1) + e.x1
             GROUP BY p.url, p.lat, p.lon, e.poly_id
        )
        SELECT url, lat, lon, poly_id FROM cross_counts WHERE n_cross % 2 = 1
    """


# ---------------------------------------------------------------------------
# driver entry points
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: spatial-join + tiling."""
    from rios_ray.pipelines.pages import flagship

    return flagship("/root/testdata/sf0.001")


# Queries that project or compose a pipeline, or take more than one
# statement; every other query is the pipeline function itself.

def _q_extracted_text(sf_dir: str):
    from rios_ray.pipelines.pages import geocoded_pages

    return geocoded_pages(sf_dir, families=()).select_columns(["url", "extracted_text"])


def _q_geocode_cells(sf_dir: str):
    from rios_ray.pipelines.pages import geocoded_pages

    return geocoded_pages(sf_dir, keep_text=False,
                          families=("grid",)).select_columns(["url", "lat", "lon", "cell"])


def _q_s2_cells(sf_dir: str):
    from rios_ray.pipelines.pages import geocoded_pages

    return geocoded_pages(sf_dir, keep_text=False,
                          families=("s2",)).select_columns(["url", "s2_cell"])


def _q_hex_cells(sf_dir: str):
    from rios_ray.pipelines.pages import geocoded_pages

    return geocoded_pages(sf_dir, keep_text=False,
                          families=("hex",)).select_columns(["url", "hex_cell"])


def _q_cell_counts(sf_dir: str):
    from rios_ray.functions.agg import grouped_count
    from rios_ray.pipelines.pages import geocoded_pages

    ds = geocoded_pages(sf_dir, keep_text=False, families=("grid",))
    return grouped_count(ds, ["cell"], alias="n_pages")


def _q_lang_counts(sf_dir: str):
    from rios_ray.functions.agg import grouped_count
    from rios_ray.sources.pages import read_pages

    return grouped_count(read_pages(sf_dir, columns=["lang"], bundle_files=True), ["lang"], alias="n")


def _q_pip_join_pairs(sf_dir: str):
    from rios_ray.pipelines.pages import spatial_join

    return spatial_join(sf_dir).select_columns(["url", "poly_id"])


def _q_pip_join_counts(sf_dir: str):
    from rios_ray.functions.agg import grouped_count
    from rios_ray.pipelines.pages import spatial_join

    return grouped_count(spatial_join(sf_dir), ["poly_id", "category"], alias="n_pages")


def _q_cell_pages_capped(sf_dir: str):
    """Per-cell fan-out cap on the deliberately skewed geocoded pages
    (salted three-stage cap, stages/skew.py)."""
    from rios_ray.pipelines.pages import geocoded_pages
    from rios_ray.stages.skew import capped_per_key

    ds = geocoded_pages(sf_dir, keep_text=False,
                        families=("grid",)).select_columns(["cell", "url"])
    return capped_per_key(ds, "cell", 5, "url")


def _q_flagship_resumable(sf_dir: str):
    """Flagship via the checkpoint-resume runtime: per-shard partials
    with lineage records, then the associative final combine.  Fresh
    checkpoint dir each run so the correctness gate always exercises
    the commit path (resume semantics are covered by tests)."""
    import shutil
    import tempfile

    from rios_ray.pipelines.resumable import finalize_flagship, resumable_flagship

    out_dir = tempfile.mkdtemp(prefix="graft_ckpt_", dir="/tmp")
    try:
        resumable_flagship(sf_dir, out_dir)
        return finalize_flagship(out_dir).to_pandas()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _q_text_md5(sf_dir: str):
    from rios_ray.pipelines import text as T

    return T.fingerprints(sf_dir).select_columns(["doc_id", "text_md5"])


def _q_text_winnow(sf_dir: str):
    from rios_ray.pipelines import text as T

    return T.fingerprints(sf_dir).select_columns(["doc_id", "fp_size"])


def _q_rat_derive(sf_dir: str):
    import numpy as np

    from rios_ray import ratapplier as R

    def user_fn(inputs, outputs):
        outputs.doc_id = inputs.doc_id
        outputs.chars_k = inputs.n_chars / 1000.0
        outputs.long_doc = (inputs.n_chars > 500).astype(np.int32)

    return R.rat_apply(user_fn, f"{sf_dir}/documents.parquet", block_len=100_000)


def _q_rat_derive_store(sf_dir: str):
    """Same derive as rat_derive, but through the chunked columnar RAT
    store (zarr-analogue backend): parquet -> chunk store -> chunk-
    parallel apply with per-(column, chunk) object I/O -> read back."""
    import os
    import uuid

    import numpy as np
    import pyarrow.parquet as pq

    from rios_ray.sources.ratstore import RatChunkStore, rat_apply_store

    def user_fn(inputs, outputs):
        outputs.doc_id = inputs.doc_id
        outputs.chars_k = inputs.n_chars / 1000.0
        outputs.long_doc = (inputs.n_chars > 500).astype(np.int32)

    base = f"/tmp/graft_scratch/ratstore-{uuid.uuid4().hex}"
    os.makedirs(base, exist_ok=True)
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    store = RatChunkStore.from_table(t, f"{base}/in.ratz", chunk_len=200)
    out = rat_apply_store(user_fn, store, f"{base}/out.ratz")
    return out.read_all(["doc_id", "chars_k", "long_doc"])


def _q_rat_colstats(sf_dir: str):
    import pandas as pd

    from rios_ray import ratapplier as R

    stats = R.rat_column_stats(
        f"{sf_dir}/documents.parquet", "n_chars", weight_col="doc_id"
    )
    return pd.DataFrame([stats])


def _q_media_image_features(sf_dir: str):
    from rios_ray.pipelines import multimodal as M

    return M.image_features(sf_dir).drop_columns(["luma_hist"])


def _q_media_frame_samples(sf_dir: str):
    import pyarrow as pa

    from rios_ray.pipelines import multimodal as M

    # frames are opaque binary in the operator; the synth payloads are
    # ASCII, so cast to string for the DuckDB comparison (BLOBs have no
    # substring in DuckDB 1.0)
    def as_str(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.schema.get_field_index("frame"), "frame", b["frame"].cast(pa.string())
        )

    return M.frame_samples(sf_dir).map_batches(
        as_str, batch_format="pyarrow", zero_copy_batch=True
    )


def queries() -> dict[str, Callable[[str], Any]]:
    """Every oracle-gated query by name; each value takes ``sf_dir``."""
    from functools import partial

    from rios_ray.pipelines import (dedup, embeddings, events, multimodal, pages,
                                    relational, spatial_ops, text)

    # materialize the shared deterministic inputs before any oracle runs
    synth.ensure_pages(SF001)
    synth.ensure_pages("/root/testdata/sf0.001")
    synth.ensure_polygons()
    synth.ensure_knn_queries()
    # The correctness gate checks only the FIRST 50 entries of this dict,
    # so a query a change touches stays inside them;
    # tools/check_correctness.py witnesses all of them.
    return {
        "events_sessions": events.session_windows,
        "events_value_quantiles": events.value_quantiles_per_type,
        # the default capacity holds every fixture group, so the sketch
        # is exact here; tests gate the approximate configuration
        "events_quantiles_sketch": events.value_quantiles_sketch,
        "events_value_deltas": events.value_deltas,
        "events_users_hll": events.distinct_users_hll,
        "events_value_mean": events.value_mean_per_type,
        "rel_q18_big_orders": relational.q18_big_orders,
        "rel_q10_returned_revenue": relational.q10_returned_revenue,
        "rel_q4_bloom": partial(relational.q4_order_priority, use_bloom=True),
        "rel_q2_min_cost_supplier": relational.q2_min_cost_supplier,
        "rel_q8_market_share": relational.q8_market_share,
        "rel_q9_nation_profit": relational.q9_nation_profit,
        "rel_q11_important_parts": relational.q11_important_parts,
        "rel_q15_top_supplier": relational.q15_top_supplier,
        "rel_q16_supplier_counts": relational.q16_supplier_counts,
        "rel_q19_disjunctive_revenue": relational.q19_disjunctive_revenue,
        "rel_q20_excess_suppliers": relational.q20_excess_suppliers,
        "rel_q7_volume_shipping": relational.q7_volume_shipping,
        "cell_gradient": spatial_ops.cell_gradient,
        "cell_compact": spatial_ops.compact_cells,
        "cell_band_math": pages.cell_band_math,
        "decontaminate": text.decontaminate,
        "polygon_raster_cells": spatial_ops.polygon_raster_cells,
        "rel_q13_customer_distribution": relational.q13_customer_distribution,
        "dedup_edit_pairs": dedup.edit_distance_pairs,
        "neardup_pagerank": dedup.neardup_pagerank,
        "neardup_triangles": dedup.neardup_triangles,
        "quality_weighted_sample": text.quality_weighted_sample,
        "bm25_scores": text.bm25_scores,
        "token_percentile_rank": text.token_percentile_rank,
        "rel_q17_small_quantity_revenue": relational.q17_small_quantity_revenue,
        "rel_q21_returns_suppliers": relational.q21_returns_suppliers,
        "media_image_features": _q_media_image_features,
        "media_frame_samples": _q_media_frame_samples,
        # md5 key: exactly matches DuckDB md5() (the library default is the
        # vectorized FNV key — same groups up to 64-bit collisions)
        "media_frame_dedup": partial(multimodal.frame_dedup, key="md5"),
        "flagship_cell_category": pages.flagship,
        "pages_cube": pages.pages_cube,
        "knn_pages_cellring": pages.knn_pages_cellring,
        "dedup_winnow_pairs": dedup.winnow_pairs,
        "dedup_exact": partial(dedup.exact_dedup, key="md5"),
        "dedup_minhash_pairs": dedup.minhash_pairs,
        "tfidf_top_terms": text.tfidf_top_terms,
        "bigram_lm": text.bigram_lm,
        "bigram_pmi": text.bigram_pmi,
        "events_rolling_extrema": events.rolling_extrema,
        "emb_kmeans_assign": embeddings.kmeans_assign,
        "grid_dbscan": spatial_ops.grid_dbscan,
        "pip_join_left": spatial_ops.pip_join_left,
        "doc_bigram_coverage": text.doc_bigram_coverage,
        "media_image_ahash": multimodal.image_ahash,
        # ---------- entries below are outside the gated first 50
        "events_top_users_per_window": events.top_users_per_window,
        # 20-day gap: the fixture's per-host revisit spacing straddles it
        # (60k pages -> 36.6k sessions at sf0.01), so the gap cumsum and
        # per-host ordinals are non-trivially exercised
        "host_crawl_sessions": partial(pages.host_crawl_sessions,
                                       gap_us=20 * 86_400 * 1_000_000),
        "events_window_anomalies": events.window_anomalies,
        "events_range_join": events.range_join_counts,
        "rel_q12_priority_lines": relational.q12_priority_lines,
        "rat_derive": _q_rat_derive,
        "rat_derive_store": _q_rat_derive_store,
        # nprobe == nlist: every IVF cell is probed, so the result equals
        # exact brute force; the approximate configuration keeps its
        # recall gate in tests/test_embeddings.py
        "knn_embeddings_ivf": partial(embeddings.knn_embeddings_ivf, nprobe=16),
        # shortlist >= batch_size: every row survives the ADC shortlist and
        # the exact-cosine rerank equals brute force; the approximate
        # configuration keeps its recall gate in tests/test_embeddings.py
        "knn_embeddings_pq": partial(embeddings.knn_embeddings_pq,
                                     shortlist=embeddings.BATCH_SIZE),
        "emb_neardup_lsh": embeddings.cosine_neardup_lsh,
        "emb_neardup_clusters": embeddings.cosine_neardup_clusters,
        "events_tumbling": events.tumbling_counts,
        "events_sliding": events.sliding_counts,
        "events_funnel": events.funnel_conversions,
        "events_distinct_users": events.distinct_users,
        "events_asof_join": events.asof_last_event,
        "rat_colstats": _q_rat_colstats,
        "knn_embeddings": embeddings.knn_embeddings,
        "emb_neardup": embeddings.cosine_neardup,
        "doc_length_token_corr": text.doc_length_token_corr,
        "events_retention": events.retention_cohorts,
        "events_bigrams": events.event_type_bigrams,
        "lang_confusion": text.lang_confusion,
        "rel_q22_idle_customers": relational.q22_idle_customers,
        "rel_q14_type_revenue": relational.q14_type_revenue,
        "dedup_minhash_clusters": dedup.minhash_clusters,
        "text_winnow": _q_text_winnow,
        "dedup_jaccard_pairs": dedup.jaccard_pairs,
        "dedup_simhash_pairs": dedup.simhash_pairs,
        "dedup_paragraphs": partial(text.paragraph_dedup, sep=" the "),
        "flagship_resumable": _q_flagship_resumable,
        "knn_pages": pages.knn_pages,
        "cell_pages_capped": _q_cell_pages_capped,
        "host_counts": pages.host_counts,
        "pip_join_pairs": _q_pip_join_pairs,
        "zonal_stats": spatial_ops.zonal_stats,
        "radius_join": spatial_ops.radius_join,
        "extracted_text": _q_extracted_text,
        "geocode_cells": _q_geocode_cells,
        "cell_counts": _q_cell_counts,
        "lang_counts": _q_lang_counts,
        "pip_join_counts": _q_pip_join_counts,
        "s2_cells": _q_s2_cells,
        "hex_cells": _q_hex_cells,
        "cell_rollup": spatial_ops.cell_rollup,
        "s2_rollup": spatial_ops.s2_rollup,
        "cell_focal_stats": spatial_ops.cell_focal_stats,
        "top_pages_per_host": pages.top_pages_per_host,
        "url_canonical": pages.url_canonical,
        "text_token_stats": text.token_stats,
        "text_quality": text.quality,
        "text_repetition": text.repetition,
        "corpus_clean": text.corpus_clean,
        "text_lang_id": text.lang_id,
        "text_md5": _q_text_md5,
        "text_topk_tokens": text.top_token_pages,
        "text_pii": text.pii,
        "vocab_topk": text.vocab_topk,
        "token_quantiles": text.token_quantiles,
        "stratified_sample": partial(text.stratified_sample,
                                     rates={"src0": 1.0, "src1": 0.0}),
        "text_heavy_hitters": text.heavy_hitter_tokens,
        "doc_zscores": text.doc_zscores,
        "host_char_share": pages.host_char_share,
        "rel_q1_pricing": relational.q1_pricing_summary,
        "rel_q3_top_orders": relational.q3_top_orders,
        "rel_q5_nation_revenue": relational.q5_nation_revenue,
        "rel_q6_forecast_revenue": relational.q6_forecast_revenue,
        "rel_q4_order_priority": relational.q4_order_priority,
    }


def _winnow_sql() -> str:
    """Winnowing fp_size oracle (analysis.winnow_fingerprint_one).

    The rolling k-gram hash is a degree-7 polynomial in the FNV prime
    mod 2**64 — recomputed natively here as sum(byte * power) in HUGEINT
    with precomputed power literals, then window-min + distinct-count.
    Assumes ASCII text (char positions == byte positions; true of the
    synthetic documents table, asserted in tests/test_text.py).
    """
    import numpy as np

    k, w = 8, 4
    prime = np.uint64(1099511628211)
    powers = [int(prime ** np.uint64(k - 1 - j)) for j in range(k)]
    terms = " + ".join(
        f"CAST(ascii(substr(text, i + {j + 1}, 1)) AS HUGEINT)"
        f" * CAST({powers[j]} AS HUGEINT)"
        for j in range(k)
    )
    return f"""
        WITH d AS (SELECT doc_id, text, length(text) AS len FROM documents),
        g AS (SELECT doc_id, len - {k - 1} AS n,
                     unnest(range(0, len - {k - 1})) AS i, text
                FROM d WHERE len >= {k}),
        h AS (SELECT doc_id, n, i,
                     ({terms}) % CAST({1 << 64} AS HUGEINT) AS hh FROM g),
        wm AS (SELECT doc_id, n, i,
                      min(hh) OVER (PARTITION BY doc_id ORDER BY i
                                    ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
                        AS wmin
                 FROM h),
        fp AS (
            SELECT doc_id, CAST(count(DISTINCT wmin) AS BIGINT) AS fp_size
              FROM wm WHERE n > {w} AND i <= n - {w} GROUP BY doc_id
            UNION ALL
            SELECT doc_id, CAST(1 AS BIGINT) FROM d
             WHERE len >= {k} AND (len - {k - 1}) <= {w}
            UNION ALL
            SELECT doc_id, CAST(0 AS BIGINT) FROM d WHERE len < {k})
        SELECT doc_id, fp_size FROM fp
    """


def _winnow_pairs_sql(min_shared: int = 40) -> str:
    """Shared-winnow-fingerprint pairs over the duplicate-injected
    corpus: same rolling-hash recomputation as ``_winnow_sql``, then
    per-doc DISTINCT window-min sets self-joined on the hash.  Mirrors
    the engine's document-frequency cap exactly (fingerprints present
    in more than ``winnow_df_cap`` documents are dropped whole — the
    HAVING filter below), so the capped default stays hash-gated."""
    import numpy as np

    from rios_ray.pipelines.dedup import DUP_CORPUS_SQL, winnow_df_cap

    df_cap = winnow_df_cap(SF001)

    k, w = 8, 4
    prime = np.uint64(1099511628211)
    powers = [int(prime ** np.uint64(k - 1 - j)) for j in range(k)]
    terms = " + ".join(
        f"CAST(ascii(substr(text, i + {j + 1}, 1)) AS HUGEINT)"
        f" * CAST({powers[j]} AS HUGEINT)"
        for j in range(k)
    )
    return f"""
        WITH corpus AS ({DUP_CORPUS_SQL}),
        d AS (SELECT doc_id, text, length(text) AS len FROM corpus),
        g AS (SELECT doc_id, len - {k - 1} AS n,
                     unnest(range(0, len - {k - 1})) AS i, text
                FROM d WHERE len >= {k}),
        h AS (SELECT doc_id, n, i,
                     ({terms}) % CAST({1 << 64} AS HUGEINT) AS hh FROM g),
        wm AS (SELECT doc_id, n, i,
                      min(hh) OVER (PARTITION BY doc_id ORDER BY i
                                    ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
                        AS wmin
                 FROM h),
        sets AS (SELECT DISTINCT doc_id, wmin
                   FROM wm WHERE n > {w} AND i <= n - {w}
                 UNION
                 SELECT doc_id, min(hh) AS wmin
                   FROM h WHERE n <= {w} GROUP BY doc_id),
        ok AS (SELECT wmin FROM sets GROUP BY wmin
               HAVING count(*) <= {df_cap})
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
          FROM sets a JOIN sets b ON a.wmin = b.wmin AND a.doc_id < b.doc_id
         WHERE a.wmin IN (SELECT wmin FROM ok)
         GROUP BY 1, 2
        HAVING count(*) >= {min_shared}
    """


def _text_oracle_sql() -> dict[str, str]:
    """Text-analysis oracles over the pre-registered ``documents`` view.

    DuckDB's regex engine is RE2 — the same engine as the
    pyarrow.compute kernels in rios_ray.text.analysis — so these are
    bit-identical reimplementations, not approximations.
    """
    from rios_ray.pipelines.dedup import DUP_CORPUS_SQL
    from rios_ray.text.analysis import LANG_PRIORITY, STOPWORD_RES

    en = STOPWORD_RES["en"]
    lang_cases = " ".join(f"WHEN c_{l} = m THEN '{l}'" for l in LANG_PRIORITY)
    lang_counts = ", ".join(
        rf"len(regexp_extract_all(lower(text),'{STOPWORD_RES[l]}')) AS c_{l}"
        for l in LANG_PRIORITY
    )
    quality_expr = rf"""
            LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
          + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
              / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
          + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
              / GREATEST(length(text),1)) * 10.0))*0.2
    """
    return {
        # CCNet-style paragraph dedup (synthetic corpus has no newlines,
        # so ' the ' stands in as the paragraph separator — same code
        # path): keep the globally-first (doc_id, position) occurrence
        # of each distinct paragraph, rebuild docs from survivors
        "dedup_winnow_pairs": _winnow_pairs_sql(40),
        "dedup_paragraphs": """
            WITH s AS (SELECT doc_id, string_split(text, ' the ') AS l FROM documents),
            p0 AS (SELECT doc_id, unnest(l) AS para,
                          generate_subscripts(l, 1) AS i FROM s),
            p AS (SELECT * FROM p0 WHERE para <> ''),
            k AS (SELECT doc_id, i, para,
                         row_number() OVER (PARTITION BY para
                                            ORDER BY doc_id, i) AS rn
                    FROM p)
            SELECT doc_id, string_agg(para, ' the ' ORDER BY i) AS text
              FROM k WHERE rn = 1 GROUP BY doc_id
        """,
        # profiling scalar: Pearson corr from exact-integer moments
        "doc_length_token_corr": r"""
            WITH t AS (
                SELECT length(text) AS x,
                       len(regexp_extract_all(text, '\S+')) AS y
                  FROM documents
            ),
            s AS (
                SELECT CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
                       CAST(sum(x * y) AS BIGINT) AS sxy,
                       CAST(sum(x * x) AS BIGINT) AS sxx,
                       CAST(sum(y * y) AS BIGINT) AS syy,
                       count(*) AS n
                  FROM t
            )
            SELECT n,
                   ((CAST(sxy AS DOUBLE) / n)
                    - (CAST(sx AS DOUBLE) / n) * (CAST(sy AS DOUBLE) / n))
                   / sqrt(((CAST(sxx AS DOUBLE) / n)
                           - (CAST(sx AS DOUBLE) / n) * (CAST(sx AS DOUBLE) / n))
                        * ((CAST(syy AS DOUBLE) / n)
                           - (CAST(sy AS DOUBLE) / n) * (CAST(sy AS DOUBLE) / n)))
                   AS corr
              FROM s
        """,
        # two-pass standardization: exact-integer scalar aggregate
        # broadcast back as the identical float64 expression
        "doc_zscores": """
            WITH s AS (
                SELECT CAST(sum(n_chars) AS BIGINT) AS s,
                       CAST(sum(n_chars * n_chars) AS BIGINT) AS sq,
                       count(*) AS n
                  FROM documents
            )
            SELECT doc_id, n_chars,
                   (CAST(n_chars AS DOUBLE) - CAST(s AS DOUBLE) / n)
                   / sqrt(CAST(sq AS DOUBLE) / n
                          - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
                   AS z
              FROM documents, s
        """,
        # exact heavy hitters (tokens with freq > n/k; the MG sketch
        # only bounds the candidate pass, output is exact)
        "text_heavy_hitters": """
            WITH w AS (
                SELECT unnest(string_split(text, ' ')) AS token FROM documents
            ),
            w2 AS (SELECT token FROM w WHERE token <> ''),
            t AS (SELECT count(*) AS total FROM w2)
            SELECT token, count(*) AS n
              FROM w2, t
             GROUP BY token, t.total
            HAVING count(*) * 30 > t.total
        """,
        # composed cleaning pipeline: lang filter + quality floor +
        # word-repetition ceiling + exact dedup (min doc_id per
        # normalized md5) over the duplicate-injected corpus
        # classifier-evaluation confusion matrix (labeled lang vs the
        # n-gram heuristic's prediction)
        "lang_confusion": rf"""
            WITH c AS (SELECT lang, {lang_counts} FROM documents),
            m AS (SELECT *, GREATEST(c_en,c_de,c_fr,c_es,c_zh) AS m FROM c)
            SELECT lang, CASE WHEN m = 0 THEN 'und' {lang_cases} END AS lang_pred,
                   count(*) AS n_docs
              FROM m GROUP BY 1, 2
        """,
        "corpus_clean": rf"""
            WITH corpus AS ({DUP_CORPUS_SQL}),
            c AS (SELECT doc_id, text, {lang_counts} FROM corpus),
            mm AS (SELECT *, GREATEST(c_en,c_de,c_fr,c_es,c_zh) AS m FROM c),
            l AS (SELECT doc_id, text,
                         CASE WHEN m=0 THEN 'und' {lang_cases} END AS lang_pred,
                         {quality_expr} AS quality
                    FROM mm),
            uw AS (SELECT doc_id,
                          1.0 - CAST(count(DISTINCT word) AS DOUBLE)/count(*)
                              AS word_rep_frac
                     FROM (SELECT doc_id, unnest(string_split(text,' ')) AS word
                             FROM corpus)
                    GROUP BY doc_id),
            f AS (SELECT l.doc_id, l.quality, uw.word_rep_frac,
                         md5(trim(regexp_replace(lower(l.text),'\s+',' ','g')))
                             AS text_md5
                    FROM l JOIN uw USING (doc_id)
                   WHERE l.quality >= 0.7 AND uw.word_rep_frac <= 0.6
                     AND l.lang_pred = 'en'),
            k AS (SELECT *, min(doc_id) OVER (PARTITION BY text_md5) AS keep_id
                    FROM f)
            SELECT doc_id, quality, word_rep_frac FROM k WHERE doc_id = keep_id
        """,
        "text_token_stats": r"""
            SELECT doc_id,
                   length(text) AS n_chars_txt,
                   len(regexp_extract_all(text, '\S+')) AS n_tokens,
                   len(regexp_extract_all(text, '[A-Za-z]+')) AS n_alpha,
                   len(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
                   len(regexp_extract_all(text, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+')) AS n_bpe
              FROM documents
        """,
        "text_quality": rf"""
            SELECT doc_id,
                   LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
                 + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
                     / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
                 + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
                     / GREATEST(length(text),1)) * 10.0))*0.2 AS quality
              FROM documents
        """,
        "token_percentile_rank": """
            WITH t AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\\S+')) AS n_tokens
                  FROM documents
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(rank() OVER (ORDER BY n_tokens) - 1 AS BIGINT)
                     AS n_smaller,
                   percent_rank() OVER (ORDER BY n_tokens) AS pct_rank
              FROM t
        """,
        "bm25_scores": """
            WITH q(term) AS (VALUES ('data'), ('join'), ('vector'), ('dup')),
            dd AS (SELECT doc_id, string_split(text, ' ') AS toks,
                          len(string_split(text, ' ')) AS dl
                     FROM documents),
            stats AS (SELECT count(*) AS n,
                             CAST(CAST(sum(dl) AS BIGINT) AS DOUBLE)
                             / count(*) AS avgdl
                        FROM dd),
            tf AS (SELECT dd.doc_id, q.term, dd.dl,
                          len(list_filter(dd.toks, x -> x = q.term)) AS tf
                     FROM dd CROSS JOIN q
                    WHERE len(list_filter(dd.toks, x -> x = q.term)) > 0),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            idf AS (SELECT term,
                           ln(((SELECT n FROM stats) - df
                               + CAST(0.5 AS DOUBLE))
                              / (df + CAST(0.5 AS DOUBLE))) AS idf
                      FROM df),
            sc AS (SELECT tf.doc_id, tf.term,
                          idf.idf * (
                            (tf.tf * (CAST(1.2 AS DOUBLE)
                                      + CAST(1.0 AS DOUBLE)))
                            / (tf.tf + CAST(1.2 AS DOUBLE)
                               * (CAST(1.0 AS DOUBLE)
                                  - CAST(0.75 AS DOUBLE)
                                  + CAST(0.75 AS DOUBLE)
                                    * (tf.dl / (SELECT avgdl FROM stats))))
                          ) AS s
                     FROM tf JOIN idf USING (term))
            SELECT doc_id,
                   ((COALESCE(max(CASE WHEN term = 'data' THEN s END),
                              CAST(0.0 AS DOUBLE))
                     + COALESCE(max(CASE WHEN term = 'join' THEN s END),
                                CAST(0.0 AS DOUBLE)))
                    + COALESCE(max(CASE WHEN term = 'vector' THEN s END),
                               CAST(0.0 AS DOUBLE)))
                   + COALESCE(max(CASE WHEN term = 'dup' THEN s END),
                              CAST(0.0 AS DOUBLE)) AS score
              FROM sc GROUP BY 1
        """,
        "quality_weighted_sample": rf"""
            WITH q AS (
                SELECT doc_id,
                       LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
                     + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
                         / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
                     + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
                         / GREATEST(length(text),1)) * 10.0))*0.2 AS quality
                  FROM documents
            )
            SELECT doc_id, quality
              FROM q
             WHERE ((doc_id % 4294967296) * 2654435761) % 4294967296 % 10000
                   < CAST(floor(quality * 10000) AS BIGINT)
        """,
        "text_lang_id": rf"""
            WITH c AS (SELECT doc_id, {lang_counts} FROM documents),
                 m AS (SELECT *, GREATEST(c_en,c_de,c_fr,c_es,c_zh) AS m FROM c)
            SELECT doc_id, CASE WHEN m=0 THEN 'und' {lang_cases} END AS lang_pred
              FROM m
        """,
        # Gopher-style repetition: grams via string_split/list_transform
        # (identical to the Ray side's dictionary-coded grams); every
        # fraction is one IEEE double division of two exact BIGINTs
        "text_repetition": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS words
                         FROM documents),
            uw AS (SELECT doc_id, count(DISTINCT word) AS nd, count(*) AS nt
                     FROM (SELECT doc_id, unnest(words) AS word FROM w)
                    GROUP BY 1),
            g2 AS (SELECT doc_id, unnest(list_transform(
                          generate_series(1, len(words) - 1),
                          i -> words[i] || ' ' || words[i+1])) AS gram
                     FROM w WHERE len(words) >= 2),
            g2c AS (SELECT doc_id, gram, count(*) AS c FROM g2 GROUP BY 1, 2),
            g2s AS (SELECT doc_id, max(c) AS maxc, sum(c) AS tot
                      FROM g2c GROUP BY 1),
            g3 AS (SELECT doc_id, unnest(list_transform(
                          generate_series(1, len(words) - 2),
                          i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS gram
                     FROM w WHERE len(words) >= 3),
            g3c AS (SELECT doc_id, gram, count(*) AS c FROM g3 GROUP BY 1, 2),
            g3s AS (SELECT doc_id,
                           sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS dupc,
                           sum(c) AS tot
                      FROM g3c GROUP BY 1)
            SELECT u.doc_id,
                   1.0 - CAST(nd AS DOUBLE) / nt AS word_rep_frac,
                   coalesce(CAST(maxc AS DOUBLE) / g2s.tot, 0.0) AS top2gram_frac,
                   coalesce(CAST(dupc AS DOUBLE) / g3s.tot, 0.0) AS dup3gram_frac
              FROM uw u
              LEFT JOIN g2s USING (doc_id)
              LEFT JOIN g3s USING (doc_id)
        """,
        "text_winnow": _winnow_sql(),
        "text_topk_tokens": r"""
            SELECT doc_id, n_tokens,
                   row_number() OVER (ORDER BY n_tokens DESC, doc_id) AS rank
              FROM (SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens
                      FROM documents)
            QUALIFY rank <= 100
        """,
        "text_md5": r"""
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text),'\s+',' ','g'))) AS text_md5
              FROM documents
        """,
        "text_pii": _pii_sql(),
        "token_quantiles": _token_quantiles_sql(),
        "vocab_topk": """
            WITH tok AS (
                SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
                  FROM documents
            )
            SELECT token, count(*) AS df FROM tok
             GROUP BY token
             ORDER BY df DESC, token
             LIMIT 100
        """,
        # rolling extrema are value PICKS (order-free, bitwise-safe
        # across engines, unlike a rolling float SUM)
        "events_rolling_extrema": """
            SELECT event_id, user_id,
                   max(value) OVER w AS roll_max,
                   min(value) OVER w AS roll_min
              FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        # bigram-LM coverage (OOV-rate fluency filter): n_known /
        # n_bigrams is one exact-int division -> bitwise compare
        "doc_bigram_coverage": """
            WITH s AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
            t AS (SELECT doc_id, unnest(l) AS w,
                         generate_subscripts(l, 1) AS i FROM s),
            bg AS (SELECT a.doc_id, a.w AS w1, b.w AS w2
                     FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            lm AS (SELECT w1, w2 FROM (SELECT w1, w2, count(*) AS n
                                         FROM bg GROUP BY 1, 2) WHERE n >= 5),
            sc AS (SELECT bg.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                          CAST(count(lm.w1) AS BIGINT) AS n_known
                     FROM bg LEFT JOIN lm
                       ON bg.w1 = lm.w1 AND bg.w2 = lm.w2
                    GROUP BY 1)
            SELECT d.doc_id,
                   COALESCE(sc.n_bigrams, 0) AS n_bigrams,
                   COALESCE(sc.n_known, 0) AS n_known,
                   CASE WHEN COALESCE(sc.n_bigrams, 0) > 0
                        THEN CAST(sc.n_known AS DOUBLE) / sc.n_bigrams
                        ELSE 0.0 END AS coverage
              FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id
        """,
        # rank by the exact rational tf/df (order-equivalent to tf*idf
        # for a fixed document under any monotone idf) so the ordering
        # is engine-bitwise; both engines do one int/int double division
        "tfidf_top_terms": """
            WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                           FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dfx AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            s AS (SELECT tf.doc_id, tf.term,
                         CAST(tf.tf AS BIGINT) AS tf, CAST(dfx.df AS BIGINT) AS df,
                         row_number() OVER (PARTITION BY tf.doc_id
                                            ORDER BY tf.tf * 1.0 / dfx.df DESC,
                                                     tf.term) AS rank
                    FROM tf JOIN dfx USING (term))
            SELECT doc_id, term, tf, df, rank FROM s WHERE rank <= 5
        """,
        "bigram_lm": """
            WITH s AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
            t AS (SELECT doc_id, unnest(l) AS w,
                         generate_subscripts(l, 1) AS i FROM s),
            bg AS (SELECT a.w AS w1, b.w AS w2
                     FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            p AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS pair_n
                    FROM bg GROUP BY 1, 2),
            c AS (SELECT w1, CAST(sum(pair_n) AS BIGINT) AS w1_n FROM p GROUP BY w1)
            SELECT p.w1, p.w2, p.pair_n, c.w1_n,
                   p.pair_n * 1.0 / c.w1_n AS cond_p
              FROM p JOIN c USING (w1)
             WHERE p.pair_n >= 5
        """,
        # PMI (round 5): counts exact BIGINT; lift is ONE division of
        # two exact integer products (both < 2**63 here); the engine
        # computes pmi with libm math.log to match DuckDB's ln exactly
        # (numpy's SIMD log is <1 ulp off on some values)
        "bigram_pmi": """
            WITH s AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
            t AS (SELECT doc_id, unnest(l) AS w,
                         generate_subscripts(l, 1) AS i FROM s),
            bg AS (SELECT a.w AS w1, b.w AS w2
                     FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            p AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS pair_n
                    FROM bg GROUP BY 1, 2),
            c1 AS (SELECT w1, CAST(sum(pair_n) AS BIGINT) AS w1_n FROM p GROUP BY w1),
            c2 AS (SELECT w2, CAST(sum(pair_n) AS BIGINT) AS w2_n FROM p GROUP BY w2),
            n AS (SELECT CAST(sum(pair_n) AS BIGINT) AS total_n FROM p)
            SELECT p.w1, p.w2, p.pair_n, c1.w1_n, c2.w2_n, n.total_n,
                   CAST(p.pair_n * n.total_n AS DOUBLE)
                     / CAST(c1.w1_n * c2.w2_n AS DOUBLE) AS lift,
                   ln(CAST(p.pair_n * n.total_n AS DOUBLE)
                      / CAST(c1.w1_n * c2.w2_n AS DOUBLE)) AS pmi
              FROM p JOIN c1 USING (w1) JOIN c2 USING (w2) CROSS JOIN n
             WHERE p.pair_n >= 5
        """,
        "decontaminate": _decontaminate_sql(),
        "stratified_sample": """
            SELECT doc_id, lang, source, n_chars FROM documents
             WHERE (((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761) % 4294967296) % 10000 <
                   CASE source WHEN 'src0' THEN 10000
                               WHEN 'src1' THEN 0
                               ELSE 5000 END
        """,
    }


def _token_quantiles_sql() -> str:
    """Same cumsum >= ceil(q*n) rule as pipelines.text.token_quantiles."""
    from rios_ray.pipelines.text import QUANTILES

    one = """
        SELECT {q} AS q,
               (SELECT min(n_tokens) FROM cum WHERE cm >= ceil({q} * tot)) AS value
    """
    selects = " UNION ALL ".join(one.format(q=q) for q in QUANTILES)
    return f"""
        WITH tok AS (
            SELECT len(regexp_extract_all(text, '\\S+')) AS n_tokens FROM documents
        ),
        h AS (SELECT n_tokens, count(*) AS c FROM tok GROUP BY n_tokens),
        cum AS (
            SELECT n_tokens,
                   sum(c) OVER (ORDER BY n_tokens) AS cm,
                   (SELECT sum(c) FROM h) AS tot
              FROM h
        )
        {selects}
    """


def _pii_sql() -> str:
    """Same RE2 patterns, same nested-replace order as
    ``analysis.pii_scan`` (imported, so they can never drift)."""
    from rios_ray.text.analysis import PII_RES, PII_TOKEN

    counts = ",\n                   ".join(
        f"len(regexp_extract_all(text, '{pat}')) AS n_{name}"
        for name, pat in PII_RES.items()
    )
    red = "text"
    for pat in PII_RES.values():
        red = f"regexp_replace({red}, '{pat}', '{PII_TOKEN}', 'g')"
    return f"""
        SELECT doc_id,
               {counts},
               {red} AS redacted
          FROM documents
    """


def _decontaminate_sql() -> str:
    from rios_ray.pipelines.text import DECON_EVERY, DECON_TOKENS

    return f"""
        WITH bench AS (
            SELECT array_to_string(
                       list_slice(string_split(text, ' '), 1, {DECON_TOKENS}),
                       ' ') AS gram
              FROM documents WHERE doc_id % {DECON_EVERY} = 0
        ),
        bench_ok AS (SELECT gram FROM bench WHERE gram <> '')
        SELECT d.doc_id, count(*) AS n_hits
          FROM documents d JOIN bench_ok b ON contains(d.text, b.gram)
         WHERE d.doc_id % {DECON_EVERY} <> 0
         GROUP BY d.doc_id
    """


_GRAMS_CTE = r"""
    g0 AS (SELECT doc_id, string_split(text,' ') AS words, text FROM documents),
    g1 AS (SELECT doc_id,
                  CASE WHEN len(words) < 3 THEN [text]
                       ELSE list_distinct(list_transform(
                              generate_series(1, len(words) - 2),
                              i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                  END AS grams
             FROM g0),
    grams AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g1)
"""


def _dedup_oracle_sql() -> dict[str, str]:
    """Dedup oracles over the ``documents`` view.

    Shingling mirrors rios_ray.dedup.shingles.doc_grams exactly (verified
    gram-for-gram in tests/test_dedup.py); the minhash oracle is the
    *exact* Jaccard SQL — valid because LSH recall at these parameters is
    ~1 (see rios_ray/pipelines/dedup.py docstring).
    """
    from rios_ray.pipelines.dedup import DUP_CORPUS_SQL

    jaccard_tail = """
        df AS (SELECT gram, count(*) AS df FROM grams GROUP BY gram),
        ok AS (SELECT g.doc_id, g.gram, g.n_grams
                 FROM grams g JOIN df USING (gram) WHERE df.df <= {cap}),
        pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
              FROM ok a JOIN ok b ON a.gram = b.gram AND a.doc_id < b.doc_id
             GROUP BY 1, 2, 3, 4)
        SELECT doc_a, doc_b,
               CAST(shared AS DOUBLE) / (n_a + n_b - shared) AS jaccard
          FROM pairs
         WHERE CAST(shared AS DOUBLE) / (n_a + n_b - shared) >= 0.5
    """
    rat_stats = """
        WITH p AS (
            SELECT sum(doc_id * n_chars) AS wsum,
                   sum(doc_id * n_chars * n_chars) AS wsqsum,
                   sum(doc_id) AS wcount,
                   min(n_chars) FILTER (doc_id > 0) AS minval,
                   max(n_chars) FILTER (doc_id > 0) AS maxval
              FROM documents)
        SELECT CAST(wsum AS DOUBLE) / wcount AS mean,
               sqrt(GREATEST(CAST(wsqsum AS DOUBLE) / wcount
                    - (CAST(wsum AS DOUBLE) / wcount) * (CAST(wsum AS DOUBLE) / wcount), 0.0)) AS stddev,
               CAST(minval AS DOUBLE) AS min, CAST(maxval AS DOUBLE) AS max,
               CAST(wsum AS DOUBLE) AS sum, CAST(wcount AS DOUBLE) AS count
          FROM p
    """
    return {
        "rat_derive": """
            SELECT doc_id, n_chars/1000.0 AS chars_k,
                   CAST(n_chars > 500 AS INT) AS long_doc
              FROM documents
        """,
        "rat_derive_store": """
            SELECT doc_id, n_chars/1000.0 AS chars_k,
                   CAST(n_chars > 500 AS INT) AS long_doc
              FROM documents
        """,
        "rat_colstats": rat_stats,
        "dedup_exact": rf"""
            WITH corpus AS ({DUP_CORPUS_SQL})
            SELECT md5(trim(regexp_replace(lower(text),'\s+',' ','g'))) AS text_md5,
                   min(doc_id) AS keep_id, count(*) AS n_docs
              FROM corpus GROUP BY 1
        """,
        "dedup_jaccard_pairs": f"WITH {_GRAMS_CTE}, {jaccard_tail.format(cap=64)}",
        "dedup_minhash_pairs": f"WITH {_GRAMS_CTE}, {jaccard_tail.format(cap=10**9)}",
        # edit-distance verification of the SAME verified pair set:
        # DuckDB's character-level levenshtein == the engine's byte-level
        # kernel on this ASCII corpus (tests assert both)
        "dedup_edit_pairs": f"""
            WITH jp AS (
                SELECT doc_a, doc_b
                  FROM (WITH {_GRAMS_CTE}, {jaccard_tail.format(cap=10**9)})
            )
            SELECT jp.doc_a, jp.doc_b,
                   CAST(levenshtein(da.text, db.text) AS BIGINT) AS edit_dist
              FROM jp
              JOIN documents da ON da.doc_id = jp.doc_a
              JOIN documents db ON db.doc_id = jp.doc_b
        """,
        "neardup_triangles": f"""
            WITH e AS (
                SELECT doc_a AS a, doc_b AS b
                  FROM (WITH {_GRAMS_CTE}, {jaccard_tail.format(cap=10**9)})
            ),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                  FROM e e1
                  JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b
                  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
            ),
            corners AS (
                SELECT x AS node FROM tri
                UNION ALL SELECT y FROM tri
                UNION ALL SELECT z FROM tri
            )
            SELECT node AS doc_id, count(*) AS n_triangles
              FROM corners GROUP BY 1
        """,
        # 2-iteration PageRank unrolled as joins.  Bit-exact float
        # parity: fsum is the exact order-independent in-sum (== the
        # engine's grouped_exact_float_sum), all constants are forced
        # to DOUBLE (a bare 0.85 literal parses as DECIMAL and would
        # make 1.0-0.85 exact where float64 gives 0.15000000000000002),
        # and every scalar step is the same single IEEE op as the
        # engine's (1/n, (1-d)/n, rank/deg, d*s, base+x).
        "neardup_pagerank": f"""
            WITH jp AS (
                SELECT doc_a, doc_b
                  FROM (WITH {_GRAMS_CTE}, {jaccard_tail.format(cap=10**9)})
            ),
            edges AS (
                SELECT doc_a AS src, doc_b AS dst FROM jp
                UNION ALL
                SELECT doc_b AS src, doc_a AS dst FROM jp
            ),
            deg AS (SELECT src, count(*) AS deg FROM edges GROUP BY 1),
            nn AS (SELECT count(*) AS n FROM deg),
            consts AS (
                SELECT CAST(1.0 AS DOUBLE) / n AS r0,
                       (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / n AS base
                  FROM nn
            ),
            c1 AS (
                SELECT e.dst AS node,
                       fsum((SELECT r0 FROM consts) / d.deg) AS s
                  FROM edges e JOIN deg d ON d.src = e.src
                 GROUP BY 1
            ),
            r1 AS (
                SELECT node,
                       (SELECT base FROM consts)
                       + CAST(0.85 AS DOUBLE) * s AS rank
                  FROM c1
            ),
            c2 AS (
                SELECT e.dst AS node, fsum(r1.rank / d.deg) AS s
                  FROM edges e
                  JOIN r1 ON r1.node = e.src
                  JOIN deg d ON d.src = e.src
                 GROUP BY 1
            )
            SELECT node AS doc_id,
                   (SELECT base FROM consts)
                   + CAST(0.85 AS DOUBLE) * s AS rank
              FROM c2
        """,
        # transitive closure over the exact-Jaccard pairs (the oracle
        # for the distributed connected-components clustering step);
        # DuckDB's recursive UNION dedups, so the walk terminates
        "dedup_minhash_clusters": f"""
            WITH RECURSIVE {_GRAMS_CTE},
            p0 AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
                  FROM grams a JOIN grams b
                    ON a.gram = b.gram AND a.doc_id < b.doc_id
                 GROUP BY 1, 2, 3, 4),
            p AS (SELECT doc_a, doc_b FROM p0
                   WHERE CAST(shared AS DOUBLE) / (n_a + n_b - shared) >= 0.5),
            edges AS (SELECT doc_a AS a, doc_b AS b FROM p
                      UNION ALL SELECT doc_b, doc_a FROM p),
            reach(src, dst) AS (
                SELECT a, a FROM edges
                UNION
                SELECT r.src, e.b FROM reach r JOIN edges e ON e.a = r.dst
            )
            SELECT src AS doc_id, CAST(min(dst) AS BIGINT) AS cluster_id
              FROM reach GROUP BY src
        """,
        # Exact-Hamming brute force over a deterministic simhash sidecar
        # (pure-numpy, no Ray — see ensure_simhash_sidecar); gates the
        # distributed banded-pigeonhole join end to end.
        "dedup_simhash_pairs": f"""
            WITH s AS (SELECT doc_id, simhash
                         FROM read_parquet('{_simhash_sidecar_path()}'))
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
              FROM s a JOIN s b ON a.doc_id < b.doc_id
             WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        """,
    }


def _hll_sidecar_path() -> str:
    from rios_ray.pipelines.events import ensure_hll_sidecar

    return ensure_hll_sidecar(SF001)


def _simhash_sidecar_path() -> str:
    from rios_ray.pipelines.dedup import ensure_simhash_sidecar

    return ensure_simhash_sidecar(SF001)


def _pixels_sidecar_path() -> str:
    from rios_ray.pipelines.multimodal import ensure_pixels_sidecar

    return ensure_pixels_sidecar(SF001)


def _centroids_sidecar_path() -> str:
    from rios_ray.pipelines.embeddings import ensure_centroids_sidecar

    return ensure_centroids_sidecar(SF001)


def _embeddings_oracle_sql() -> dict[str, str]:
    """Embedding oracles over the ``embeddings`` view.  kNN output is
    rank-only: DuckDB's float32 cosine differs from numpy float64 at
    ~1e-7 but fixture rank gaps are ~1e-5, so ranks agree.  The LSH
    near-dup shares the exact oracle (recall ~1 at these parameters —
    see rios_ray/pipelines/embeddings.py docstring)."""
    from rios_ray.pipelines.embeddings import NEARDUP_CORPUS_SQL, QUERY_MOD

    neardup = f"""
        WITH corpus AS ({NEARDUP_CORPUS_SQL})
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
         WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.8
    """
    knn_exact = f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe
                         FROM embeddings WHERE vec_id % {QUERY_MOD} = 0),
            d AS (SELECT q.qid, e.vec_id,
                         list_cosine_similarity(e.embedding, q.qe) AS cos
                    FROM embeddings e CROSS JOIN q)
            SELECT qid, vec_id,
                   row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank
              FROM d QUALIFY rank <= 10
        """
    return {
        "knn_embeddings": knn_exact,
        # the driver runs IVF with nprobe == nlist and PQ with
        # shortlist >= batch rows (see _q_knn_embeddings_ivf/_pq):
        # both configurations provably return the exact brute-force
        # top-k, so the same oracle gates them
        "knn_embeddings_ivf": knn_exact,
        "knn_embeddings_pq": knn_exact,
        # nearest-centroid assignment against the deterministic centroid
        # sidecar (single source for both engines); raw dot products —
        # row normalization cannot change a fixed row's argmax
        "emb_kmeans_assign": f"""
            WITH c AS (SELECT cluster, centroid
                         FROM read_parquet('{_centroids_sidecar_path()}')),
            s AS (SELECT e.vec_id, c.cluster,
                         row_number() OVER (
                             PARTITION BY e.vec_id
                             ORDER BY list_inner_product(e.embedding, c.centroid) DESC,
                                      c.cluster) AS rn
                    FROM embeddings e CROSS JOIN c)
            SELECT vec_id, cluster FROM s WHERE rn = 1
        """,
        "emb_neardup": neardup,
        "emb_neardup_lsh": neardup,
        # transitive closure over the exact-cosine pairs: the oracle for
        # the distributed connected-components clustering of embedding
        # near-duplicates
        "emb_neardup_clusters": f"""
            WITH RECURSIVE corpus AS ({NEARDUP_CORPUS_SQL}),
            p AS (
                SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
                  FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
                 WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.8
            ),
            edges AS (SELECT vec_a AS a, vec_b AS b FROM p
                      UNION ALL SELECT vec_b, vec_a FROM p),
            reach(src, dst) AS (
                SELECT a, a FROM edges
                UNION
                SELECT r.src, e.b FROM reach r JOIN edges e ON e.a = r.dst
            )
            SELECT src AS vec_id, CAST(min(dst) AS BIGINT) AS cluster_id
              FROM reach GROUP BY src
        """,
    }


def _relational_oracle_sql() -> dict[str, str]:
    """Relational oracles; monetary sums in integer cents via
    floor(x*100+0.5) — identical IEEE ops on the numpy side, so sums
    are bit-exact across engines (see pipelines/relational.py)."""
    # NOTE: DuckDB sum(BIGINT) yields HUGEINT (-> float64 in pandas), so every
    # summed output is wrapped in an outer CAST(... AS BIGINT) to match the
    # int64 the Ray side emits (the driver's value-hash is dtype-strict).
    rev = ("CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)"
           " AS BIGINT)) AS BIGINT)")
    return {
        "rel_q10_returned_revenue": f"""
            WITH percust AS (
                SELECT o.o_custkey, {rev} AS revenue_cents
                  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
                 WHERE l.l_returnflag = 'R'
                   AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                   AND o.o_orderdate <  TIMESTAMP '1996-04-01'
                 GROUP BY 1
            ),
            topk AS (
                SELECT o_custkey AS c_custkey, revenue_cents
                  FROM percust
                 ORDER BY revenue_cents DESC, o_custkey
                 LIMIT 20
            )
            SELECT t.c_custkey, t.revenue_cents, c.c_name,
                   CAST(floor(c.c_acctbal*100 + 0.5) AS BIGINT) AS acctbal_cents,
                   n.n_name
              FROM topk t
              JOIN customer c ON c.c_custkey = t.c_custkey
              JOIN nation n ON n.n_nationkey = c.c_nationkey
        """,
        "rel_q1_pricing": f"""
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_base_cents,
                   {rev} AS sum_disc_cents,
                   count(*) AS count_order
              FROM lineitem WHERE l_shipdate < TIMESTAMP '2000-09-01'
             GROUP BY 1, 2
        """,
        "rel_q18_big_orders": """
            WITH big AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
                  FROM lineitem GROUP BY 1
                HAVING sum(CAST(l_quantity AS BIGINT)) > 200
            )
            SELECT o_orderkey, o_custkey, o_orderdate, total_qty
              FROM orders JOIN big ON o_orderkey = l_orderkey
        """,
        "rel_q3_top_orders": f"""
            SELECT l_orderkey, {rev} AS revenue_cents
              FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
             WHERE c_mktsegment = 'BUILDING'
             GROUP BY l_orderkey
             ORDER BY revenue_cents DESC, l_orderkey
             LIMIT 10
        """,
        "rel_q7_volume_shipping": f"""
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   {rev} AS revenue_cents
              FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN customer ON o_custkey = c_custkey
              JOIN nation n1 ON s_nationkey = n1.n_nationkey
              JOIN nation n2 ON c_nationkey = n2.n_nationkey
             WHERE (n1.n_name = 'NATION_0' AND n2.n_name = 'NATION_1')
                OR (n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_0')
             GROUP BY 1, 2, 3
        """,
        "rel_q5_nation_revenue": f"""
            SELECT r_name, n_name, {rev} AS revenue_cents
              FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN supplier ON l_suppkey = s_suppkey AND s_nationkey = c_nationkey
              JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
             GROUP BY r_name, n_name
        """,
        "rel_q14_type_revenue": f"""
            SELECT p_type, {rev} AS revenue_cents, count(*) AS n_lines
              FROM lineitem
              JOIN part ON l_partkey = p_partkey
             GROUP BY p_type
        """,
        "rel_q6_forecast_revenue": """
            SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice * l_discount * 100 + 0.5)
                                     AS BIGINT)), 0) AS BIGINT) AS revenue_cents,
                   count(*) AS n_lines
              FROM lineitem
             WHERE l_shipdate >= TIMESTAMP '1996-01-01'
               AND l_shipdate <  TIMESTAMP '1997-01-01'
               AND l_discount >= CAST(0.05 AS DOUBLE)
               AND l_discount <= CAST(0.07 AS DOUBLE)
               AND l_quantity < 24
        """,
        "rel_q13_customer_distribution": """
            SELECT c_count, count(*) AS custdist FROM (
                SELECT c.c_custkey, count(o.o_orderkey) AS c_count
                  FROM customer c LEFT JOIN orders o
                    ON c.c_custkey = o.o_custkey
                 GROUP BY 1
            ) GROUP BY 1
        """,
        # qty*den*n < num*sum is the exact-integer form of
        # qty < (num/den) * avg(qty) — no float average to diverge on
        "rel_q17_small_quantity_revenue": """
            WITH bp AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'),
            ag AS (
                SELECT l_partkey, sum(CAST(l_quantity AS BIGINT)) AS s,
                       count(*) AS n
                  FROM lineitem JOIN bp ON l_partkey = p_partkey
                 GROUP BY 1
            )
            SELECT CAST(coalesce(sum(CAST(floor(l.l_extendedprice*100 + 0.5)
                                     AS BIGINT)), 0) AS BIGINT) AS revenue_cents,
                   count(*) AS n_lines
              FROM lineitem l JOIN ag ON l.l_partkey = ag.l_partkey
             WHERE CAST(l.l_quantity AS BIGINT) * 5 * ag.n < 1 * ag.s
        """,
        "rel_q21_returns_suppliers": """
            SELECT s.s_suppkey, s.s_name
              FROM supplier s
             WHERE EXISTS (
                     SELECT 1 FROM lineitem l JOIN orders o
                       ON l.l_orderkey = o.o_orderkey
                      WHERE l.l_suppkey = s.s_suppkey
                        AND l.l_returnflag = 'R' AND o.o_orderstatus = 'F')
               AND NOT EXISTS (
                     SELECT 1 FROM lineitem l JOIN orders o
                       ON l.l_orderkey = o.o_orderkey
                      WHERE l.l_suppkey = s.s_suppkey
                        AND l.l_returnflag = 'R' AND l.l_quantity > 45
                        AND o.o_orderstatus = 'F'
                        AND o.o_orderpriority = '1-URGENT')
        """,
        # --- round 5: the suite-completing eight.  Adaptation notes live
        # --- on the pipeline functions (rios_ray/pipelines/relational.py):
        # --- no partsupp table, so q2/q9/q11/q16/q20 observe the
        # --- part-supplier relation from lineitem / use p_retailprice as
        # --- unit cost.  All sums integer cents; every emitted ratio is
        # --- one shared IEEE division of two exact BIGINTs (never a
        # --- HUGEINT->DOUBLE cast, which double-rounds).
        "rel_q2_min_cost_supplier": """
            WITH fp AS (SELECT p_partkey, p_name FROM part
                         WHERE p_size <= 15 AND p_type = 'LARGE'),
            es AS (SELECT s_suppkey, s_name, n_name FROM supplier
                     JOIN nation ON s_nationkey = n_nationkey
                     JOIN region ON n_regionkey = r_regionkey
                    WHERE r_name = 'EUROPE'),
            cost AS (SELECT l_partkey, l_suppkey,
                            min(CAST(floor(l_extendedprice*100 + 0.5)
                                     AS BIGINT)) AS cost_cents
                       FROM lineitem
                       JOIN fp ON l_partkey = p_partkey
                       JOIN es ON l_suppkey = s_suppkey
                      GROUP BY 1, 2),
            mn AS (SELECT l_partkey, min(cost_cents) AS m FROM cost GROUP BY 1)
            SELECT c.l_partkey AS p_partkey, fp.p_name,
                   c.l_suppkey AS s_suppkey, es.s_name, es.n_name,
                   c.cost_cents AS min_cost_cents
              FROM cost c
              JOIN mn ON c.l_partkey = mn.l_partkey AND c.cost_cents = mn.m
              JOIN fp ON c.l_partkey = fp.p_partkey
              JOIN es ON c.l_suppkey = es.s_suppkey
        """,
        "rel_q8_market_share": """
            WITH base AS (
                SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                       CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                            AS BIGINT) AS rc,
                       (n1.n_name = 'NATION_5') AS is_nat
                  FROM lineitem
                  JOIN orders   ON l_orderkey = o_orderkey
                  JOIN part     ON l_partkey = p_partkey
                  JOIN supplier ON l_suppkey = s_suppkey
                  JOIN nation n1 ON s_nationkey = n1.n_nationkey
                  JOIN customer ON o_custkey = c_custkey
                  JOIN nation n2 ON c_nationkey = n2.n_nationkey
                  JOIN region   ON n2.n_regionkey = r_regionkey
                 WHERE r_name = 'ASIA' AND p_type = 'PROMO'
                   AND o_orderdate >= TIMESTAMP '1996-01-01'
                   AND o_orderdate <  TIMESTAMP '1998-01-01'
            )
            SELECT o_year,
                   CAST(sum(CASE WHEN is_nat THEN rc ELSE 0 END) AS BIGINT)
                       AS num_cents,
                   CAST(sum(rc) AS BIGINT) AS den_cents,
                   CAST(CAST(sum(CASE WHEN is_nat THEN rc ELSE 0 END)
                             AS BIGINT) AS DOUBLE)
                     / CAST(CAST(sum(rc) AS BIGINT) AS DOUBLE) AS mkt_share
              FROM base GROUP BY 1
        """,
        "rel_q9_nation_profit": """
            SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                                 AS BIGINT)
                            - CAST(floor(p_retailprice*100 + 0.5) AS BIGINT)
                              * CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS profit_cents
              FROM lineitem
              JOIN orders   ON l_orderkey = o_orderkey
              JOIN part     ON l_partkey = p_partkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation   ON s_nationkey = n_nationkey
             WHERE p_name LIKE '%red%'
             GROUP BY 1, 2
        """,
        "rel_q11_important_parts": """
            WITH ns AS (SELECT s_suppkey FROM supplier
                          JOIN nation ON s_nationkey = n_nationkey
                         WHERE n_name = 'NATION_3'),
            val AS (SELECT l_partkey,
                           CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                               + 0.5) AS BIGINT)) AS BIGINT)
                               AS value_cents
                      FROM lineitem JOIN ns ON l_suppkey = s_suppkey
                     GROUP BY 1)
            SELECT l_partkey, value_cents FROM val
             WHERE CAST(value_cents AS HUGEINT) * 1000
                   > (SELECT sum(value_cents) FROM val) * 1
        """,
        "rel_q15_top_supplier": """
            WITH r AS (SELECT l_suppkey,
                              CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)
                                                  *100 + 0.5) AS BIGINT))
                                   AS BIGINT) AS total_revenue_cents
                         FROM lineitem
                        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                          AND l_shipdate <  TIMESTAMP '1996-04-01'
                        GROUP BY 1)
            SELECT l_suppkey AS s_suppkey, s_name, total_revenue_cents
              FROM r JOIN supplier ON l_suppkey = supplier.s_suppkey
             WHERE total_revenue_cents = (SELECT max(total_revenue_cents) FROM r)
        """,
        "rel_q16_supplier_counts": """
            SELECT p_brand, p_type, p_size,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
              FROM lineitem JOIN part ON l_partkey = p_partkey
             WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO'
               AND p_size IN (1, 9, 19, 29, 39, 49)
               AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                      WHERE s_acctbal < 0)
             GROUP BY 1, 2, 3
        """,
        "rel_q19_disjunctive_revenue": """
            SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice*(1-l_discount)
                                                *100 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS revenue_cents,
                   count(*) AS n_lines
              FROM lineitem JOIN part ON l_partkey = p_partkey
             WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                    AND l_quantity >= 1 AND l_quantity <= 11)
                OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
                    AND l_quantity >= 10 AND l_quantity <= 20)
                OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
                    AND l_quantity >= 20 AND l_quantity <= 30)
        """,
        "rel_q20_excess_suppliers": """
            WITH fp AS (SELECT p_partkey FROM part WHERE p_name LIKE '%red%'),
            sq AS (SELECT l_partkey, l_suppkey,
                          CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq
                     FROM lineitem JOIN fp ON l_partkey = p_partkey
                    WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                      AND l_shipdate <  TIMESTAMP '1998-01-01'
                    GROUP BY 1, 2),
            tot AS (SELECT l_partkey, sum(sq) AS tq FROM sq GROUP BY 1)
            SELECT DISTINCT s.s_suppkey, s.s_name
              FROM sq JOIN tot ON sq.l_partkey = tot.l_partkey
              JOIN supplier s ON sq.l_suppkey = s.s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
             WHERE n_name = 'NATION_7' AND 2 * sq.sq > tot.tq
        """,
        "rel_q4_order_priority": """
            SELECT o_orderpriority, count(*) AS order_count
              FROM orders
             WHERE EXISTS (SELECT 1 FROM lineitem
                            WHERE l_orderkey = o_orderkey
                              AND l_returnflag = 'R')
             GROUP BY o_orderpriority
        """,
        "rel_q12_priority_lines": """
            SELECT l_linestatus,
                   CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
                   CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                                 THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey
             WHERE l_shipdate >= TIMESTAMP '1996-01-01'
               AND l_shipdate <  TIMESTAMP '1997-01-01'
             GROUP BY 1
        """,
        "rel_q4_bloom": """
            SELECT o_orderpriority, count(*) AS order_count
              FROM orders
             WHERE EXISTS (SELECT 1 FROM lineitem
                            WHERE l_orderkey = o_orderkey
                              AND l_returnflag = 'R')
             GROUP BY o_orderpriority
        """,
        "rel_q22_idle_customers": """
            WITH pos AS (
                SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
                       CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents
                  FROM customer WHERE c_acctbal > 0.0
            ), avg_ AS (
                SELECT CAST(sum(cents) AS BIGINT) AS s,
                       count(*) AS n FROM pos
            )
            SELECT c_nationkey, count(*) AS numcust,
                   CAST(sum(cents) AS BIGINT) AS total_cents
              FROM pos, avg_
             WHERE cents * n > s
               AND NOT EXISTS (SELECT 1 FROM orders
                                WHERE o_custkey = pos.c_custkey
                                  AND o_orderpriority = '1-URGENT')
             GROUP BY c_nationkey
        """,
    }


def _events_oracle_sql() -> dict[str, str]:
    """Window oracles over the ``events`` view.  Counts and min/max
    compare bit-exactly; float sums appear ONLY where the engine uses
    the exact order-independent sum (events_value_mean via fsum — see
    functions/agg.py for the Kahan caveat) or a deterministic estimator
    (events_users_hll)."""
    from rios_ray.pipelines.events import (
        DEFAULT_GAP_US,
        DEFAULT_WINDOW_US,
        HLL_ALPHA_NUM as _HLL_ALPHA_NUM,
        HLL_M as _HLL_M,
    )

    W, GAP = DEFAULT_WINDOW_US, DEFAULT_GAP_US
    return {
        "events_distinct_users": f"""
            SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS window,
                   count(DISTINCT user_id) AS n_users
              FROM events GROUP BY 1
        """,
        # fsum is DuckDB's exactly-rounded (order-independent) float
        # sum — bit-identical to the engine's exponent-bucketed exact
        # accumulation (functions/agg.py::grouped_exact_float_sum) and
        # to math.fsum; the mean is the one shared IEEE division
        "events_value_mean": """
            SELECT event_type, count(*) AS n_events,
                   fsum(value) AS sum_value,
                   fsum(value) / count(*) AS mean_value
              FROM events GROUP BY 1
        """,
        # HLL register-merge + estimator recomputed in SQL over the
        # scalar per-(window,user) register sidecar (ensure_hll_sidecar
        # — independent splitmix64/bit_length path).  The raw-branch
        # numerator literal and the floor(x*10+0.5)/10 rounding are
        # shared with _hll_estimate/_round1 so every float op is the
        # identical IEEE operation in both engines; LN is bit-identical
        # libm here (verified 0/4095 mismatches).
        "events_users_hll": f"""
            WITH maxed AS (
                SELECT "window", reg_idx, MAX(rho) AS r
                  FROM read_parquet('{_hll_sidecar_path()}')
                 GROUP BY 1, 2
            ),
            agg AS (
                SELECT "window",
                       {_HLL_M} - count(*) AS zeros,
                       SUM(CAST(POWER(2.0, 64 - r) AS HUGEINT)) AS nz_denom
                  FROM maxed GROUP BY 1
            ),
            est AS (
                SELECT "window", zeros,
                       {_HLL_ALPHA_NUM!r} / CAST(
                           nz_denom + CAST(zeros AS HUGEINT)
                                      * CAST(POWER(2.0, 64) AS HUGEINT)
                           AS DOUBLE) AS raw
                  FROM agg
            )
            SELECT "window",
                   floor((CASE WHEN raw <= {2.5 * _HLL_M!r} AND zeros > 0
                               THEN {float(_HLL_M)!r} * ln({float(_HLL_M)!r} / zeros)
                               ELSE raw END) * 10.0 + 0.5) / 10.0
                     AS n_users_approx
              FROM est
        """,
        "events_bigrams": """
            WITH s AS (
                SELECT user_id, event_type,
                       lead(event_type) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id) AS nxt
                  FROM events
            )
            SELECT event_type AS type_a, nxt AS type_b, count(*) AS n
              FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
        """,
        "events_retention": f"""
            WITH a AS (
                SELECT DISTINCT user_id,
                       CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS w
                  FROM events
            ),
            f AS (SELECT user_id, min(w) AS cohort FROM a GROUP BY 1)
            SELECT f.cohort, a.w - f.cohort AS "offset", count(*) AS n_users
              FROM a JOIN f USING (user_id)
             GROUP BY 1, 2
        """,
        "events_window_anomalies": f"""
            WITH w AS (
                SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS "window",
                       count(*) AS n_events
                  FROM events GROUP BY 1
            ),
            s AS (
                SELECT CAST(sum(n_events) AS BIGINT) AS s,
                       CAST(sum(n_events * n_events) AS BIGINT) AS sq,
                       count(*) AS n
                  FROM w
            )
            SELECT "window", n_events,
                   (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE) / n)
                   / sqrt(CAST(sq AS DOUBLE) / n
                          - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n)) AS z
              FROM w, s
             WHERE (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE) / n)
                   * (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE) / n)
                 > {2.0 * 2.0!r} * (CAST(sq AS DOUBLE) / n
                          - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
        """,
        "events_funnel": f"""
            WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
            conv AS (
                SELECT c.user_id,
                       CASE WHEN EXISTS (
                           SELECT 1 FROM events p
                            WHERE p.user_id = c.user_id
                              AND p.event_type = 'purchase'
                              AND p.ts > c.ts
                              AND epoch_us(p.ts) - epoch_us(c.ts)
                                  <= {24 * 3_600_000_000}
                       ) THEN 1 ELSE 0 END AS cv
                  FROM c
            )
            SELECT user_id, count(*) AS n_from,
                   CAST(sum(cv) AS BIGINT) AS n_converted
              FROM conv GROUP BY 1
        """,
        # LAG delta; first event per user is value - COALESCE(lag, value)
        # = 0.0, keeping the output NULL-free for the bitwise compare
        "events_value_deltas": """
            SELECT event_id, user_id,
                   value - COALESCE(lag(value) OVER w, value) AS delta
              FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "events_quantiles_sketch": """
            WITH g AS (
                SELECT event_type,
                       quantile_disc(value, [0.1, 0.25, 0.5, 0.75, 0.9]) AS vs
                  FROM events GROUP BY 1
            )
            SELECT event_type,
                   unnest([0.1, 0.25, 0.5, 0.75, 0.9]) AS q,
                   unnest(vs) AS value
              FROM g
        """,
        "events_value_quantiles": """
            WITH g AS (
                SELECT event_type,
                       quantile_disc(value, [0.1, 0.25, 0.5, 0.75, 0.9]) AS vs
                  FROM events GROUP BY 1
            )
            SELECT event_type,
                   unnest([0.1, 0.25, 0.5, 0.75, 0.9]) AS q,
                   unnest(vs) AS value
              FROM g
        """,
        "events_top_users_per_window": f"""
            WITH c AS (
                SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS "window",
                       user_id, count(*) AS n_events
                  FROM events GROUP BY 1, 2
            )
            SELECT "window", user_id, n_events,
                   row_number() OVER (PARTITION BY "window"
                                      ORDER BY n_events DESC, user_id) AS rank
              FROM c QUALIFY rank <= 3
        """,
        "events_asof_join": """
            SELECT c.event_id, c.user_id, epoch_us(c.ts) AS e,
                   (SELECT max(epoch_us(e2.ts)) FROM events e2
                     WHERE e2.user_id = c.user_id AND e2.event_type = 'error'
                       AND e2.ts <= c.ts) AS last_right_e
              FROM events c WHERE c.event_type = 'click'
        """,
        "events_range_join": f"""
            SELECT c.event_id, c.user_id, epoch_us(c.ts) AS e,
                   (SELECT count(*) FROM events e2
                     WHERE e2.user_id = c.user_id AND e2.event_type = 'error'
                       AND epoch_us(e2.ts) BETWEEN epoch_us(c.ts) - {3_600_000_000}
                                               AND epoch_us(c.ts) + {3_600_000_000}
                   ) AS n_right
              FROM events c WHERE c.event_type = 'click'
        """,
        "events_tumbling": f"""
            SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS window, event_type,
                   count(*) AS n_events, min(value) AS min_value, max(value) AS max_value
              FROM events GROUP BY 1, 2
        """,
        "events_sliding": f"""
            SELECT "window", count(*) AS n_events FROM (
                SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS "window" FROM events
                UNION ALL
                SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) - 1 AS "window" FROM events)
             GROUP BY "window"
        """,
        "events_sessions": f"""
            WITH marked AS (
                SELECT user_id, epoch_us(ts) AS e,
                       CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                             OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > {GAP}
                            THEN 1 ELSE 0 END AS new_sess
                  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts))),
            sess AS (
                SELECT user_id, e,
                       CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY e)
                            AS BIGINT) - 1 AS session_id
                  FROM marked)
            SELECT user_id, session_id, count(*) AS n_events,
                   min(e) AS t_start, max(e) AS t_end
              FROM sess GROUP BY user_id, session_id
        """,
    }


def _knn_sql(k: int) -> str:
    """Exact kNN oracle: every query point's ``k`` nearest pages by
    squared degree distance, ties broken by url, ranked from 1."""
    return f"""
        WITH pts AS ({_pages_sql()}),
        dists AS (
            SELECT q.qid, p.url,
                   (p.lon - q.qlon) * (p.lon - q.qlon)
                 + (p.lat - q.qlat) * (p.lat - q.qlat) AS d2
              FROM pts p CROSS JOIN read_parquet('{synth.knn_queries_path()}') q
        )
        SELECT qid, url, d2,
               row_number() OVER (PARTITION BY qid ORDER BY d2, url) AS rank
          FROM dists
        QUALIFY rank <= {k}
    """


def oracle_sql() -> dict[str, str]:
    ppath = synth.polygons_path()
    qpath = synth.knn_queries_path()
    return {
        **_text_oracle_sql(),
        **_dedup_oracle_sql(),
        **_embeddings_oracle_sql(),
        **_events_oracle_sql(),
        **_relational_oracle_sql(),
        "extracted_text": f"""
            SELECT url, text AS extracted_text
              FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
        """,
        "geocode_cells": f"""
            SELECT url, lat, lon, {_cell_sql()} AS cell
              FROM ({_pages_sql()})
        """,
        "s2_cells": _s2_cells_sql(),
        "hex_cells": _hex_cells_sql(),
        "cell_counts": f"""
            SELECT {_cell_sql()} AS cell, count(*) AS n_pages
              FROM ({_pages_sql()})
             GROUP BY 1
        """,
        "lang_counts": f"""
            SELECT lang, count(*) AS n
              FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
             GROUP BY lang
        """,
        "host_counts": f"""
            SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                   count(*) AS n_pages,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars
              FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
             GROUP BY 1
        """,
        "pip_join_pairs": f"""
            SELECT url, poly_id FROM ({_pip_pairs_sql()})
        """,
        "url_canonical": rf"""
            WITH u AS (
              SELECT url,
                     lower(regexp_extract(url,
                        '^([A-Za-z][A-Za-z0-9+.\-]*)://([^/?#]+)(.*)$', 1)) AS scheme,
                     lower(regexp_extract(url,
                        '^([A-Za-z][A-Za-z0-9+.\-]*)://([^/?#]+)(.*)$', 2)) AS host0,
                     regexp_extract(url,
                        '^([A-Za-z][A-Za-z0-9+.\-]*)://([^/?#]+)(.*)$', 3) AS rest0
                FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')),
            h AS (SELECT url, scheme,
                         regexp_replace(regexp_replace(host0, '^www\.', ''),
                                        ':(80|443)$', '') AS host,
                         regexp_replace(rest0, '#.*$', '') AS rest
                    FROM u),
            pq0 AS (SELECT url, scheme, host,
                          regexp_extract(rest, '^([^?]*)', 1) AS path0,
                          CASE WHEN position('?' IN rest) > 0
                               THEN regexp_replace(regexp_replace(
                                      regexp_extract(rest, '\?(.*)$', 1),
                                      '(^|&)utm_[^&]*', '', 'g'), '^&+', '')
                               ELSE '' END AS q
                     FROM h),
            p2 AS (SELECT url, scheme, host, q,
                          CASE WHEN regexp_replace(path0, '(.)/$', '\1') = ''
                               THEN '/' ELSE regexp_replace(path0, '(.)/$', '\1')
                          END AS path
                     FROM pq0)
            SELECT url,
                   scheme || '://' || host || path
                     || CASE WHEN q <> '' THEN '?' || q ELSE '' END AS canon_url,
                   regexp_extract(host, '([^.]+\.[^.]+)$', 1) AS domain,
                   CAST(len(regexp_extract_all(path, '/'))
                        - CASE WHEN path LIKE '%/' THEN 1 ELSE 0 END
                        AS BIGINT) AS path_depth
              FROM p2
        """,
        "host_char_share": f"""
            WITH h AS (
                SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                       url, length(text) AS n_chars
                  FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
            )
            SELECT host, url, n_chars,
                   CAST(sum(n_chars) OVER (PARTITION BY host) AS BIGINT)
                       AS host_chars,
                   CAST(n_chars AS DOUBLE)
                   / CAST(sum(n_chars) OVER (PARTITION BY host) AS BIGINT)
                       AS share
              FROM h
        """,
        "top_pages_per_host": f"""
            SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                   url, length(text) AS n_chars,
                   row_number() OVER (
                       PARTITION BY regexp_extract(url, '^[a-z]+://([^/]+)', 1)
                       ORDER BY length(text) DESC, url) AS rank
              FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
            QUALIFY rank <= 3
        """,
        "radius_join": f"""
            WITH pts AS ({_pages_sql()})
            SELECT q.qid, p.url,
                   (p.lon - q.qlon) * (p.lon - q.qlon)
                 + (p.lat - q.qlat) * (p.lat - q.qlat) AS d2
              FROM pts p CROSS JOIN read_parquet('{qpath}') q
             WHERE (p.lon - q.qlon) * (p.lon - q.qlon)
                 + (p.lat - q.qlat) * (p.lat - q.qlat) <= {8.0 * 8.0!r}
        """,
        "s2_rollup": " UNION ALL ".join(
            f"""
            SELECT CAST({lv} AS BIGINT) AS level, s2_cell, count(*) AS n_pages
              FROM ({_s2_cells_sql(lv)})
             GROUP BY 1, 2"""
            for lv in (12, 11)
        ),
        "cell_rollup": " UNION ALL ".join(
            f"""
            SELECT CAST({r} AS BIGINT) AS res, {_cell_sql(r)} AS cell,
                   count(*) AS n_pages
              FROM ({_pages_sql()})
             GROUP BY 1, 2"""
            for r in (DEFAULT_GRID_RES, DEFAULT_GRID_RES - 1, DEFAULT_GRID_RES - 2)
        ),
        # GROUPING SETS cube over lang x domain suffix; 'ALL' is the
        # roll-up sentinel (COALESCE on the oracle side)
        "pages_cube": f"""
            WITH b AS (
                SELECT lang,
                       regexp_extract(
                           regexp_extract(url, '^[a-z]+://([^/]+)', 1),
                           '\\.([a-z]+)$', 1) AS tld
                  FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
            )
            SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(tld, 'ALL') AS tld,
                   CAST(count(*) AS BIGINT) AS n_pages
              FROM b GROUP BY GROUPING SETS ((lang, tld), (lang), (tld), ())
        """,
        # central-difference gradient of the count surface (all-int:
        # bitwise compare); lon wraps via modular cx, lat clips via the
        # LEFT JOINs simply not matching
        "cell_gradient": f"""
            WITH c AS (
                SELECT {_cell_sql()} AS cell, CAST(count(*) AS BIGINT) AS n
                  FROM ({_pages_sql()}) GROUP BY 1
            ),
            d AS (SELECT cell, n, cell // {2 << DEFAULT_GRID_RES} AS cy,
                         cell % {2 << DEFAULT_GRID_RES} AS cx FROM c)
            SELECT a.cell, a.n AS n_pages,
                   COALESCE(e.n, 0) - COALESCE(w.n, 0) AS gx,
                   COALESCE(s.n, 0) - COALESCE(nn.n, 0) AS gy
              FROM d a
              LEFT JOIN d e  ON e.cy = a.cy AND e.cx = (a.cx + 1) % {2 << DEFAULT_GRID_RES}
              LEFT JOIN d w  ON w.cy = a.cy AND w.cx = (a.cx + {(2 << DEFAULT_GRID_RES) - 1}) % {2 << DEFAULT_GRID_RES}
              LEFT JOIN d s  ON s.cy = a.cy + 1 AND s.cx = a.cx
              LEFT JOIN d nn ON nn.cy = a.cy - 1 AND nn.cx = a.cx
        """,
        # H3-compact analogue (round 5): distinct occupied res-7 cells;
        # any full 4-sibling group promotes to its parent, recursively
        # to res 5.  parent(c at res r) = (c//nx//2)*(nx/2) + (c%nx)//2
        # with nx = 2<<r — pure integer math on both sides.
        "cell_compact": f"""
            WITH c7 AS (
                SELECT DISTINCT {_cell_sql()} AS cell FROM ({_pages_sql()})
            ),
            p7 AS (SELECT cell,
                          (cell // {2 << 7} // 2) * {2 << 6}
                          + (cell % {2 << 7}) // 2 AS parent FROM c7),
            f6 AS (SELECT parent AS cell FROM p7 GROUP BY 1 HAVING count(*) = 4),
            p6 AS (SELECT cell,
                          (cell // {2 << 6} // 2) * {2 << 5}
                          + (cell % {2 << 6}) // 2 AS parent FROM f6),
            f5 AS (SELECT parent AS cell FROM p6 GROUP BY 1 HAVING count(*) = 4)
            SELECT cell, CAST(7 AS BIGINT) AS res FROM p7
             WHERE parent NOT IN (SELECT cell FROM f6)
            UNION ALL
            SELECT cell, CAST(6 AS BIGINT) AS res FROM p6
             WHERE parent NOT IN (SELECT cell FROM f5)
            UNION ALL
            SELECT cell, CAST(5 AS BIGINT) AS res FROM f5
        """,
        # grid-DBSCAN: core cells (count >= minpts), 8-neighbor
        # adjacency (lon wraps, lat clips implicitly — only existing
        # cells join), transitive closure, min-id cluster labels —
        # gates counts + edge emission + semi-join + distributed CC +
        # label back-join end to end
        "grid_dbscan": f"""
            WITH RECURSIVE c AS (
                SELECT {_cell_sql()} AS cell, CAST(count(*) AS BIGINT) AS n_pages
                  FROM ({_pages_sql()}) GROUP BY 1 HAVING count(*) >= 10
            ),
            d AS (SELECT cell, cell // {2 << DEFAULT_GRID_RES} AS cy,
                         cell % {2 << DEFAULT_GRID_RES} AS cx FROM c),
            e AS (SELECT a.cell AS a, b.cell AS b
                    FROM d a JOIN d b
                      ON b.cy BETWEEN a.cy - 1 AND a.cy + 1
                     AND b.cx IN ((a.cx + {(2 << DEFAULT_GRID_RES) - 1}) % {2 << DEFAULT_GRID_RES},
                                  a.cx,
                                  (a.cx + 1) % {2 << DEFAULT_GRID_RES})),
            reach(src, dst) AS (
                SELECT a, a FROM e
                UNION
                SELECT r.src, e.b FROM reach r JOIN e ON e.a = r.dst
            )
            SELECT c.cell, CAST(min(r.dst) AS BIGINT) AS cluster_id, c.n_pages
              FROM reach r JOIN c ON c.cell = r.src
             GROUP BY 1, 3
        """,
        "cell_focal_stats": f"""
            WITH c AS (
                SELECT {_cell_sql()} AS cell, count(*) AS n
                  FROM ({_pages_sql()}) GROUP BY 1
            ),
            d AS (SELECT cell, n, cell // {2 << DEFAULT_GRID_RES} AS cy,
                         cell % {2 << DEFAULT_GRID_RES} AS cx FROM c)
            SELECT a.cell, a.n AS n_pages,
                   CAST(sum(b.n) AS BIGINT) AS focal_sum,
                   CAST(CAST(sum(b.n) AS BIGINT) AS DOUBLE) / 9.0 AS focal_mean
              FROM d a JOIN d b
                ON b.cy BETWEEN a.cy - 1 AND a.cy + 1
               AND b.cx IN ((a.cx + {(2 << DEFAULT_GRID_RES) - 1}) % {2 << DEFAULT_GRID_RES},
                            a.cx,
                            (a.cx + 1) % {2 << DEFAULT_GRID_RES})
             GROUP BY 1, 2
        """,
        "polygon_raster_cells": f"""
            WITH cells AS (
                SELECT unnest(range(0, {(1 << DEFAULT_GRID_RES) * (2 << DEFAULT_GRID_RES)}))
                       AS cell
            ),
            pts AS (
                SELECT cell,
                       -180.0 + (CAST(cell % {2 << DEFAULT_GRID_RES} AS DOUBLE) + 0.5)
                           * {grid_cell_step(DEFAULT_GRID_RES)!r} AS lon,
                       90.0 - (CAST(cell // {2 << DEFAULT_GRID_RES} AS DOUBLE) + 0.5)
                           * {grid_cell_step(DEFAULT_GRID_RES)!r} AS lat
                  FROM cells
            ),
            cross_counts AS (
                SELECT p.cell, e.poly_id, count(*) AS n_cross
                  FROM pts p
                  JOIN read_parquet('{synth.edges_path()}') e
                    ON ((e.y1 > p.lat) != (e.y2 > p.lat))
                   AND p.lon < (e.x2 - e.x1) * (p.lat - e.y1) / (e.y2 - e.y1) + e.x1
                 GROUP BY p.cell, e.poly_id
            )
            SELECT c.cell, c.poly_id, pg.category
              FROM cross_counts c
              JOIN read_parquet('{ppath}') pg USING (poly_id)
             WHERE c.n_cross % 2 = 1
        """,
        "zonal_stats": f"""
            WITH pts AS ({_pages_sql()}),
            pairs AS ({_pip_pairs_sql()}),
            j AS (SELECT pr.poly_id, length(pt.text) AS n_chars
                    FROM pairs pr JOIN pts pt USING (url))
            SELECT j.poly_id, pg.category,
                   count(*) AS n_pages,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   min(n_chars) AS min_chars,
                   max(n_chars) AS max_chars,
                   CAST(sum(n_chars) AS DOUBLE) / count(*) AS mean_chars
              FROM j JOIN read_parquet('{ppath}') pg USING (poly_id)
             GROUP BY 1, 2
        """,
        # crawl sessionization over warc_ts (events_sessions lifted to a
        # string key on the pages table)
        "host_crawl_sessions": f"""
            WITH p AS (
                SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                       epoch_us(warc_ts) AS e
                  FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')),
            marked AS (
                SELECT host, e,
                       CASE WHEN lag(e) OVER w IS NULL
                             OR e - lag(e) OVER w > 1728000000000
                            THEN 1 ELSE 0 END AS new_sess
                  FROM p WINDOW w AS (PARTITION BY host ORDER BY e)),
            sess AS (
                SELECT host, e,
                       CAST(sum(new_sess) OVER (PARTITION BY host ORDER BY e)
                            AS BIGINT) - 1 AS session_id
                  FROM marked)
            SELECT host, session_id, count(*) AS n_pages,
                   min(e) AS t_start, max(e) AS t_end
              FROM sess GROUP BY host, session_id
        """,
        # LEFT OUTER PIP join: pages with no containing polygon emit one
        # ('none') row (the nodata-fill semantics of the inner join)
        "pip_join_left": f"""
            WITH pairs AS ({_pip_pairs_sql()}),
            cat AS (SELECT pr.url, po.category
                      FROM pairs pr
                      JOIN read_parquet('{_polys_path()}') po USING (poly_id)),
            pts AS ({_pages_sql()})
            SELECT p.url, COALESCE(c.category, 'none') AS category
              FROM pts p LEFT JOIN cat c ON p.url = c.url
        """,
        "pip_join_counts": f"""
            SELECT c.poly_id, p.category, count(*) AS n_pages
              FROM ({_pip_pairs_sql()}) c
              JOIN read_parquet('{ppath}') p USING (poly_id)
             GROUP BY c.poly_id, p.category
        """,
        "flagship_cell_category": f"""
            SELECT {_cell_sql()} AS cell, p.category, count(*) AS n_pages
              FROM ({_pip_pairs_sql()}) c
              JOIN read_parquet('{ppath}') p USING (poly_id)
             GROUP BY 1, 2
        """,
        "flagship_resumable": f"""
            SELECT {_cell_sql()} AS cell, p.category, count(*) AS n_pages
              FROM ({_pip_pairs_sql()}) c
              JOIN read_parquet('{ppath}') p USING (poly_id)
             GROUP BY 1, 2
        """,
        # RIOS band math (round 5): per-cell category counts are the
        # bands; diff exact BIGINT, ratio ONE shared IEEE division of
        # two BIGINTs (never HUGEINT->DOUBLE)
        "cell_band_math": f"""
            WITH cc AS (
                SELECT {_cell_sql()} AS cell, p.category, count(*) AS n_pages
                  FROM ({_pip_pairs_sql()}) c
                  JOIN read_parquet('{ppath}') p USING (poly_id)
                 GROUP BY 1, 2
            )
            SELECT a.cell, a.n_pages AS n_a, b.n_pages AS n_b,
                   a.n_pages - b.n_pages AS band_diff,
                   CAST(a.n_pages AS DOUBLE) / CAST(b.n_pages AS DOUBLE)
                       AS band_ratio
              FROM cc a JOIN cc b ON a.cell = b.cell
             WHERE a.category = 'world' AND b.category = 'quad'
        """,
        "cell_pages_capped": f"""
            SELECT cell, url FROM (
                SELECT url, cell,
                       row_number() OVER (PARTITION BY cell ORDER BY url) AS rn
                  FROM (SELECT url, {_cell_sql()} AS cell FROM ({_pages_sql()})))
             WHERE rn <= 5
        """,
        # mean/std of the decoded+resized pixels, over a deterministic
        # scalar-path pixel sidecar (see ensure_pixels_sidecar) — gates
        # the decode->resize->feature actor-pool chain end to end.
        # Pixels are uint8, so avg/var are exact integer sums in float64
        # and the float compare is bitwise (both engines do one division,
        # one subtract, one sqrt in the same order).
        "media_image_features": f"""
            WITH p AS (SELECT url, px FROM read_parquet('{_pixels_sidecar_path()}')),
            ch AS (SELECT url,
                     list_filter(px, (x, i) -> (i - 1) % 3 = 0) AS r,
                     list_filter(px, (x, i) -> (i - 1) % 3 = 1) AS g,
                     list_filter(px, (x, i) -> (i - 1) % 3 = 2) AS b
                   FROM p)
            SELECT url,
              list_aggregate(r, 'avg') AS mean_r,
              list_aggregate(g, 'avg') AS mean_g,
              list_aggregate(b, 'avg') AS mean_b,
              sqrt(greatest(list_aggregate(list_transform(r, x -> x * x), 'avg')
                            - list_aggregate(r, 'avg') * list_aggregate(r, 'avg'), 0)) AS std_r,
              sqrt(greatest(list_aggregate(list_transform(g, x -> x * x), 'avg')
                            - list_aggregate(g, 'avg') * list_aggregate(g, 'avg'), 0)) AS std_g,
              sqrt(greatest(list_aggregate(list_transform(b, x -> x * x), 'avg')
                            - list_aggregate(b, 'avg') * list_aggregate(b, 'avg'), 0)) AS std_b
              FROM ch
        """,
        # average-hash over the same pixel sidecar: integer luma
        # (299r+587g+114b) and an all-int threshold (L*64 > total), so
        # the 64-char bitstring compares exactly
        "media_image_ahash": f"""
            WITH p AS (SELECT url, px FROM read_parquet('{_pixels_sidecar_path()}')),
            u AS (SELECT url, unnest(px) AS v,
                         generate_subscripts(px, 1) AS i FROM p),
            lum AS (SELECT url, CAST((i - 1) // 3 AS BIGINT) AS pix,
                           sum(CASE (i - 1) % 3 WHEN 0 THEN 299 * v
                                                WHEN 1 THEN 587 * v
                                                ELSE 114 * v END) AS L
                      FROM u GROUP BY 1, 2),
            tot AS (SELECT url, sum(L) AS total FROM lum GROUP BY 1)
            SELECT l.url,
                   string_agg(CASE WHEN l.L * 64 > t.total THEN '1' ELSE '0' END,
                              '' ORDER BY l.pix) AS ahash
              FROM lum l JOIN tot t USING (url)
             GROUP BY 1
        """,
        "media_frame_dedup": f"""
            WITH m AS (
                SELECT url, html,
                       CAST(floor(octet_length(html) / {_FRAME_BYTES}) AS BIGINT) AS n_frames
                  FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
            ),
            idx AS (
                SELECT url, html,
                       unnest(generate_series(0, n_frames - 1, {_FRAME_EVERY})) AS frame_idx
                  FROM m WHERE n_frames > 0
            ),
            f AS (
                SELECT url, frame_idx,
                       md5(substring(decode(html),
                                     CAST(frame_idx * {_FRAME_BYTES} + 1 AS BIGINT),
                                     {_FRAME_BYTES})) AS frame_key
                  FROM idx
            ),
            d AS (
                SELECT frame_key, url, frame_idx,
                       row_number() OVER (PARTITION BY frame_key
                                          ORDER BY url, frame_idx) AS rn,
                       count(*) OVER (PARTITION BY frame_key) AS n_copies
                  FROM f
            )
            SELECT frame_key, url AS keep_url, frame_idx AS keep_idx, n_copies
              FROM d WHERE rn = 1
        """,
        "media_frame_samples": f"""
            WITH m AS (
                SELECT url, html,
                       CAST(floor(octet_length(html) / {_FRAME_BYTES}) AS BIGINT) AS n_frames
                  FROM read_parquet('{synth.pages_path(SF001)}/*.parquet')
            ),
            idx AS (
                SELECT url, html,
                       unnest(generate_series(0, n_frames - 1, {_FRAME_EVERY})) AS frame_idx
                  FROM m WHERE n_frames > 0
            )
            SELECT url, frame_idx,
                   substring(decode(html), CAST(frame_idx * {_FRAME_BYTES} + 1 AS BIGINT),
                             {_FRAME_BYTES}) AS frame
              FROM idx
        """,
        "knn_pages": _knn_sql(10),
        "knn_pages_cellring": _knn_sql(10),
    }
