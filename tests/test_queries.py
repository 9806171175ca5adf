"""Every registered query witnessed against its DuckDB oracle, through
the correctness tool's own comparison (``tools/check_correctness.py``),
with its Ray Data job count pinned and without an actor pool."""

import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import __ray_entry__ as entry  # noqa: E402
from tools.check_correctness import compare, oracle_connection, to_pandas  # noqa: E402

SF = entry.SF001
QUERIES = entry.queries()

# the registry's names in order: the correctness gate reads the first 50,
# and every CORRECTNESS_full_rNN.json ledger is keyed by them
QUERY_NAMES = [
    "events_sessions", "events_value_quantiles", "events_quantiles_sketch",
    "events_value_deltas", "events_users_hll", "events_value_mean",
    "rel_q18_big_orders", "rel_q10_returned_revenue", "rel_q4_bloom",
    "rel_q2_min_cost_supplier", "rel_q8_market_share", "rel_q9_nation_profit",
    "rel_q11_important_parts", "rel_q15_top_supplier", "rel_q16_supplier_counts",
    "rel_q19_disjunctive_revenue", "rel_q20_excess_suppliers", "rel_q7_volume_shipping",
    "cell_gradient", "cell_compact", "cell_band_math", "decontaminate",
    "polygon_raster_cells", "rel_q13_customer_distribution", "dedup_edit_pairs",
    "neardup_pagerank", "neardup_triangles", "quality_weighted_sample", "bm25_scores",
    "token_percentile_rank", "rel_q17_small_quantity_revenue",
    "rel_q21_returns_suppliers", "media_image_features", "media_frame_samples",
    "media_frame_dedup", "flagship_cell_category", "pages_cube", "knn_pages_cellring",
    "dedup_winnow_pairs", "dedup_exact", "dedup_minhash_pairs", "tfidf_top_terms",
    "bigram_lm", "bigram_pmi", "events_rolling_extrema", "emb_kmeans_assign",
    "grid_dbscan", "pip_join_left", "doc_bigram_coverage", "media_image_ahash",
    "events_top_users_per_window", "host_crawl_sessions", "events_window_anomalies",
    "events_range_join", "rel_q12_priority_lines", "rat_derive", "rat_derive_store",
    "knn_embeddings_ivf", "knn_embeddings_pq", "emb_neardup_lsh",
    "emb_neardup_clusters", "events_tumbling", "events_sliding", "events_funnel",
    "events_distinct_users", "events_asof_join", "rat_colstats", "knn_embeddings",
    "emb_neardup", "doc_length_token_corr", "events_retention", "events_bigrams",
    "lang_confusion", "rel_q22_idle_customers", "rel_q14_type_revenue",
    "dedup_minhash_clusters", "text_winnow", "dedup_jaccard_pairs",
    "dedup_simhash_pairs", "dedup_paragraphs", "flagship_resumable", "knn_pages",
    "cell_pages_capped", "host_counts", "pip_join_pairs", "zonal_stats", "radius_join",
    "extracted_text", "geocode_cells", "cell_counts", "lang_counts", "pip_join_counts",
    "s2_cells", "hex_cells", "cell_rollup", "s2_rollup", "cell_focal_stats",
    "top_pages_per_host", "url_canonical", "text_token_stats", "text_quality",
    "text_repetition", "corpus_clean", "text_lang_id", "text_md5", "text_topk_tokens",
    "text_pii", "vocab_topk", "token_quantiles", "stratified_sample",
    "text_heavy_hitters", "doc_zscores", "host_char_share", "rel_q1_pricing",
    "rel_q3_top_orders", "rel_q5_nation_revenue", "rel_q6_forecast_revenue",
    "rel_q4_order_priority",
]

# Ray Data jobs per query, the result's to_pandas() included, at 4 CPUs
# under rios_ray.session; a query not listed runs as one job.  A count
# that grows means the query re-runs an upstream.
MULTI_JOB = {
    "rel_q18_big_orders": 2, "rel_q4_bloom": 2, "rel_q11_important_parts": 3,
    "rel_q15_top_supplier": 3, "cell_gradient": 2, "decontaminate": 2,
    "rel_q13_customer_distribution": 2, "neardup_pagerank": 4, "neardup_triangles": 4,
    "bm25_scores": 2, "token_percentile_rank": 2, "rel_q17_small_quantity_revenue": 3,
    "rel_q21_returns_suppliers": 2, "tfidf_top_terms": 3, "bigram_lm": 3,
    "bigram_pmi": 5, "grid_dbscan": 4, "doc_bigram_coverage": 4,
    "events_window_anomalies": 3, "emb_neardup_clusters": 2,
    "rel_q22_idle_customers": 2, "dedup_minhash_clusters": 2, "flagship_resumable": 3,
    "zonal_stats": 2, "cell_focal_stats": 2, "text_heavy_hitters": 2, "doc_zscores": 2,
}


def test_registry_is_the_query_contract():
    assert list(QUERIES) == QUERY_NAMES
    assert set(entry.oracle_sql()) == set(QUERIES)
    for fn in QUERIES.values():
        inspect.signature(fn).bind(SF)


@pytest.fixture(scope="module")
def oracle():
    con = oracle_connection(SF)
    yield con, entry.oracle_sql()
    con.close()


@pytest.mark.parametrize("name", list(QUERIES))
def test_query_matches_oracle(ray_session, ray_jobs, oracle, name):
    con, sql = oracle
    got = to_pandas(QUERIES[name](SF))
    verdict, problems = compare(got, con.sql(sql[name]).df())
    assert not problems, problems
    assert all(verdict.values()), verdict
    assert len(ray_jobs) == MULTI_JOB.get(name, 1), [[op.name for op in job] for job in ray_jobs]
    # per-process state lives in the task pool's stage cache
    # (util.stage_fn): no job spins up an actor pool
    actor_ops = [op.name for job in ray_jobs for op in job
                 if type(op).__name__ == "ActorPoolMapOperator"]
    assert not actor_ops, actor_ops
