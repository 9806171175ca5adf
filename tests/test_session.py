"""The shared engine session and the registry-driven bench table."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bench.py's entry names, in order: the keys of every BENCH_rNN.json
BENCH_NAMES = [
    "geocode_cells", "host_counts", "spatial_join", "flagship", "knn_pages",
    "knn_cellring", "cell_fanout_cap", "radius_join", "cell_rollup", "zonal_stats",
    "top_pages_per_host", "dedup_paragraphs", "dedup_minhash", "dedup_edit_pairs",
    "neardup_pagerank", "bm25_scores", "neardup_triangles", "dedup_clusters",
    "corpus_clean", "rel_q1", "rel_q5", "rel_q21", "rel_q13", "rel_q17", "rel_q2",
    "rel_q8", "rel_q9", "rel_q11", "rel_q15", "rel_q16", "rel_q19", "rel_q20",
    "cell_compact", "cell_band_math", "bigram_pmi", "quality_weighted_sample",
    "token_percentile_rank", "events_value_mean", "events_sessions", "events_funnel",
    "dedup_winnow", "heavy_hitters", "decontaminate_100k", "media_frames",
    "tfidf_top_terms", "bigram_lm", "events_rolling", "kmeans_assign", "grid_dbscan",
    "pages_cube", "doc_bigram_coverage", "media_ahash", "events_quantiles_sketch",
    "events_deltas", "pip_join_left", "host_crawl_sessions", "cell_gradient",
]


def test_tune_derives_executor_settings_from_cluster(ray_session):
    import ray
    from ray.data import DataContext

    from rios_ray import session

    ctx = DataContext.get_current()
    fields = ("enable_progress_bars", "op_resource_reservation_enabled",
              "read_op_min_num_blocks")
    saved = {f: getattr(ctx, f) for f in fields}
    cpus = int(ray.cluster_resources()["CPU"])
    try:
        # Ray is already up: init only tunes, and keeps the cluster as is
        session.init(num_cpus=cpus + 1)
        assert int(ray.cluster_resources()["CPU"]) == cpus
        assert ctx.enable_progress_bars is False
        assert ctx.op_resource_reservation_enabled is False
        assert ctx.read_op_min_num_blocks == cpus
    finally:
        for f, v in saved.items():
            setattr(ctx, f, v)


def test_bench_table_resolves_to_registry():
    sys.path.insert(0, ROOT)
    import __ray_entry__ as entry
    import bench

    assert list(bench.BENCH) == BENCH_NAMES
    registry = entry.queries()
    for target in bench.BENCH.values():
        assert (target if isinstance(target, str) else target[0]) in registry
