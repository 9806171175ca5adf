"""Per-query benchmark: best-of-N wall time of each ``BENCH`` entry, the
``__ray_entry__.queries()`` callable the correctness oracle gates, under
the shared engine session; ONE final JSON line.  Env: GRAFT_SF_DIR
(the sf0.1 test data), RAY_GRAFT_CPUS (32), GRAFT_BENCH_QUERIES (comma
subset), GRAFT_BENCH_REPEATS (3).  ``--scaling``: the flagship in fresh
processes at 1 and 4 CPUs, throughputs plus scaling efficiency.  Both
outputs end with the 1-minute load average and the CPU steal fraction
over the timed runs, read from /proc."""

from __future__ import annotations

import gc
import glob
import json
import os
import subprocess
import sys
import time

import ray.data

import __ray_entry__ as entry
from rios_ray import session, synth
from rtbench.machine import MachineWindow

# bench name (keys of every BENCH_rNN.json) -> registry name, or (name, kwargs):
# decontaminate_100k runs ~86k probes at sf0.1, the hashed-membership path
BENCH = {
    "geocode_cells": "geocode_cells", "host_counts": "host_counts",
    "spatial_join": "pip_join_pairs", "flagship": "flagship_cell_category",
    "knn_pages": "knn_pages", "knn_cellring": "knn_pages_cellring",
    "cell_fanout_cap": "cell_pages_capped", "radius_join": "radius_join",
    "cell_rollup": "cell_rollup", "zonal_stats": "zonal_stats",
    "top_pages_per_host": "top_pages_per_host", "dedup_paragraphs": "dedup_paragraphs",
    "dedup_minhash": "dedup_minhash_pairs", "dedup_edit_pairs": "dedup_edit_pairs",
    "neardup_pagerank": "neardup_pagerank", "bm25_scores": "bm25_scores",
    "neardup_triangles": "neardup_triangles", "dedup_clusters": "dedup_minhash_clusters",
    "corpus_clean": "corpus_clean", "rel_q1": "rel_q1_pricing", "rel_q5": "rel_q5_nation_revenue",
    "rel_q21": "rel_q21_returns_suppliers", "rel_q13": "rel_q13_customer_distribution",
    "rel_q17": "rel_q17_small_quantity_revenue", "rel_q2": "rel_q2_min_cost_supplier",
    "rel_q8": "rel_q8_market_share", "rel_q9": "rel_q9_nation_profit",
    "rel_q11": "rel_q11_important_parts", "rel_q15": "rel_q15_top_supplier",
    "rel_q16": "rel_q16_supplier_counts", "rel_q19": "rel_q19_disjunctive_revenue",
    "rel_q20": "rel_q20_excess_suppliers", "cell_compact": "cell_compact",
    "cell_band_math": "cell_band_math", "bigram_pmi": "bigram_pmi",
    "quality_weighted_sample": "quality_weighted_sample",
    "token_percentile_rank": "token_percentile_rank", "events_value_mean": "events_value_mean",
    "events_sessions": "events_sessions", "events_funnel": "events_funnel",
    "dedup_winnow": "dedup_winnow_pairs", "heavy_hitters": "text_heavy_hitters",
    "decontaminate_100k": ("decontaminate", {"every": 2, "probes_per_doc": 40, "method": "ngram"}),
    "media_frames": "media_frame_samples", "tfidf_top_terms": "tfidf_top_terms",
    "bigram_lm": "bigram_lm", "events_rolling": "events_rolling_extrema",
    "kmeans_assign": "emb_kmeans_assign", "grid_dbscan": "grid_dbscan", "pages_cube": "pages_cube",
    "doc_bigram_coverage": "doc_bigram_coverage", "media_ahash": "media_image_ahash",
    "events_quantiles_sketch": "events_quantiles_sketch", "events_deltas": "events_value_deltas",
    "pip_join_left": "pip_join_left", "host_crawl_sessions": "host_crawl_sessions",
    "cell_gradient": "cell_gradient",
}


def run_bench() -> tuple[dict, dict]:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
    only = os.environ.get("GRAFT_BENCH_QUERIES")
    session.init(num_cpus)
    registry = entry.queries()

    def run(name: str):
        query, kw = (BENCH[name], {}) if isinstance(BENCH[name], str) else BENCH[name]
        res = registry[query](sf_dir, **kw)
        return res.count() if isinstance(res, ray.data.Dataset) else res

    # outside the clock: fixture generation, page-cache warm-up, and one
    # flagship pass that spins up the workers and warms their kernels (a
    # first touch of a large allocation costs ~2 s per worker per shape)
    for shard in glob.glob(os.path.join(synth.ensure_pages(sf_dir), "*.parquet")):
        with open(shard, "rb") as f:
            while f.read(1 << 24):
                pass
    run("flagship")

    # best-of-N: one-off page faults and CPU-steal windows swing single
    # runs up to 3x; the raws, and the steal and load recorded beside
    # them, tell such noise from a real regression
    window = MachineWindow()
    raw_iters: dict[str, list[float]] = {}
    for name in [n for n in BENCH if not only or n in only.split(",")]:
        for _ in range(repeats):
            t0 = time.time()
            run(name)
            raw_iters.setdefault(name, []).append(round(time.time() - t0, 3))
            # outside the clock: drop cyclic garbage pinning object-store blocks,
            # or late entries pay spill I/O (rel_q21 7.6 s mid-suite vs 1.5 s fresh)
            gc.collect()
    machine = window.close(num_cpus)
    ray.shutdown()
    timings = {name: min(its) for name, its in raw_iters.items()}
    # a GRAFT_BENCH_QUERIES subset without flagship reports its total
    headline = timings.get("flagship")
    n_pages = synth.n_pages_for(sf_dir)
    return {
        "metric": "spatial-join + tiling flagship wall time",
        "value": headline if headline is not None else round(sum(timings.values()), 3),
        "unit": "sec", "queries": timings, "sf": synth.sf_from_dir(sf_dir),
        "num_cpus": num_cpus, "n_pages": n_pages,
        "pages_per_sec": round(n_pages / headline, 1) if headline else None,
        "loadavg_1m": machine["loadavg_1m"], "steal_frac": round(machine["steal_frac"], 4),
    }, raw_iters


def run_scaling() -> dict:
    """Flagship in fresh processes at N vs 4N CPUs (default 1 vs 4), on an input
    (default sf2, 12M pages) where fixed overhead does not swamp the ratio.  1->4
    is the reference's serial vs 4-worker protocol and stays under a 4-vCPU
    VM's bandwidth ceiling; a 2-cpu baseline overlaps read with compute (BASELINE.md)."""
    sf_dir = os.environ.get("GRAFT_SCALING_SF_DIR", "/tmp/graft_synth/sf2")

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=sf_dir,
                   GRAFT_BENCH_QUERIES="flagship",
                   GRAFT_BENCH_REPEATS=os.environ.get("GRAFT_BENCH_REPEATS", "3"))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                             capture_output=True, text=True, check=True).stdout
        # the compact summary is the LAST line (iters travel earlier)
        return json.loads(out.strip().splitlines()[-1])

    # best of 3 fresh processes per leg: a measured 1->4 read 0.783 at 2
    # repeats (the 4-cpu leg had not hit its best) vs 0.861 at 3
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "3"))
    window = MachineWindow()
    ncpu_lo, ncpu_hi = (int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "1,4").split(","))
    lo, hi = (min((one(n) for _ in range(repeats)), key=lambda r: r["value"])
              for n in (ncpu_lo, ncpu_hi))
    tput_lo, tput_hi = lo["pages_per_sec"], hi["pages_per_sec"]
    machine = window.close(ncpu_hi)
    return {"metric": f"scaling efficiency ({ncpu_lo} -> {ncpu_hi} cpus, fresh processes)",
            f"pages_per_sec_{ncpu_lo}": tput_lo, f"pages_per_sec_{ncpu_hi}": tput_hi,
            f"sec_{ncpu_lo}": lo["value"], f"sec_{ncpu_hi}": hi["value"],
            "scaling_efficiency": round((tput_hi / tput_lo) / (ncpu_hi / ncpu_lo), 3),
            "sf": lo["sf"], "loadavg_1m": machine["loadavg_1m"],
            "steal_frac": round(machine["steal_frac"], 4)}


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        summary, raw_iters = run_bench()
        # raws travel on their own earlier line: inline they overflowed
        # the tail capture that parses the FINAL (summary) line
        print(json.dumps({"iters": raw_iters}))
        print(json.dumps(summary))
