"""Per-layer metrics for the traced run, measured from outside the engine.

Every probe calls a layer's public functions from here, inside a span,
so no engine code changes.  All four layer families are probed in every
traced run, each on the seed's input of the workload that exercises it
most (pages for sources/stages/cells/agg, the resume pages for runtime,
the corpus for dedup/text/join/graph, the raster for gridmodel/applier/
stats/tiles); the workload under test adds its own pass-level figures
(executor overhead, pass tail, tracing overhead).

Each metric is defined in ``README.md``.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import inputs as I
import workloads as W

BATCH = 16384


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _timed(tr, name: str, fn):
    t0 = time.perf_counter()
    with tr.span(name):
        out = fn()
    return out, time.perf_counter() - t0


def _batches(table: pa.Table):
    for off in range(0, table.num_rows, BATCH):
        yield table.slice(off, BATCH)


def _kernel_rate(tr, name: str, table: pa.Table, fn) -> tuple[float, list]:
    """Driver-side kernel over in-memory batches; returns (s/row, outputs)."""
    outs = []
    t0 = time.perf_counter()
    with tr.span(name):
        for b in _batches(table):
            outs.append(fn(b))
    return (time.perf_counter() - t0) / max(1, table.num_rows), outs


def executor_counts(datasets) -> dict:
    """Tasks, blocks and spilled bytes from each Dataset's stats."""
    tasks = blocks = spilled = 0
    for ds in datasets:
        text = ds.stats()
        for t, b in re.findall(r"(\d+) tasks executed, (\d+) blocks produced", text):
            tasks += int(t)
            blocks += int(b)
        summary = getattr(ds, "_get_stats_summary", lambda: None)()
        spilled += int(getattr(summary, "dataset_bytes_spilled", 0) or 0)
    return {"tasks": tasks, "blocks": blocks, "spilled_bytes": spilled}


class LayerProbe:
    def __init__(self, root: str, seed: int):
        self.root, self.seed = root, seed
        self.tiling = W.Tiling(root, seed)
        self.resume = W.Resume(root, seed)
        self.corpus = W.Corpus(root, seed)
        self.raster = W.Raster(root, seed)

    def prepare(self) -> None:
        for wl in (self.tiling, self.resume, self.corpus, self.raster):
            wl.prepare()

    # ----------------------------------------------------------------------

    def probe_pages(self, tr) -> tuple[dict, dict]:
        """sources / stages / cells / agg on the tiling pages."""
        from rios_ray import cells, synth
        from rios_ray.functions.agg import grouped_count
        from rios_ray.pipelines.pages import spatial_join
        from rios_ray.sources.pages import read_pages
        from rios_ray.stages.cellassign import DEFAULT_GRID_RES, assign_cells
        from rios_ray.stages.geocode import extract_text, geocode
        from rios_ray.stages.knn import knn_partial_fn
        from rios_ray.stages.pip import pip_join_fn

        sf = self.tiling.sf_dir
        n = self.tiling.n_pages
        out: dict = {}
        read, read_s = _timed(tr, "sources.read_pages",
                              lambda: W.materialize(read_pages(sf, columns=["html"],
                                                               bundle_files=True)))
        out["sources.read_s"] = _m(read_s, "s")
        out["sources.read_mb"] = _m(read.nbytes / 1e6, "MB")

        pages = pq.read_table(synth.pages_path(sf), columns=["url", "html"])
        rate: dict = {}
        rate["geocode"], geo = _kernel_rate(tr, "stages.geocode", pages,
                                            lambda b: geocode(extract_text(b)))
        geo_t = pa.concat_tables(geo).select(["url", "lat", "lon"])
        rate["cellassign"], cel = _kernel_rate(
            tr, "stages.cellassign", geo_t, lambda b: assign_cells(b, families=("grid",)))
        cel_t = pa.concat_tables(cel)
        lon = geo_t["lon"].to_numpy()
        lat = geo_t["lat"].to_numpy()
        t0 = time.perf_counter()
        with tr.span("cells.grid_cell_id"):
            for off in range(0, n, BATCH):
                cells.grid_cell_id(lon[off:off + BATCH], lat[off:off + BATCH], DEFAULT_GRID_RES)
        rate["grid_cell_id"] = (time.perf_counter() - t0) / n
        polys = pq.read_table(synth.ensure_polygons()[0])
        rate["pip"], _ = _kernel_rate(tr, "stages.pip", cel_t, pip_join_fn(polys))
        q = pq.read_table(synth.ensure_knn_queries())
        rate["knn"], _ = _kernel_rate(tr, "stages.knn", cel_t, knn_partial_fn(q, 10))
        for k in ("geocode", "cellassign", "pip", "knn"):
            out[f"stages.{k}.rows_per_s"] = _m(1.0 / rate[k], "1/s")
        out["cells.grid_cell_id.rows_per_s"] = _m(1.0 / rate["grid_cell_id"], "1/s")

        joined, join_s = _timed(tr, "stages.spatial_join",
                                lambda: W.materialize(spatial_join(sf)))
        out["stages.pip.pairs_per_page"] = _m(joined.num_rows / n, "ratio")
        agg_ds = grouped_count(spatial_join(sf), ["cell", "category"])
        groups, agg_s = _timed(tr, "agg.grouped_count", lambda: W.materialize(agg_ds))
        out["agg.exchange_s"] = _m(agg_s - join_s, "s")
        out["agg.rows_in"] = _m(joined.num_rows, "count")
        out["agg.groups_out"] = _m(groups.num_rows, "count")
        return out, rate

    def probe_runtime(self, tr) -> tuple[dict, dict]:
        """runtime: one resume cycle, then one shard's partial built and
        written by hand with the same public functions.

        ``commit_s`` is what a partition costs beyond the build + write +
        metrics poll its lineage record times (``wall_s``): the commit
        and the driver loop around it."""
        import ray
        from rios_ray import synth
        from rios_ray.functions.agg import grouped_count
        from rios_ray.pipelines.pages import BATCH_SIZE, geocoded_pages
        from rios_ray.runtime import Manifest, shard_partitions
        from rios_ray.stages.pip import pip_join_fn

        wl = self.resume
        res, _ = _timed(tr, "runtime.cycle", lambda: wl.run_pass(0, tr))
        counts = wl.check(res)
        part_s = res["full_s"] / counts["n_partitions"]
        manifest = Manifest(res["out_dir"])
        # records of the first run only: the resumed partition was re-timed
        in_record_s = statistics.mean(manifest.read(p).wall_s for p in res["partitions"]
                                      if p not in res["lost"])
        shard = sorted(shard_partitions(synth.pages_path(wl.sf_dir)).items())[0][1]
        polys_ref = ray.put(pq.read_table(synth.ensure_polygons()[0]))

        def build():
            ds = geocoded_pages(wl.sf_dir, keep_text=False, paths=shard, families=("grid",))
            ds = ds.map_batches(pip_join_fn(polys_ref), batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=BATCH_SIZE)
            return grouped_count(ds, ["cell", "category"], alias="n_pages")

        # the first build also fills each worker's PIP index cache: untimed
        partial = W.materialize(build())
        _, build_s = _timed(tr, "runtime.build", lambda: W.materialize(build()))
        dest = os.path.join(wl.work, "probe-part")
        _, write_s = _timed(tr, "runtime.write",
                            lambda: ray.data.from_arrow(partial).write_parquet(dest))
        wl.cleanup()
        out = {
            "runtime.partition_s": _m(part_s, "s"),
            "runtime.build_s": _m(build_s, "s"),
            "runtime.write_s": _m(write_s, "s"),
            "runtime.commit_s": _m(part_s - in_record_s, "s"),
            "runtime.partitions_lost": _m(counts["lost"], "count"),
            "runtime.partitions_rerun": _m(counts["rerun"], "count"),
            "runtime.rerun_per_lost": _m(counts["rerun"] / max(1, counts["lost"]), "ratio"),
            "runtime.resume_s": _m(counts["resume_s"], "s"),
            "runtime.finalize_s": _m(counts["finalize_s"], "s"),
            "runtime.written_mb": _m(counts["written_bytes"] / 1e6, "MB"),
        }
        return out, {}

    def probe_dedup(self, tr) -> tuple[dict, dict]:
        """dedup / text / join / graph on the corpus."""
        import ray
        from rios_ray.functions.graph import connected_components
        from rios_ray.functions.join import partitioned_lookup_join
        from rios_ray.pipelines import dedup as D
        from rios_ray.text.analysis import levenshtein_batch

        sf = self.corpus.sf_dir
        pipe = self.corpus.pipelines()
        out: dict = {}
        pairs, pairs_s = _timed(tr, "dedup.minhash_pairs",
                                lambda: W.materialize(pipe["minhash_pairs"]()))
        cands, _ = _timed(tr, "dedup.minhash_candidates",
                          lambda: W.materialize(D.minhash_candidates(sf)))
        out["dedup.pairs_s"] = _m(pairs_s, "s")
        out["dedup.candidates"] = _m(cands.num_rows, "count")
        out["dedup.pairs"] = _m(pairs.num_rows, "count")
        out["dedup.verify_yield"] = _m(pairs.num_rows / max(1, cands.num_rows), "ratio")
        spent = 0.0
        for k, name in (("edit", "edit_distance_pairs"), ("pagerank", "neardup_pagerank"),
                        ("triangles", "neardup_triangles"), ("clusters", "minhash_clusters")):
            _, s = _timed(tr, f"dedup.{k}", lambda: W.materialize(pipe[name]()))
            out[f"dedup.{k}_s"] = _m(s, "s")
            spent += s
        # each consumer rebuilds the minhash pairs it starts from
        out["dedup.pairs_rebuild_frac"] = _m(4 * pairs_s / spent, "ratio")
        _, pmi_s = _timed(tr, "text.bigram_pmi", lambda: W.materialize(pipe["bigram_pmi"]()))
        out["text.pmi_s"] = _m(pmi_s, "s")

        docs = pq.read_table(os.path.join(sf, "documents.parquet"), columns=["doc_id", "text"])
        text_of = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
        a = [text_of[i] for i in pairs["doc_a"].to_pylist()]
        b = [text_of[i] for i in pairs["doc_b"].to_pylist()]
        _, lev_s = _timed(tr, "text.levenshtein_batch", lambda: levenshtein_batch(a, b))
        out["text.levenshtein.pairs_per_s"] = _m(len(a) / max(lev_s, 1e-9), "1/s")
        pair_tbl = pairs.select(["doc_a", "doc_b"])
        _, join_s = _timed(tr, "join.partitioned_lookup_join", lambda: W.materialize(
            partitioned_lookup_join(ray.data.from_arrow(pair_tbl),
                                    ray.data.from_arrow(docs), "doc_a", "doc_id",
                                    [("doc_a", pa.int64()), ("doc_b", pa.int64())],
                                    [("text", pa.string(), "text_a")])))
        out["join.lookup_s"] = _m(join_s, "s")
        _, cc_s = _timed(tr, "graph.connected_components", lambda: W.materialize(
            connected_components(ray.data.from_arrow(pair_tbl))))
        out["graph.components_s"] = _m(cc_s, "s")
        return out, {"levenshtein_s": lev_s}

    def probe_raster(self, tr) -> tuple[dict, dict]:
        """gridmodel / applier / stats / tiles on the raster."""
        from rios_ray.gridmodel import INTERSECTION, find_common_region
        from rios_ray.sources.tileraster import TileRasterInfo
        from rios_ray.stats import make_partials_fn

        wl = self.raster
        grid = TileRasterInfo.read(wl.in_path).grid
        reps = 2000
        t0 = time.perf_counter()
        with tr.span("gridmodel.find_common_region"):
            for _ in range(reps):
                wg = find_common_region([grid, grid], grid, INTERSECTION)
        plan_s = (time.perf_counter() - t0) / reps
        nr, nc = wg.dimensions()
        B, m = I.RASTER_BLOCK, 2
        block_px = margin_px = 0
        for top in range(0, nr, B):
            for left in range(0, nc, B):
                ys, xs = min(B, nr - top), min(B, nc - left)
                block_px += ys * xs
                margin_px += (ys + 2 * m) * (xs + 2 * m) - ys * xs

        oa = SimpleNamespace(userfn_s=0.0)  # copied per block, summed after
        (_, rtn), base_s = _timed(tr, "applier.apply", lambda: wl.apply(
            "probe-plain", stats=False, pyramids=False, other_args=oa))
        userfn_s = sum(o.userfn_s for o in rtn.other_args_list)
        (path, _), stats_s = _timed(tr, "applier.apply+stats", lambda: wl.apply(
            "probe-stats", stats=True, pyramids=False))
        _, pyr_s = _timed(tr, "applier.apply+pyramids", lambda: wl.apply(
            "probe-pyr", stats=False, pyramids=True))
        tiles = pq.read_table(path)
        one = tiles.filter(pa.compute.equal(tiles["band"], 0)).slice(0, 1)
        fn = make_partials_fn(np.uint16)
        reps = 20
        t0 = time.perf_counter()
        with tr.span("stats.partials"):
            for _ in range(reps):
                fn(one)
        part_s = (time.perf_counter() - t0) / reps
        px = int(one["nrows"][0].as_py()) * int(one["ncols"][0].as_py())
        wl.cleanup()
        out = {
            "gridmodel.plan_s": _m(plan_s, "s"),
            "applier.blocks": _m(rtn.n_blocks, "count"),
            "applier.margin_frac": _m(margin_px / block_px, "ratio"),
            "applier.apply_s": _m(base_s, "s"),
            "applier.userfn_s": _m(userfn_s, "s"),
            "applier.engine_s": _m(base_s - userfn_s, "s"),
            "stats.close_s": _m(stats_s - base_s, "s"),
            "tiles.pyramid_s": _m(pyr_s - base_s, "s"),
            "stats.partials.px_per_s": _m(px / part_s, "1/s"),
        }
        px_total = nr * nc * wl.nbands
        return out, {"userfn_s": userfn_s, "stats_kernel_s": part_s / px * px_total}

    # ----------------------------------------------------------------------

    @staticmethod
    def kernel_s(wl, k: dict) -> float:
        """Summed driver-measured kernel time for the rows one pass of
        ``wl`` pushes through each kernel (``k``: per-row seconds and
        per-pass kernel seconds from the probes)."""
        from rios_ray import synth

        if isinstance(wl, W.Tiling):
            n = wl.n_pages
            flagship = n * (k["geocode"] + k["grid_cell_id"] + k["pip"])
            knn = n * (2 * (k["geocode"] + k["cellassign"]) + k["knn"])
            return flagship + knn
        if isinstance(wl, W.Resume):
            parts = -(-wl.n_pages // synth.SHARD_ROWS)
            rows = wl.n_pages * (1 + wl.n_lost / parts)
            return rows * (k["geocode"] + k["cellassign"] + k["pip"])
        if isinstance(wl, W.Corpus):
            return k["levenshtein_s"]
        return k["userfn_s"] + k["stats_kernel_s"]

    def run(self, tr, wl, passes, traced) -> dict:
        tr.begin_pass("probe")
        out: dict = {}
        kernels: dict = {}
        for probe in (self.probe_pages, self.probe_runtime, self.probe_dedup,
                      self.probe_raster):
            metrics, k = probe(tr)
            out.update(metrics)
            kernels.update(k)
        med_u = statistics.median([o.wall for o in passes if o.status == "ok"]
                                  or [o.wall for o in passes])
        med_t = statistics.median([o.wall for o in traced if o.status == "ok"]
                                  or [o.wall for o in traced])
        counts = executor_counts(wl.datasets)
        out["executor.overhead_s"] = _m(med_u - self.kernel_s(wl, kernels), "s")
        out["executor.tasks"] = _m(counts["tasks"], "count")
        out["executor.blocks"] = _m(counts["blocks"], "count")
        out["executor.spilled_mb"] = _m(counts["spilled_bytes"] / 1e6, "MB")
        out["trace.overhead_frac"] = _m(med_t / med_u - 1.0, "ratio")
        return out
