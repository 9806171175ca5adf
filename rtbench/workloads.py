"""The four workloads: seeded inputs, one pass of engine work, and the
oracle check of that pass's outputs.

A workload's ``run_pass`` is the timed region: it builds the pipelines
and consumes every output.  ``check`` runs after the clock stops and
raises ``OracleMismatch`` on any difference from the oracle.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa

import inputs as I
import oracles as O


def materialize(ds) -> pa.Table:
    """Consume a Dataset (or pass through a table / DataFrame)."""
    import ray

    if isinstance(ds, pa.Table):
        return ds
    if hasattr(ds, "to_arrow_refs"):
        tables = ray.get(ds.to_arrow_refs())
        nonempty = [t for t in tables if t.num_rows]
        if not nonempty:
            return tables[0] if tables else pa.table({})
        return pa.concat_tables(nonempty, promote_options="default")
    return pa.Table.from_pandas(ds, preserve_index=False)


class Workload:
    name = ""
    unit = ""  # what one item of items_per_s is

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.dir = I.seed_dir(root, seed)
        self.work = os.path.join(self.dir, f"work-{self.name}-{os.getpid()}")
        self.datasets: list = []  # last pass's Datasets, for Dataset.stats()

    def prepare(self) -> None:
        """Generate inputs and oracles (cached per seed); no Ray needed."""
        raise NotImplementedError

    def items_per_pass(self) -> float:
        raise NotImplementedError

    def oracle_path(self, input_dir: str) -> str:
        """Oracle cache file, keyed by workload and input (size included)."""
        return os.path.join(self.dir, f"oracles-{self.name}-{os.path.basename(input_dir)}.json")

    def run_pass(self, pass_idx: int, tr) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> dict:
        """Raise OracleMismatch on wrong output; return per-pass counts."""
        raise NotImplementedError

    def _track(self, ds):
        self.datasets.append(ds)
        return ds

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# --------------------------------------------------------------------------
# tiling: pages -> flagship + knn_pages_cellring
# --------------------------------------------------------------------------


class Tiling(Workload):
    name = "tiling"
    unit = "pages"
    n_pages = I.TILING_PAGES

    def prepare(self) -> None:
        from rios_ray import synth

        self.sf_dir = I.pages_sf_dir(self.root, self.seed, self.n_pages)
        I.ensure_pages(self.sf_dir, self.n_pages, self.seed)
        synth.ensure_polygons()
        synth.ensure_knn_queries()
        self.oracle = O.cached(
            self.oracle_path(self.sf_dir),
            lambda: O.pages_oracles(self.sf_dir, with_knn=True))

    def items_per_pass(self) -> float:
        return float(self.n_pages)

    def run_pass(self, pass_idx: int, tr) -> dict:
        from rios_ray.pipelines.pages import flagship, knn_pages_cellring

        self.datasets = []
        with tr.span("pipelines.flagship"):
            fl = materialize(self._track(flagship(self.sf_dir)))
        with tr.span("pipelines.knn_pages_cellring"):
            kn = materialize(self._track(knn_pages_cellring(self.sf_dir, k=10)
                                         .select_columns(["qid", "url", "d2", "rank"])))
        return {"flagship": fl, "knn_cellring": kn}

    def check(self, out: dict) -> dict:
        O.check_table("flagship", out["flagship"], self.oracle["flagship"])
        O.check_table("knn_cellring", out["knn_cellring"], self.oracle["knn_cellring"])
        return {}


# --------------------------------------------------------------------------
# resume: resumable flagship, lose a seeded subset, resume, finalize
# --------------------------------------------------------------------------


class Resume(Workload):
    name = "resume"
    unit = "pages"
    n_pages = I.RESUME_PAGES
    n_lost = I.RESUME_LOST

    def prepare(self) -> None:
        from rios_ray import synth

        self.sf_dir = I.pages_sf_dir(self.root, self.seed, self.n_pages)
        I.ensure_pages(self.sf_dir, self.n_pages, self.seed)
        synth.ensure_polygons()
        self.oracle = O.cached(
            self.oracle_path(self.sf_dir),
            lambda: O.pages_oracles(self.sf_dir, with_knn=False))

    def items_per_pass(self) -> float:
        return float(self.n_pages)

    def lost_partitions(self, pass_idx: int, partitions: list[str]) -> set[str]:
        rng = np.random.default_rng([self.seed, pass_idx])
        pick = rng.choice(len(partitions), size=min(self.n_lost, len(partitions)), replace=False)
        return {sorted(partitions)[int(i)] for i in pick}

    def run_pass(self, pass_idx: int, tr) -> dict:
        from rios_ray.pipelines.resumable import finalize_flagship, resumable_flagship
        from rios_ray.runtime import Manifest

        out_dir = os.path.join(self.work, "ckpt")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(self.work, exist_ok=True)
        self.datasets = []
        t0 = time.perf_counter()
        with tr.span("runtime.full_run"):
            first = resumable_flagship(self.sf_dir, out_dir)
        full_s = time.perf_counter() - t0
        lost = self.lost_partitions(pass_idx, first["ran"])
        manifest = Manifest(out_dir)
        for part in lost:
            manifest.invalidate(part)
            shutil.rmtree(os.path.join(out_dir, f"part={part}"), ignore_errors=True)
        t1 = time.perf_counter()
        with tr.span("runtime.resume"):
            again = resumable_flagship(self.sf_dir, out_dir)
        with tr.span("runtime.finalize"):
            t2 = time.perf_counter()
            final = materialize(self._track(finalize_flagship(out_dir)))
        t3 = time.perf_counter()
        return {"final": final, "lost": lost, "rerun": again["ran"], "out_dir": out_dir,
                "partitions": first["ran"], "full_s": full_s,
                "resume_s": t3 - t1, "finalize_s": t3 - t2}

    def check(self, out: dict) -> dict:
        O.check_table("finalize_flagship", out["final"], self.oracle["flagship"])
        counts = O.check_lineage(out["out_dir"], out["partitions"], out["lost"], out["rerun"])
        return {**counts, "lost": len(out["lost"]), "rerun": len(out["rerun"]),
                "resume_s": out["resume_s"], "finalize_s": out["finalize_s"],
                "full_s": out["full_s"], "n_partitions": len(out["partitions"])}


# --------------------------------------------------------------------------
# corpus: dedup + text pipelines over a seeded corpus
# --------------------------------------------------------------------------


class Corpus(Workload):
    name = "corpus"
    unit = "docs"
    n_docs = I.CORPUS_DOCS

    def prepare(self) -> None:
        self.sf_dir = I.ensure_documents(self.root, self.seed, self.n_docs)
        documents = os.path.join(self.sf_dir, "documents.parquet")
        self.oracle = O.cached(self.oracle_path(self.sf_dir),
                               lambda: O.corpus_oracles(documents))

    def items_per_pass(self) -> float:
        return float(self.n_docs)

    def pipelines(self) -> dict:
        from rios_ray.pipelines import dedup as D
        from rios_ray.pipelines.text import bigram_pmi

        sf = self.sf_dir
        return {
            "minhash_pairs": lambda: D.minhash_pairs(sf, threshold=0.5),
            "edit_distance_pairs": lambda: D.edit_distance_pairs(sf, threshold=0.5),
            "neardup_pagerank": lambda: D.neardup_pagerank(sf, threshold=0.5, iters=2),
            "neardup_triangles": lambda: D.neardup_triangles(sf, threshold=0.5),
            "minhash_clusters": lambda: D.minhash_clusters(sf, threshold=0.5),
            "bigram_pmi": lambda: bigram_pmi(sf),
        }

    def run_pass(self, pass_idx: int, tr) -> dict:
        self.datasets = []
        out = {}
        for name, build in self.pipelines().items():
            with tr.span(f"pipelines.{name}"):
                out[name] = materialize(self._track(build()))
        return out

    def check(self, out: dict) -> dict:
        for name, want in self.oracle.items():
            O.check_table(name, out[name], want)
        return {}


# --------------------------------------------------------------------------
# raster: applier with an overlap margin, close-time stats and pyramids
# --------------------------------------------------------------------------


def max_filter_fn(info, inputs, outputs, other_args=None):
    """5x5 max filter on a block padded by the 2-pixel overlap margin;
    the applier trims the margin off the output."""
    t0 = time.perf_counter()
    a = inputs.img
    k, m = O.MAX_FILTER, O.MARGIN
    ny, nx = a.shape[1] - 2 * m, a.shape[2] - 2 * m
    out = np.zeros_like(a)
    out[:, m:m + ny, m:m + nx] = np.maximum.reduce(
        [a[:, dy:dy + ny, dx:dx + nx] for dy in range(k) for dx in range(k)])
    outputs.filtered = out
    if other_args is not None:
        other_args.userfn_s += time.perf_counter() - t0


class Raster(Workload):
    name = "raster"
    unit = "megapixel-bands"
    size = I.RASTER_SIZE
    nbands = I.RASTER_BANDS

    def prepare(self) -> None:
        self.in_path = I.ensure_raster(self.root, self.seed, self.size, self.nbands)
        self.oracle = O.cached(
            self.oracle_path(os.path.dirname(self.in_path)),
            lambda: O.raster_oracles(O.read_tile_output(
                self.in_path, self.nbands, self.size, self.size, np.uint16)))

    def items_per_pass(self) -> float:
        return self.size * self.size * self.nbands / 1e6

    def controls(self, stats: bool = True, pyramids: bool = True):
        from rios_ray.applier import ApplierControls

        c = ApplierControls()
        c.setOverlap(O.MARGIN)
        c.setCalcStats(stats)
        c.setOmitPyramids(not pyramids)
        return c

    def apply(self, tag: str, stats: bool = True, pyramids: bool = True,
              other_args=None):
        from rios_ray.applier import apply

        os.makedirs(self.work, exist_ok=True)
        out_path = os.path.join(self.work, f"{tag}.parquet")
        rtn = apply(max_filter_fn, {"img": self.in_path}, {"filtered": out_path},
                    other_args=other_args, controls=self.controls(stats, pyramids),
                    out_dir=self.work)
        return out_path, rtn

    def run_pass(self, pass_idx: int, tr) -> dict:
        with tr.span("pipelines.apply"):
            out_path, rtn = self.apply(f"pass{pass_idx}")
        return {"path": out_path, "rtn": rtn}

    def check(self, out: dict) -> dict:
        from rios_ray.sources.tileraster import TileRasterInfo, read_stats_sidecar

        path = out["path"]
        info = TileRasterInfo.read(path)
        nrows, ncols = info.grid.dimensions()
        got = O.read_tile_output(path, info.nbands, nrows, ncols, info.np_dtype)
        O.check_raster(got, read_stats_sidecar(path), self.oracle)
        if not os.path.exists(path + ".ovr"):
            raise O.OracleMismatch("raster: no overview pyramid written")
        for p in (path, path + ".ovr"):  # both are Parquet directories
            shutil.rmtree(p, ignore_errors=True)
        return {"blocks": out["rtn"].n_blocks}


WORKLOADS = {w.name: w for w in (Tiling, Resume, Corpus, Raster)}
