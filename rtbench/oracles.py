"""Same-files oracles: computed once per seed, compared on every pass.

The pages oracles are DuckDB SQL built from the engine's own SQL
fragments in ``__ray_entry__`` (``_pip_pairs_sql``, ``_pages_sql``,
``_cell_sql``), pointed at the benchmark's generated shards; the corpus
oracles are the dedup / text oracle SQL over a ``documents`` view on the
generated file; the raster oracle is numpy.  Each oracle result is
stored as an order-insensitive digest (``inputs.table_digest``) plus the
few scalars a check needs, in ``oracles-<workload>.json`` beside the
inputs.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from inputs import table_digest


class OracleMismatch(AssertionError):
    """A pass produced output that differs from its oracle."""


def cached(path: str, compute) -> dict:
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    value = compute()
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(value, f)
    os.replace(tmp, path)
    return value


def _duckdb_table(sql: str, documents: str | None = None) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    try:
        if documents is not None:
            con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{documents}')")
        return con.execute(sql).fetch_arrow_table()
    finally:
        con.close()


def digest_entry(table: pa.Table) -> dict:
    return {"digest": table_digest(table), "rows": table.num_rows,
            "schema": {f.name: str(f.type) for f in table.schema}}


def check_table(name: str, got: pa.Table, want: dict) -> None:
    """Raise OracleMismatch unless ``got`` has the oracle's columns,
    row count and order-insensitive digest."""
    if sorted(got.column_names) != sorted(want["schema"]):
        raise OracleMismatch(f"{name}: columns {got.column_names} != {list(want['schema'])}")
    if got.num_rows != want["rows"]:
        raise OracleMismatch(f"{name}: {got.num_rows} rows != oracle {want['rows']}")
    cast = pa.schema([pa.field(c, _arrow_type(want["schema"][c])) for c in got.column_names])
    if table_digest(got.cast(cast)) != want["digest"]:
        raise OracleMismatch(f"{name}: value digest differs from oracle")


def _arrow_type(name: str) -> pa.DataType:
    return {"int64": pa.int64(), "int32": pa.int32(), "double": pa.float64(),
            "string": pa.string(), "large_string": pa.large_string()}[name]


# --------------------------------------------------------------------------
# pages (tiling, resume)
# --------------------------------------------------------------------------


def flagship_sql(sf_dir: str) -> str:
    import __ray_entry__ as E
    from rios_ray import synth

    return f"""
        SELECT {E._cell_sql()} AS cell, p.category, count(*) AS n_pages
          FROM ({E._pip_pairs_sql(sf_dir)}) c
          JOIN read_parquet('{synth.polygons_path()}') p USING (poly_id)
         GROUP BY 1, 2
    """


def knn_sql(sf_dir: str, k: int = 10) -> str:
    import __ray_entry__ as E
    from rios_ray import synth

    return f"""
        WITH pts AS ({E._pages_sql(sf_dir)}),
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


def pages_oracles(sf_dir: str, with_knn: bool) -> dict:
    out = {"flagship": digest_entry(_duckdb_table(flagship_sql(sf_dir)))}
    if with_knn:
        out["knn_cellring"] = digest_entry(_duckdb_table(knn_sql(sf_dir)))
    return out


def check_lineage(out_dir: str, partitions: list[str], lost: set[str],
                  rerun: list[str]) -> dict:
    """Resume invariants: every partition has exactly one lineage record,
    each record's ``rows_out`` equals the Parquet footer rows of its
    partition, and exactly the lost partitions were re-run.  Returns
    counts for the trace."""
    from rios_ray.runtime import Manifest

    if sorted(rerun) != sorted(lost):
        raise OracleMismatch(f"resume re-ran {sorted(rerun)}, lost {sorted(lost)}")
    m = Manifest(out_dir)
    if m.done() != set(partitions):
        raise OracleMismatch(
            f"lineage records {sorted(m.done())} != partitions {sorted(partitions)}")
    written = 0
    for part in sorted(partitions):
        rec = m.read(part)
        pdir = os.path.join(out_dir, f"part={part}")
        files = [os.path.join(dp, f) for dp, _, fs in os.walk(pdir)
                 for f in fs if f.endswith(".parquet")]
        footer_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        written += sum(os.path.getsize(f) for f in files)
        if rec.rows_out != footer_rows:
            raise OracleMismatch(
                f"lineage {part}: rows_out {rec.rows_out} != footer rows {footer_rows}")
    return {"partitions": len(partitions), "written_bytes": written}


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------

CORPUS_ORACLES = {
    # benchmark name -> oracle_sql key
    "minhash_pairs": "dedup_minhash_pairs",
    "edit_distance_pairs": "dedup_edit_pairs",
    "neardup_pagerank": "neardup_pagerank",
    "neardup_triangles": "neardup_triangles",
    "minhash_clusters": "dedup_minhash_clusters",
    "bigram_pmi": "bigram_pmi",
}


@contextmanager
def _no_simhash_sidecar():
    # _dedup_oracle_sql() formats one entry around a sidecar it builds
    # for the fixed testdata dir; no corpus oracle here uses it
    import __ray_entry__ as E

    with mock.patch.object(E, "_simhash_sidecar_path", lambda: "unused.parquet"):
        yield


def corpus_sqls() -> dict[str, str]:
    import __ray_entry__ as E

    with _no_simhash_sidecar():
        sqls = {**E._dedup_oracle_sql(), **E._text_oracle_sql()}
    return {name: sqls[key] for name, key in CORPUS_ORACLES.items()}


def corpus_oracles(documents: str) -> dict:
    return {name: digest_entry(_duckdb_table(sql, documents))
            for name, sql in corpus_sqls().items()}


# --------------------------------------------------------------------------
# raster
# --------------------------------------------------------------------------

MAX_FILTER = 5
MARGIN = MAX_FILTER // 2


def sliding_max(arr: np.ndarray) -> np.ndarray:
    """Whole-image 5x5 max per band, zero outside the image (the
    applier's null fill for an input without a nodata value)."""
    nb, nr, nc = arr.shape
    m = MARGIN
    padded = np.zeros((nb, nr + 2 * m, nc + 2 * m), dtype=arr.dtype)
    padded[:, m:-m, m:-m] = arr
    return np.maximum.reduce([padded[:, dy:dy + nr, dx:dx + nc]
                              for dy in range(MAX_FILTER) for dx in range(MAX_FILTER)])


def raster_digest(arr: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()
                          + str(arr.shape).encode() + str(arr.dtype).encode()).hexdigest()


def raster_oracles(arr: np.ndarray) -> dict:
    want = sliding_max(arr)
    return {
        "digest": raster_digest(want),
        "stats": [{"min": float(b.min()), "max": float(b.max()), "mean": float(b.mean())}
                  for b in want],
    }


def read_tile_output(path: str, nbands: int, nrows: int, ncols: int, dtype) -> np.ndarray:
    """Assemble a written tile raster (any row order) into one array."""
    t = pq.read_table(path, columns=["top", "left", "nrows", "ncols", "band", "data"])
    out = np.zeros((nbands, nrows, ncols), dtype=dtype)
    data = t["data"].combine_chunks()
    flat = data.values.to_numpy(zero_copy_only=False)
    offs = data.offsets.to_numpy()
    cols = {c: t[c].to_numpy() for c in ("top", "left", "nrows", "ncols", "band")}
    for i in range(t.num_rows):
        top, left, nr, nc, b = (int(cols[c][i]) for c in ("top", "left", "nrows", "ncols", "band"))
        out[b, top:top + nr, left:left + nc] = flat[offs[i]:offs[i + 1]].reshape(nr, nc)
    return out


def check_raster(got: np.ndarray, stats: dict | None, want: dict) -> None:
    if raster_digest(got) != want["digest"]:
        raise OracleMismatch("raster: filtered output differs from the numpy sliding max")
    if stats is None:
        raise OracleMismatch("raster: no stats sidecar written")
    for b, w in enumerate(want["stats"]):
        s = stats[str(b)]
        if s["min"] != w["min"] or s["max"] != w["max"]:
            raise OracleMismatch(f"raster band {b}: min/max {s['min']}/{s['max']} != numpy")
        if abs(s["mean"] - w["mean"]) > 1e-9 * max(1.0, abs(w["mean"])):
            raise OracleMismatch(f"raster band {b}: mean {s['mean']} != numpy {w['mean']}")
