"""RAT (raster-attribute-table) applier: chunked column-table pipeline.

Reference semantics (/root/reference/rios/ratapplier.py:66-205): open
all RATs, require equal row counts (:892-910), loop 100,000-row chunks
(:363-377), call the user function with lazily-read input columns
(:564-587) and collect written output columns (:612-679), with row-count
policies RCM_EQUALS_INPUT / RCM_FIXED / RCM_INCREMENT (:640-668).

Ray-Data-native re-expression:

- A RAT is a parquet side table; a chunk is a row-group.  ``rat_apply``
  streams one input with ``map_batches(fn, batch_size=block_len)`` —
  reference's strictly-sequential loop (doc/source/concurrency.rst:68-69)
  becomes embarrassingly parallel because chunks are independent.
- **Column pruning by probe**: the reference discovers which columns
  the user function reads via lazy ``__getattr__``; we replay that
  trick once on a driver-side probe chunk and then build the Ray read
  with exactly those columns projected.
- Multi-input alignment uses parquet row-group layout as the chunk
  key: inputs written with the same ``row_group_size`` are processed
  row-group-by-row-group (the J1 block-alignment join, with file
  layout instead of a shuffle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .sources.documents import read_table

DEFAULT_BLOCK_LEN = 100_000  # reference ratapplier.py:370

RCM_EQUALS_INPUT = "equals_input"
RCM_FIXED = "fixed"
RCM_INCREMENT = "increment"


class RatChunkInputs:
    """Lazy column views of one chunk (reference ratapplier.py:564-587).

    Attribute access returns the column as numpy; reads are recorded so
    the probe pass can learn the projection set.
    """

    def __init__(self, table: pa.Table, accessed: set[str] | None = None):
        self._table = table
        self._accessed = accessed

    def __getattr__(self, col: str):
        if col.startswith("_"):
            raise AttributeError(col)
        if self._accessed is not None:
            self._accessed.add(col)
        if col not in self._table.column_names:
            raise AttributeError(f"no such RAT column: {col}")
        return self._table[col].to_numpy(zero_copy_only=False)


class RatChunkOutputs:
    """Collects columns the user function writes (numpy arrays)."""

    def __init__(self):
        object.__setattr__(self, "_cols", {})

    def __setattr__(self, col: str, values):
        self._cols[col] = np.asarray(values)

    def to_table(self) -> pa.Table:
        return pa.table({k: pa.array(v) for k, v in self._cols.items()})


def probe_columns(user_fn, path: str, probe_rows: int = 1024) -> list[str]:
    """Run ``user_fn`` once on a driver-side probe chunk, recording the
    input columns it touches — the lazy-read contract, replayed as a
    planning step so the cluster read projects only those columns."""
    f = pq.ParquetFile(path)
    probe = next(f.iter_batches(batch_size=probe_rows))
    accessed: set[str] = set()
    inputs = RatChunkInputs(pa.Table.from_batches([probe]), accessed)
    outputs = RatChunkOutputs()
    user_fn(inputs, outputs)
    return sorted(accessed)


def rat_apply(
    user_fn,
    in_path: str,
    out_path: str | None = None,
    block_len: int = DEFAULT_BLOCK_LEN,
    row_count_mode: str = RCM_EQUALS_INPUT,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Apply ``user_fn(inputs, outputs)`` chunk-wise over a RAT.

    Returns the output Dataset (written to ``out_path`` if given).
    ``columns=None`` probes the user function for its projection set.
    """
    if columns is None:
        columns = probe_columns(user_fn, in_path)

    def chunk(b: pa.Table) -> pa.Table:
        outputs = RatChunkOutputs()
        user_fn(RatChunkInputs(b), outputs)
        out = outputs.to_table()
        if row_count_mode == RCM_EQUALS_INPUT and out.num_rows != b.num_rows:
            raise ValueError(
                f"RCM_EQUALS_INPUT: chunk wrote {out.num_rows} rows, "
                f"input chunk has {b.num_rows}"
            )
        return out

    ds = read_table(in_path, columns or None)
    out = ds.map_batches(
        chunk, batch_format="pyarrow", zero_copy_batch=True, batch_size=block_len
    )
    if out_path is not None:
        out.write_parquet(out_path)
    return out


def rat_apply_multi(
    user_fn,
    in_paths: dict[str, str],
    block_len: int = DEFAULT_BLOCK_LEN,
    columns: dict[str, list[str]] | None = None,
) -> ray.data.Dataset:
    """Multi-input RAT apply, chunk-aligned by parquet row groups.

    All inputs must have equal row counts (reference check,
    ratapplier.py:892-910) and identical row-group boundaries (our
    layout contract — RATs written by this module satisfy it).  One Ray
    task per row-group index reads the matching group of every input,
    so alignment costs file-layout bookkeeping, not a shuffle.
    ``user_fn(inputs_by_name, outputs)`` gets a dict of lazy views.
    """
    metas = {n: pq.ParquetFile(p) for n, p in in_paths.items()}
    counts = {n: f.metadata.num_rows for n, f in metas.items()}
    if len(set(counts.values())) > 1:
        raise ValueError(f"RAT row counts differ: {counts}")
    groups = {n: f.metadata.num_row_groups for n, f in metas.items()}
    if len(set(groups.values())) > 1:
        raise ValueError(f"RAT row-group layouts differ: {groups}")
    n_groups = next(iter(groups.values()))

    def run_group(b: pa.Table) -> pa.Table:
        out_tables = []
        for gi in b["group"].to_pylist():
            tables = {
                n: pq.ParquetFile(p).read_row_group(
                    gi, columns=(columns or {}).get(n)
                )
                for n, p in in_paths.items()
            }
            inputs = {n: RatChunkInputs(t) for n, t in tables.items()}
            outputs = RatChunkOutputs()
            user_fn(inputs, outputs)
            out_tables.append(outputs.to_table())
        return pa.concat_tables(out_tables)

    idx = ray.data.from_items([{"group": i} for i in range(n_groups)])
    return idx.map_batches(run_group, batch_format="pyarrow", batch_size=1)


def write_rat(table: pa.Table, path: str, block_len: int = DEFAULT_BLOCK_LEN) -> str:
    """Write a RAT with the canonical row-group layout (chunk = group)."""
    pq.write_table(table, path, row_group_size=block_len)
    return path


# --------------------------------------------------------------------------
# RAT column statistics (reference fileinfo.py:381-503 ColumnStats)
# --------------------------------------------------------------------------


def rat_column_stats(
    in_path: str,
    column: str,
    weight_col: str | None = None,
    block_len: int = DEFAULT_BLOCK_LEN,
) -> dict:
    """Histogram-weighted mean/stddev/min/max/sum of a RAT column.

    Weighted by ``weight_col`` (the reference weights by the band
    histogram — row i's pixel count); unweighted if None.  Single
    streaming pass of per-chunk partials merged on the driver —
    identical math to the reference's chunked accumulation
    (fileinfo.py:451-483: wsum/wsqsum/wcount in float64).
    """
    cols = [column] + ([weight_col] if weight_col else [])

    def partial(b: pa.Table) -> pa.Table:
        x = b[column].to_numpy(zero_copy_only=False).astype(np.float64)
        w = (
            b[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
            if weight_col
            else np.ones_like(x)
        )
        nz = w > 0
        return pa.table(
            {
                "wsum": pa.array([float((w * x).sum())]),
                "wsqsum": pa.array([float((w * x * x).sum())]),
                "wcount": pa.array([float(w.sum())]),
                "minval": pa.array([float(x[nz].min()) if nz.any() else np.inf]),
                "maxval": pa.array([float(x[nz].max()) if nz.any() else -np.inf]),
            }
        )

    ds = read_table(in_path, cols).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=block_len
    )
    p = ds.to_pandas()  # tiny: one row per chunk
    wsum, wsq, wcount = p["wsum"].sum(), p["wsqsum"].sum(), p["wcount"].sum()
    mean = wsum / wcount if wcount else float("nan")
    var = max(wsq / wcount - mean * mean, 0.0) if wcount else float("nan")
    return {
        "mean": mean,
        "stddev": float(np.sqrt(var)),
        "min": float(p["minval"].min()),
        "max": float(p["maxval"].max()),
        "sum": float(wsum),
        "count": float(wcount),
    }
