"""Skew handling: salted shuffles + per-cell fan-out caps.

The geocoded web corpus is deliberately skewed (synth.gen_latlon: 50%
of pages land in 20 city-like clusters, cluster 0 hottest — the
BASELINE north rule's "hot cells").  Two mechanisms, composable:

- **Combiner-first aggregates** (functions/agg.py) make counts/sums
  skew-immune: a hot cell contributes at most one partial row per
  batch, so no reducer ever sees the hot cell's raw rows.
- **Per-cell fan-out caps** (this module) bound operators whose output
  is proportional to group size (tile materialization, candidate
  generation, per-cell sampling).  The cap is applied in THREE stages:
  per-batch (no shuffle, bounds what enters the exchange), then per
  (cell, salt) group, then per cell — so the largest group any reducer
  materializes is ``cap * n_salts`` rows for the salted stage and
  ``cap * n_salts`` for the final, regardless of how hot the cell is.
  Selection is deterministic (smallest ``order_col`` values win), so
  engine and SQL oracle agree row-for-row.

This is the RD mapping of SURVEY §4 "salt hot cells, per-cell fan-out
caps" (no reference counterpart: RIOS assumes equal-cost blocks,
``/root/reference/rios/computemanager.py:115``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DEFAULT_SALTS = 8


def head_per_key(table: pa.Table, key_col: str, cap: int, order_col: str) -> pa.Table:
    """Keep the ``cap`` rows with smallest ``order_col`` per key
    (vectorized: one sort + run-length positions, no Python per group)."""
    if table.num_rows == 0:
        return table
    tbl = table.sort_by([(key_col, "ascending"), (order_col, "ascending")])
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    new_run = np.concatenate([[True], keys[1:] != keys[:-1]])
    run_id = np.cumsum(new_run) - 1
    run_start = np.flatnonzero(new_run)
    pos_in_run = np.arange(len(keys)) - run_start[run_id]
    return tbl.filter(pa.array(pos_in_run < cap))


def ranked_head_per_key(
    table: pa.Table,
    key_col: str,
    n: int,
    sort_keys: list[tuple[str, str]],
    rank_col: str = "rank",
) -> pa.Table:
    """ROW_NUMBER()-style per-key top-N with a composite ordering.

    Keeps the first ``n`` rows of every key under ``sort_keys`` (a list
    of ``(col, "ascending" | "descending")``) and appends a 1-based
    ``rank_col``.  Vectorized like :func:`head_per_key`: one Arrow C++
    composite sort, then run-length rank positions — string keys are
    dictionary-encoded (post-sort, so equal neighbors share a code)
    rather than materialized as Python objects.

    Used inside a ``hash_partitioned_groups`` stage, this is the
    distributed window-function ``ROW_NUMBER() OVER (PARTITION BY key
    ORDER BY ...) <= n``.
    """
    if table.num_rows == 0:
        return table.append_column(rank_col, pa.array([], type=pa.int64()))
    from ..functions.agg import key_codes

    tbl = table.sort_by([(key_col, "ascending")] + list(sort_keys))
    keys = key_codes(tbl[key_col])
    new_run = np.concatenate([[True], keys[1:] != keys[:-1]])
    run_id = np.cumsum(new_run) - 1
    run_start = np.flatnonzero(new_run)
    pos_in_run = np.arange(len(keys)) - run_start[run_id]
    tbl = tbl.append_column(rank_col, pa.array(pos_in_run + 1, type=pa.int64()))
    return tbl.filter(pa.array(pos_in_run < n))


def capped_per_key(
    ds,
    key_col: str,
    cap: int,
    order_col: str,
    n_salts: int = DEFAULT_SALTS,
):
    """Distributed deterministic per-key fan-out cap.

    Three-stage cap: per batch, per (key, salt), per key.  The result
    is exactly the ``cap`` smallest-``order_col`` rows of every key.

    Stages 2 and 3 are two passes of the keyed exchange
    (``functions.agg.hash_partitioned_groups``), and the cap inside a
    partition is one sort + one run-length filter over the whole
    block.  Stage 2 is keyed on (key, salt), the salt a hash of
    ``order_col`` into ``n_salts`` values, so a hot key's rows split
    ``n_salts`` ways before any single task must hold them; stage 3 is
    keyed on the key alone, by which point each key carries at most
    ``cap * n_salts`` rows.
    """
    from ..functions.agg import _part_of, hash_partitioned_groups

    def batch_cap(b: pa.Table) -> pa.Table:
        b = head_per_key(b, key_col, cap, order_col)
        return b.append_column("_salt", pa.array(_part_of(b, [order_col], n_salts)))

    def salted_cap(g: pa.Table) -> pa.Table:
        return head_per_key(g, key_col, cap, order_col).drop_columns(["_salt"])

    capped = ds.map_batches(
        batch_cap, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    salted = hash_partitioned_groups(capped, [key_col, "_salt"], salted_cap)
    return hash_partitioned_groups(
        salted, [key_col], lambda g: head_per_key(g, key_col, cap, order_col))
