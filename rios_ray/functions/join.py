"""Partitioned lookup joins without Ray's join operator.

Ray 2.49's ``Dataset.join`` spins up a pool of hash-aggregator actors
per call — measured multi-second fixed cost per join even on tiny
inputs, and two chained joins serialize their pools.  For the common
case of this engine (attach columns from a side keyed UNIQUELY by the
join key, or semi-join filter against such a side), the same exchange
is expressible as: union both sides, run them through the engine's one
keyed exchange (``agg.hash_partitioned_groups``) on the join key, and
gather within each partition with a vectorized argsort + searchsorted.
Shuffle volume is identical to a hash join; the per-call fixed cost is
one ``groupby``.

This is the J1 "multi-input alignment" pattern of the reference
(``/root/reference/rios/structures.py:587-616``) applied to relational
keys instead of tile keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import hash_partitioned_groups

JOIN_BATCH = 65536

# The one broadcast-or-partition threshold: a side smaller than this
# many in-memory bytes is collected on the driver and shipped to every
# worker with ``ray.put``; anything larger is joined by exchange.  A
# worker heap limits bytes, not rows, so the cap is in bytes.
BROADCAST_CAP_BYTES = 256 << 20


def fits_broadcast(side) -> bool:
    """Whether ``side`` is small enough to broadcast: a MATERIALIZED
    Dataset (its block metadata's ``size_bytes()``, no job runs) or an
    array already on the driver (its ``nbytes``).  A zero-block Dataset,
    whose size Ray can report as None, counts as 0 bytes."""
    nbytes = side.nbytes if isinstance(side, np.ndarray) else side.size_bytes()
    return (nbytes or 0) < BROADCAST_CAP_BYTES


def sorted_lookup(sorted_keys: np.ndarray, probe: np.ndarray):
    """(positions, found) for ``probe`` against a sorted key array: the
    broadcast side's membership test (clamped searchsorted + equality
    check, no per-row Python).  ``positions`` is only meaningful where
    ``found``."""
    if len(sorted_keys) == 0:
        return np.zeros(len(probe), np.int64), np.zeros(len(probe), bool)
    pos = np.minimum(np.searchsorted(sorted_keys, probe), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == probe


def partitioned_lookup_join(
    left,
    right,
    left_key: str,
    right_key: str,
    left_cols: list[tuple[str, pa.DataType]],
    attach_cols: list[tuple[str, pa.DataType, str]],
):
    """Inner lookup join: keep left rows whose ``left_key`` exists in
    ``right`` (keyed uniquely by ``right_key``), attaching each
    ``(right_col, type, out_name)`` in ``attach_cols``.

    ``left_cols`` declares the left columns (name, type) to carry
    through — schemas must be stated up front because the two sides are
    union-ed into one exchange.  With ``attach_cols=[]`` this is a
    distributed semi-join filter.
    """
    l_names = [n for n, _ in left_cols]

    def left_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            "_key": b[left_key],
            "_side": pa.array(np.ones(n, dtype=np.int8)),
        }
        for name, typ in left_cols:
            cols[name] = b[name].cast(typ) if b[name].type != typ else b[name]
        for rcol, typ, _ in attach_cols:
            cols["_r_" + rcol] = pa.nulls(n, typ)
        return pa.table(cols)

    def right_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {
            "_key": b[right_key],
            "_side": pa.array(np.zeros(n, dtype=np.int8)),
        }
        for name, typ in left_cols:
            cols[name] = pa.nulls(n, typ)
        for rcol, typ, _ in attach_cols:
            cols["_r_" + rcol] = b[rcol].cast(typ) if b[rcol].type != typ else b[rcol]
        return pa.table(cols)

    u = left.map_batches(
        left_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=JOIN_BATCH
    ).union(
        right.map_batches(
            right_rows,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=JOIN_BATCH,
        )
    )

    def empty() -> pa.Table:
        cols = {n: pa.array([], type=t) for n, t in left_cols}
        for _, typ, out in attach_cols:
            cols[out] = pa.array([], type=typ)
        return pa.table(cols)

    def gather(tbl: pa.Table) -> pa.Table:
        side = tbl["_side"].to_numpy()
        keys = tbl["_key"].to_numpy(zero_copy_only=False)
        ridx = np.flatnonzero(side == 0)
        lidx = np.flatnonzero(side == 1)
        if len(lidx) == 0 or len(ridx) == 0:
            return empty()
        rkeys = keys[ridx]
        rorder = np.argsort(rkeys)
        rsorted = rkeys[rorder]
        pos_c, hit = sorted_lookup(rsorted, keys[lidx])
        lkeep = lidx[hit]
        if len(lkeep) == 0:
            return empty()
        src = ridx[rorder][pos_c[hit]]
        lt = tbl.select(l_names).take(pa.array(lkeep))
        cols = {n: lt[n] for n in l_names}
        for rcol, _, out in attach_cols:
            cols[out] = pc.take(tbl.column("_r_" + rcol).combine_chunks(), pa.array(src))
        return pa.table(cols)

    return hash_partitioned_groups(u, ["_key"], gather)


def partitioned_exists_join(
    left,
    right,
    left_key: str,
    right_key: str,
    left_cols: list[tuple[str, pa.DataType]],
    anti: bool = False,
):
    """Distributed EXISTS (semi) / NOT EXISTS (anti) join: keep left
    rows whose ``left_key`` has (``anti=False``) or lacks (``anti=True``)
    at least one match in ``right[right_key]``.

    Unlike :func:`partitioned_lookup_join`, the right side need not be
    keyed uniquely — only membership matters, so right batches are
    deduplicated per batch before the exchange (a combiner: shuffle
    volume is bounded by distinct keys per batch, not right rows).
    """
    l_names = [n for n, _ in left_cols]

    def left_rows(b: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            "_key": b[left_key],
            "_side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
        }
        for name, typ in left_cols:
            cols[name] = b[name].cast(typ) if b[name].type != typ else b[name]
        return pa.table(cols)

    def right_rows(b: pa.Table) -> pa.Table:
        keys = pc.unique(b[right_key].combine_chunks())
        cols = {
            "_key": keys,
            "_side": pa.array(np.zeros(len(keys), dtype=np.int8)),
        }
        for name, typ in left_cols:
            cols[name] = pa.nulls(len(keys), typ)
        return pa.table(cols)

    u = left.map_batches(
        left_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=JOIN_BATCH
    ).union(
        right.map_batches(
            right_rows,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=JOIN_BATCH,
        )
    )

    def empty() -> pa.Table:
        return pa.table({n: pa.array([], type=t) for n, t in left_cols})

    def gather(tbl: pa.Table) -> pa.Table:
        side = tbl["_side"].to_numpy()
        keys = tbl["_key"].to_numpy(zero_copy_only=False)
        ridx = np.flatnonzero(side == 0)
        lidx = np.flatnonzero(side == 1)
        if len(lidx) == 0:
            return empty()
        _, hit = sorted_lookup(np.unique(keys[ridx]), keys[lidx])
        lkeep = lidx[~hit] if anti else lidx[hit]
        if len(lkeep) == 0:
            return empty()
        return tbl.select(l_names).take(pa.array(lkeep))

    return hash_partitioned_groups(u, ["_key"], gather)


def auto_lookup_join(
    left,
    right,
    left_key: str,
    right_key: str,
    left_cols: list[tuple[str, pa.DataType]],
    attach_cols: list[tuple[str, pa.DataType, str]],
):
    """Strategy-selecting lookup join: when the (uniquely-keyed) right
    side :func:`fits_broadcast` it is collected once, sorted, shipped
    via ``ray.put`` and joined MAP-SIDE with :func:`sorted_lookup`:
    zero shuffle, the left stream never moves.  Otherwise it is the
    partitioned union exchange with identical inner-join semantics.
    With ``attach_cols=[]`` either plan is a semi-join filter.

    The cap bounds driver + per-worker memory, not correctness; both
    paths are equality-tested.
    """
    import ray

    right_mat = right.materialize()
    if not fits_broadcast(right_mat):
        return partitioned_lookup_join(
            left, right_mat, left_key, right_key, left_cols, attach_cols
        )

    blocks = [t for t in ray.get(right_mat.to_arrow_refs()) if t.num_rows]
    if blocks:
        tbl = pa.concat_tables(blocks)
        keys = tbl[right_key].to_numpy(zero_copy_only=False)
        order = np.argsort(keys)
        sorted_keys = keys[order]
        attach_sorted = {
            rcol: tbl[rcol].combine_chunks().take(pa.array(order)).cast(typ)
            for rcol, typ, _ in attach_cols
        }
    else:
        # empty right side (a filtered dim matching nothing): every
        # left row misses
        sorted_keys = np.zeros(0, np.int64)
        attach_sorted = {rcol: pa.array([], typ) for rcol, typ, _ in attach_cols}
    ref = ray.put((sorted_keys, attach_sorted))

    def map_side(b: pa.Table) -> pa.Table:
        sk, attach = ray.get(ref)
        pos, hit = sorted_lookup(sk, b[left_key].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(hit))
        out = {n: (b[n].cast(t) if b[n].type != t else b[n]) for n, t in left_cols}
        take = pa.array(pos[hit])
        for rcol, _, out_name in attach_cols:
            out[out_name] = pc.take(attach[rcol], take)
        return pa.table(out)

    return left.map_batches(
        map_side, batch_format="pyarrow", zero_copy_batch=True, batch_size=JOIN_BATCH
    )
