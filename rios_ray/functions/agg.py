"""Pre-aggregated (combiner) group-bys, and the engine's one keyed
exchange.

Two design decisions, both measured (sf0.1, 32 cpus, 245k partial rows,
233k groups):

1. **Combine inside ``map_batches`` first** — one row per key per
   batch, the associative-partial pattern of the reference's
   single-pass stats (``/root/reference/rios/calcstats.py:656-675``) —
   so the exchange moves per-batch partials, not data.
2. **Never use ``Dataset.groupby().aggregate`` for the final combine**:
   Ray's Aggregate operator pays per-*group* Python overhead (measured
   27-85 s for 233k groups).  Instead the partials go through
   :func:`hash_partitioned_groups` and each partition is combined with
   pyarrow's C++ ``Table.group_by`` — 0.3 s on the same input,
   identical results.

:func:`hash_partitioned_groups` is the only keyed exchange in the
engine: every key-co-locating stage (aggregates, sessions, joins,
dedup buckets, skew caps) goes through it.  It owns the key hash
(:func:`_part_of`) and the partition count (one per CPU,
:func:`util.cluster_cpus`), so one key lands in one partition by one
policy everywhere, and no caller picks a partition count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import cluster_cpus

PARTIAL_BATCH = 65536
_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


def _part_of(batch: pa.Table, keys: list[str], num_partitions: int) -> np.ndarray:
    """Deterministic partition id from the key columns (Fibonacci mix of
    int keys; FNV for strings) — same key always lands in one part."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = batch[k]
            if pa.types.is_integer(col.type):
                v = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                from ..dedup.hashing import fnv1a64_arrow

                v = fnv1a64_arrow(col)
            h = (h ^ v) * _HASH_MIX
    return (h % np.uint64(num_partitions)).astype(np.int64)


def rename_aggregates(g: pa.Table, spec: list[tuple], names: list[str]) -> pa.Table:
    """Rename the aggregate columns of ``t.group_by(keys).aggregate(spec)``
    to ``names`` by pyarrow's output names (``<col>_<fn>``; ``count_all``
    for a column-less count), never by position: pyarrow 16 emits the
    keys first, older releases the aggregates first."""
    new: dict[str, list[str]] = {}
    for (col, fn, *_), name in zip(spec, names):
        new.setdefault(f"{col}_{fn}" if col else fn, []).append(name)
    return g.rename_columns([new[c].pop(0) if new.get(c) else c for c in g.column_names])


_FINAL_FN = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def partial_aggregate(ds, keys: list[str], aggs: list[tuple[str | None, str, str]]):
    """One ``(keys..., aliases...)`` partial row per key per input block
    (the combiner half of :func:`hash_grouped_aggregate`; ``aggs`` as
    there)."""
    names = [a for _, _, a in aggs]
    spec = [(([] if fn == "count" else c), "count_all" if fn == "count" else fn)
            for c, fn, _ in aggs]

    def partial(batch: pa.Table) -> pa.Table:
        return rename_aggregates(batch.group_by(keys).aggregate(spec), spec, names)

    # batch_size=None: one partial per input block.  A row-count batch
    # here would also drive Ray's task bundling (min_rows_per_bundle)
    # for the whole FUSED upstream chain — a 64k partial batch was
    # observed to coarsen a 200-block stage into 75 tasks, and on noisy
    # hosts coarse tasks mean stragglers.  Per-block partials keep task
    # granularity at the read-block level and pre-aggregate at least as
    # well (one combine over MORE rows).
    return ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def combine_partials(table: pa.Table, keys: list[str],
                     aggs: list[tuple[str | None, str, str]]) -> pa.Table:
    """Fold partial rows of :func:`partial_aggregate` (any grouping of
    them: the combine is associative) into one row per key."""
    spec = [(a, _FINAL_FN[fn]) for _, fn, a in aggs]
    return rename_aggregates(table.group_by(keys).aggregate(spec), spec,
                             [a for _, _, a in aggs])


def gathered_blocks(ds) -> list[pa.Table]:
    """Execute ``ds`` once and fetch its non-empty blocks to the driver
    as Arrow tables, dropping empty and column-less ones (keyed
    exchanges emit the latter for empty partitions)."""
    import ray
    from ray.data.block import BlockAccessor

    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    tables = (BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs))
    return [t for t in tables if t.num_rows and t.num_columns]


def gather_final(ds, fn):
    """Run a bounded single-block final on the driver: ``fn`` over the
    concatenation of ``ds``'s non-empty blocks, returned :func:`in_memory`.
    Only for finals whose input is bounded (grid cells, k x blocks x queries),
    like the driver fold of the reference's single-pass statistics
    (``rios/calcstats.py:656-692``).  A lazy ``repartition(1)`` final
    would instead run its whole upstream again under ``limit(1)``
    whenever a consumer asks for its schema.

    An input with no rows gives a zero-row Dataset without calling
    ``fn``; an exception from ``fn`` reaches the caller as raised.
    """
    tables = gathered_blocks(ds)
    return in_memory(fn(pa.concat_tables(tables, promote_options="default")) if tables
                     else pa.table({}))


def in_memory(table: pa.Table):
    """A driver-side result as an executed Dataset, so ``schema()``,
    ``to_arrow_refs()`` and ``count()`` start no job."""
    import ray.data

    out = ray.data.from_arrow(table)
    out._plan.execute()  # in-memory source: no job, marks the plan executed
    return out


def combine_sorted(table: pa.Table, keys: list[str],
                   aggs: list[tuple[str | None, str, str]]) -> pa.Table:
    """:func:`combine_partials` with its rows sorted by ``keys``: a
    driver-side final comes out in the same order on every run."""
    return combine_partials(table, keys, aggs).sort_by([(k, "ascending") for k in keys])


def combine_tree(partials, keys: list[str], aggs: list[tuple[str | None, str, str]]):
    """Gather every partial to the driver and combine once
    (:func:`gather_final`), rows sorted by ``keys``: no keyed exchange,
    so only for a bounded distinct-key count."""
    return gather_final(partials, lambda t: combine_sorted(t, keys, aggs))


def hash_grouped_aggregate(
    ds,
    keys: list[str],
    aggs: list[tuple[str | None, str, str]],
    final_mode: str = "partition",
):
    """General partial+final aggregate: ``aggs`` is a list of
    ``(value_col, fn, alias)`` with fn in {sum, count, min, max}
    (count ignores value_col).  Every combine is pyarrow C++.

    ``final_mode``:

    - ``"partition"`` (default): combine the partials per partition of
      the keyed exchange (:func:`hash_partitioned_groups`) — scales to
      unbounded key cardinality (dedup md5s, pair keys).
    - ``"tree"``: gather all partials to the driver and combine once,
      rows sorted by ``keys`` (:func:`combine_tree`) — no keyed exchange
      (the sort barrier costs a serial tail, measured ~2 s at sf0.5).
      Use ONLY when the distinct-key count is bounded (grid cells x
      categories), since the driver holds every partial.  Executes eagerly.
    """
    partials = partial_aggregate(ds, keys, aggs)
    if final_mode == "tree":
        return combine_tree(partials, keys, aggs)
    # coalesce partial blocks to the partition count before the keyed
    # exchange: the sort shuffle spawns one map + one reduce task per
    # block, so 210 tiny partial blocks cost 420 near-empty tasks of
    # pure dispatch overhead (measured 6 s wall for 0.2 s of work);
    # P coalesced blocks -> 2P tasks
    return hash_partitioned_groups(
        partials.repartition(cluster_cpus()), keys,
        lambda t: combine_partials(t, keys, aggs))


def hash_partitioned_groups(ds, keys: list[str], partition_fn):
    """The engine's keyed exchange: co-locate every key group in one of
    :func:`util.cluster_cpus` hash partitions, then run
    ``partition_fn`` ONCE per partition over the whole partition table
    (all groups of that partition at once).

    One ``partition_fn`` task per CPU: at 4 CPUs, sf0.1, best of 4, 4
    partitions beat 8 and 16 (``neardup_triangles`` 1.52 / 1.74 / 1.96 s,
    ``rel_q5`` 0.74 / 0.80 / 0.91 s, the sessions within noise).

    A key's partition is :func:`_part_of` of its key columns, the same
    for every caller.  Results do not depend on the partition count
    (every ``partition_fn`` emits per-group output); the count only
    bounds how many key groups share one ``partition_fn`` call.

    Replacement for ``groupby(keys).map_groups(fn)`` when group count is
    large: Ray's map_groups pays per-group Python overhead (measured
    ~0.1-0.2 ms/group — minutes at web-scale cardinality), while here
    the keyed exchange has at most P groups and the caller's fn is
    vectorized over all buckets (lexsort + boundary scan / reduceat).
    ``partition_fn`` receives a ``pa.Table`` without the ``_part``
    column and must handle multiple key groups itself.
    """
    num_partitions = cluster_cpus()

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_part", pa.array(_part_of(batch, keys, num_partitions))
        )

    def run(tbl: pa.Table) -> pa.Table:
        return partition_fn(tbl.drop_columns(["_part"]))

    return (
        ds.map_batches(
            tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        .groupby("_part")
        .map_groups(run, batch_format="pyarrow")
    )


def grouped_count(ds, keys: list[str], alias: str = "n", final_mode: str = "partition"):
    """count(*) per key group, pre-aggregated per batch."""
    return hash_grouped_aggregate(ds, keys, [(None, "count", alias)], final_mode)


def distributed_topk(ds, k: int, sort_cols: list[str], ascending: list[bool]):
    """Global top-k under a lexicographic order, without a global sort.

    Per-batch local top-k using the SAME total order as the final merge
    (a value-only cut could discard the tie-winner at the k-th
    boundary), then one driver-side merge (:func:`gather_final`) over at
    most ``k * n_blocks`` surviving rows — the order-statistics analogue
    of pre-aggregate-before-shuffle.  Total order must be deterministic
    (include a unique tie-break column).
    """
    order = [(c, "ascending" if asc else "descending")
             for c, asc in zip(sort_cols, ascending)]

    def top(b: pa.Table) -> pa.Table:
        return b.sort_by(order).slice(0, k)

    local = ds.map_batches(top, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=65536)
    return gather_final(local, top)


def key_codes(col) -> np.ndarray:
    """Integer codes for a key column, equal exactly where the keys are
    equal: a string key's dictionary indices, any other key's values.
    Run boundaries of a key-sorted column are where the codes change."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    return col.to_numpy(zero_copy_only=False)


def _quantile_pick(tbl: pa.Table, key: str, value_col: str,
                   qs: np.ndarray) -> pa.Table:
    """(key, q, value): for every key of ``tbl`` and every q in the
    sorted ``qs``, the ``ceil(q*n) - 1``-th smallest ``value_col`` of
    its n rows — one composite Arrow sort and a vectorized
    (groups x qs) fancy-index pick, no per-group Python."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({key: tbl[key], "q": pa.array([], type=pa.float64()),
                         "value": pa.array([], type=pa.float64())})
    tbl = tbl.sort_by([(key, "ascending"), (value_col, "ascending")])
    kcol = tbl[key].combine_chunks()
    codes = key_codes(kcol)
    starts = np.flatnonzero(np.concatenate([[True], codes[1:] != codes[:-1]]))
    n_g = np.diff(np.append(starts, len(codes)))
    pick = np.ceil(qs[None, :] * n_g[:, None]).astype(np.int64) - 1
    pick = np.clip(pick, 0, (n_g - 1)[:, None])
    rows = (starts[:, None] + pick).ravel()
    vals = tbl[value_col].to_numpy(zero_copy_only=False)
    return pa.table({
        key: pc.take(kcol, pa.array(np.repeat(starts, len(qs)))),
        "q": pa.array(np.tile(qs, len(starts))),
        "value": pa.array(vals[rows], type=pa.float64()),
    })


def grouped_quantiles(ds, key: str, value_col: str, qs: list[float]):
    """Exact per-group discrete quantiles: for every key, the
    ``ceil(q*n) - 1``-th order statistic of ``value_col`` (ANSI
    ``quantile_disc`` semantics) for each q.

    Order statistics are value PICKS, not sums, so the result is
    bitwise engine-independent (no float-reduction-order hazard) —
    exact quantiles stay oracle-checkable where means/sums of floats
    would not.  One keyed exchange co-locates each group; each
    partition does a single composite Arrow sort and a vectorized
    (groups x qs) fancy-index pick — no per-group Python.

    Output: (key, q, value), one row per key per q.
    """
    qs_arr = np.asarray(sorted(qs), dtype=np.float64)
    return hash_partitioned_groups(
        ds, [key], lambda t: _quantile_pick(t, key, value_col, qs_arr))


def grouped_quantiles_sketch(ds, key: str, value_col: str, qs: list[float],
                             capacity: int = 4096, id_col: str | None = None):
    """Approximate per-group quantiles via a MERGEABLE bottom-k sample.

    Each row gets a u64 hash priority from ``id_col`` (unique per row);
    a group's sketch is its ``capacity`` lowest-priority rows.  Bottom-k
    is closed under merge (min-k of a union = min-k over the parts'
    min-ks), so per-batch partials cap the exchange at
    ``capacity x groups x batches`` rows REGARDLESS of group size — the
    quantile analogue of the HLL distinct sketch, for when
    ``grouped_quantiles``'s full-value exchange is the bottleneck.

    The sample is uniform-without-replacement, so the q-quantile
    estimate is the sample's own ``ceil(q*c)-1`` order statistic
    (rank error O(n/sqrt(c)) whp).  When ``capacity >= n`` for every
    group the sample IS the group and the result equals
    :func:`grouped_quantiles` exactly — the provably-exact
    configuration the driver oracle gates (the IVF nprobe=nlist move).

    Output (key, q, value), one row per group per q.
    """
    qs_arr = np.asarray(sorted(qs), dtype=np.float64)

    def _priorities(col) -> np.ndarray:
        with np.errstate(over="ignore"):
            x = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return x ^ (x >> np.uint64(31))

    def _bottom_k(tbl: pa.Table) -> pa.Table:
        """Keep each group's ``capacity`` lowest-priority rows."""
        codes = key_codes(tbl[key])
        prio = tbl["_prio"].to_numpy(zero_copy_only=False)
        order = np.lexsort((prio, codes))
        codes_s = codes[order]
        new = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(codes_s)))
        rank = np.arange(len(codes_s)) - np.repeat(starts, sizes)
        keep = order[rank < capacity]
        return tbl.take(pa.array(np.sort(keep)))

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            key: b[key],
            "_prio": pa.array(_priorities(b[id_col])),
            "value": b[value_col],
        })
        return _bottom_k(t)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def finish(tbl: pa.Table) -> pa.Table:
        # merge: min-k over the union of partials, then the exact pick
        return _quantile_pick(_bottom_k(tbl), key, "value", qs_arr)

    return hash_partitioned_groups(partials, [key], finish)


# --- exact (order-independent) float summation -----------------------------
#
# Distributed float sums are normally not reproducible: IEEE addition is
# not associative, so partial-sum order changes the last bits and no SQL
# oracle can mirror them.  This aggregate makes the sum EXACT and
# therefore order-free: each double v = m * 2^e (np.frexp) is an exact
# integer mantissa at a power-of-two scale, so per (group, exponent)
# bucket the mantissas accumulate in arbitrary-precision integers with
# NO rounding at all.  The bucket dict is a tiny, exactly-mergeable
# combiner state (<= ~2100 exponents, ~60 in practice), and the final
# correctly-rounded double equals math.fsum / DuckDB's fsum regardless
# of partitioning — verified bit-for-bit in tests.


def _mantissa_buckets(vals: np.ndarray, seg_starts: np.ndarray,
                      seg_ends: np.ndarray):
    """Per segment: {exponent: exact integer mantissa sum} for the
    float64 slice vals[s:e].  Vectorized: one frexp, one lexsort-free
    per-segment argsort by exponent, chunked int64 reduceat (512 x 2^53
    < 2^63, no overflow) and a bounded Python merge over CHUNKS (not
    rows)."""
    out = []
    m, e = np.frexp(vals)
    m2 = np.round(m * 9007199254740992.0).astype(np.int64)  # m * 2^53, exact
    e2 = e.astype(np.int64) - 53
    for s, t in zip(seg_starts, seg_ends):
        if t <= s:
            out.append({})
            continue
        seg_m, seg_e = m2[s:t], e2[s:t]
        order = np.argsort(seg_e, kind="stable")
        se, sm = seg_e[order], seg_m[order]
        bounds = np.flatnonzero(np.diff(se)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(se)]])
        d: dict[int, int] = {}
        for a, b in zip(starts, ends):
            # chunked exact reduction: int64 partials over <=512 values
            # (512 * 2^53 < 2^63); slice FIRST — reduceat's last slice
            # otherwise runs to the end of the whole array
            chunk = sm[a:b]
            partial = np.add.reduceat(chunk, np.arange(0, len(chunk), 512))
            d[int(se[a])] = d.get(int(se[a]), 0) + sum(int(x) for x in partial)
        out.append(d)
    return out


def _buckets_to_float(d: dict[int, int]) -> float:
    """Correctly-rounded double of the EXACT value sum(m * 2^e) — equal
    to math.fsum of the original values (Fraction -> float rounds
    once)."""
    from fractions import Fraction

    total = Fraction(0)
    for e, mm in d.items():
        total += Fraction(mm) * Fraction(2) ** e
    return float(total)


def grouped_exact_float_sum(
    ds, keys: list[str], value_col: str,
    out_sum: str = "sum_value", out_n: str = "n",
):
    """(keys..., out_sum, out_n): per-group float64 sum that is
    BIT-IDENTICAL to ``math.fsum`` over the group's values, independent
    of batch/partition order — the reproducible float aggregate a
    DuckDB ``fsum`` oracle can gate on well-conditioned data (module
    comment has the Kahan caveat; plain SUM is gateable never).

    Finite values only (an Inf/NaN would need a sticky flag, not a
    mantissa bucket).  Per-batch partials emit one (keys, exponent,
    mantissa-sum bigint as decimal string) row per occupied exponent
    bucket (~60/group); the
    keyed exchange merges buckets exactly; the final rounds ONCE.
    Means follow as ``out_sum / out_n`` — a single IEEE division both
    engines share.
    """
    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        empty_schema = pa.schema(
            [(k, b.schema.field(k).type) for k in keys]
            + [("_exp", pa.int64()), ("_mant", pa.string()), ("_n", pa.int64())]
        )
        if b.num_rows == 0:
            return empty_schema.empty_table()
        df_keys = [b[k].to_numpy(zero_copy_only=False) for k in keys]
        vals = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        codes, uniq = pd.factorize(
            pd.MultiIndex.from_arrays(df_keys) if len(keys) > 1
            else pd.Index(df_keys[0]),
            sort=False,
        )
        if (codes < 0).any():
            # factorize encodes null keys as -1; uniq[-1] would silently
            # fold their mantissa buckets into the batch's LAST group
            # (and the merge's pandas groupby would then drop the null
            # group anyway).  Exact sums over null keys are undefined
            # here — fail loudly instead of corrupting a real group.
            raise ValueError(
                f"grouped_exact_float_sum: null values in key column(s) "
                f"{keys}; drop or fill nulls before aggregating"
            )
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        bounds = np.flatnonzero(np.diff(cs)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(cs)]])
        dicts = _mantissa_buckets(vals[order], starts, ends)
        rows = []
        for gi, (s, d) in enumerate(zip(starts, dicts)):
            kv = uniq[cs[s]]
            kv = kv if len(keys) > 1 else (kv,)
            # _n rides on the FIRST exponent row of each (batch, group)
            # only, so the merge can plain-sum it
            for j, (e, mm) in enumerate(d.items()):
                rows.append(
                    {**{k: v for k, v in zip(keys, kv)},
                     "_exp": e, "_mant": str(mm),
                     "_n": int(ends[gi] - s) if j == 0 else 0}
                )
        schema = pa.schema(
            [(k, b.schema.field(k).type) for k in keys]
            + [("_exp", pa.int64()), ("_mant", pa.string()), ("_n", pa.int64())]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=65536,
    )

    def merge(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        out_rows = []
        for kv, g in df.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            d: dict[int, int] = {}
            for e, mm in zip(g["_exp"], g["_mant"]):
                d[int(e)] = d.get(int(e), 0) + int(mm)
            out_rows.append(
                {**{k: v for k, v in zip(keys, kv)},
                 out_sum: _buckets_to_float(d), out_n: int(g["_n"].sum())}
            )
        out_schema = pa.schema(
            [(k, tbl.schema.field(k).type) for k in keys]
            + [(out_sum, pa.float64()), (out_n, pa.int64())]
        )
        return pa.Table.from_pylist(out_rows, schema=out_schema)

    return hash_partitioned_groups(parts, keys, merge)


def _exact_int_sum(term) -> int:
    """Exact sum of one term: an int, an int array, or a pair ``(x, y)``
    meaning the sum of ``x * y``.  numpy's int64 arithmetic is exact
    while the bound allows it; past that, Python ints do the work."""
    if isinstance(term, int):
        return term
    if isinstance(term, tuple):
        x, y = (np.asarray(a, dtype=np.int64) for a in term)
        if _max_abs(x) * _max_abs(y) >= 2 ** 63:
            return sum(a * b for a, b in zip(x.tolist(), y.tolist()))
        term = x * y
    v = np.asarray(term, dtype=np.int64)
    if _max_abs(v) * len(v) >= 2 ** 63:
        return sum(v.tolist())
    return int(v.sum())


def _max_abs(v: np.ndarray) -> int:
    return max(abs(int(v.max())), abs(int(v.min()))) if len(v) else 0


def global_int_sums(ds, terms) -> dict[str, int]:
    """Driver-side exact global sums of integer terms, all in one pass.

    ``terms(b)`` maps a block to ``{name: term}``, where a term is an
    int array, a pair ``(x, y)`` meaning the sum of ``x * y``, or an
    int (a per-block count).  Each block emits one row: its exact
    partial per term, or null where the partial leaves int64.  The
    driver folds the rows in Python ints (bounded by block count) and
    raises OverflowError naming the term whose block or global sum
    int64 cannot hold, where numpy would wrap silently.  Empty blocks
    never reach ``terms`` (Ray skips them, column-less or not), and a
    name no block reported — a zero-block input — sums to 0.
    """
    from collections import Counter

    def partial(b: pa.Table) -> pa.Table:
        row = {}
        for name, term in terms(b).items():
            total = _exact_int_sum(term)
            fits = -(2 ** 63) <= total < 2 ** 63
            row[name] = pa.array([total if fits else None], pa.int64())
        return pa.table(row)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    totals: Counter = Counter()
    for t in gathered_blocks(parts):
        for name in t.column_names:
            for v in t[name].to_pylist():
                if v is None:
                    raise OverflowError(
                        f"global_int_sums({name!r}): a block sum exceeds int64")
                totals[name] += v
    for name, v in totals.items():
        if not -(2 ** 63) <= v < 2 ** 63:
            raise OverflowError(f"global_int_sums({name!r}): the sum exceeds int64")
    return totals
