"""Relational pipelines over the TPC-H-style side tables.

These exercise the engine's generic query surface — column-pruned
reads, broadcast dimension joins, hash equi-joins, vectorized grouped
aggregates, top-k — on the driver-provided tables (TESTDATA.md).

Money math: price columns are float64 with cent precision; float sums
are not associativity-stable across engines, so every monetary
aggregate is computed in *integer cents* via ``floor(x*100 + 0.5)`` —
the same IEEE expression on both the numpy and SQL sides, making sums
bit-exact regardless of reduction order.  (numpy ``round`` is
banker's-rounding and DuckDB ``round`` is half-away — neither is used.)

Join strategy mirrors the 100 TB plan: small dimensions (region,
nation, customer-at-test-scale) broadcast via ``ray.put`` and map-side
hash lookup; the big fact-to-fact join (orders x lineitem) is the
partitioned union exchange of ``functions/join.py`` — hash-join shuffle
volume without Ray's join-operator actor-pool fixed cost — with
partitions sized to the session.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.agg import (
    gathered_blocks, global_int_sums, hash_grouped_aggregate, hash_partitioned_groups,
    in_memory, rename_aggregates,
)
from ..functions.join import sorted_lookup
from ..sources.documents import read_table

BATCH = 65536


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return read_table(os.path.join(sf_dir, f"{table}.parquet"), columns)


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _revenue_row(sums: dict) -> ray.data.Dataset:
    """The one-row ``(revenue_cents, n_lines)`` int64 result of q6,
    q17 and q19."""
    return in_memory(pa.table({
        c: pa.array([sums[c]], pa.int64()) for c in ("revenue_cents", "n_lines")
    }))


def q1_pricing_summary(sf_dir: str, ship_before: str = "2000-09-01") -> ray.data.Dataset:
    """Q1-style: per (returnflag, linestatus) totals for lines shipped
    before the cutoff.  All sums in integer units (qty is whole;
    revenue in cents)."""
    cutoff = np.datetime64(ship_before, "us").astype(np.int64)

    def prep(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ship < cutoff
        b = b.filter(pa.array(keep))
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": pa.array(qty.astype(np.int64)),
                "base_cents": pa.array(_cents(price)),
                "disc_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH)
    return hash_grouped_aggregate(
        ds,
        ["l_returnflag", "l_linestatus"],
        [
            ("qty", "sum", "sum_qty"),
            ("base_cents", "sum", "sum_base_cents"),
            ("disc_cents", "sum", "sum_disc_cents"),
            (None, "count", "count_order"),
        ],
    )


def q3_top_orders(
    sf_dir: str, segment: str = "BUILDING", k: int = 10
) -> ray.data.Dataset:
    """Q3-style: top-k orders by discounted revenue for one market
    segment.  customer filter broadcast; orders x lineitem is the hash
    shuffle join; final top-k on the (small) aggregate."""
    import pyarrow.compute as pc

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(pc.equal(cust["c_mktsegment"], segment))["c_custkey"].to_numpy()
    keys_ref = ray.put(np.sort(keys))

    def filter_orders(b: pa.Table) -> pa.Table:
        wanted = ray.get(keys_ref)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(wanted, ck)
        pos[pos >= len(wanted)] = 0
        keep = wanted[pos] == ck if len(wanted) else np.zeros(len(ck), dtype=bool)
        return b.filter(pa.array(keep)).select(["o_orderkey", "o_orderdate"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        filter_orders, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    def prep_li(b: pa.Table) -> pa.Table:
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        prep_li, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    # semi-join filter: keep lineitems whose order survives the segment
    # filter (partitioned union exchange, see functions/join.py)
    from ..functions.join import partitioned_lookup_join

    joined = partitioned_lookup_join(
        li,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("l_orderkey", pa.int64()), ("rev_cents", pa.int64())],
        [],
    )
    per_order = hash_grouped_aggregate(
        joined,
        ["l_orderkey"],
        [("rev_cents", "sum", "revenue_cents")],
    )
    # distributed top-k: per-batch local cut + one tiny merge (no
    # driver-side materialization of the per-order aggregate, which is
    # one row per order at scale)
    from ..functions.agg import distributed_topk

    return distributed_topk(
        per_order, k, ["revenue_cents", "l_orderkey"], [False, True]
    )


def q14_type_revenue(sf_dir: str) -> ray.data.Dataset:
    """Q14-style: discounted revenue + line count per part type.

    The ``part`` dimension broadcasts once (``ray.put`` of a sorted key
    array + dictionary-coded types); the lineitem scan is pruned to 3
    columns and aggregates map-side — no shuffle beyond the tiny final
    combine.  At 100 TB the part table is still the broadcast side
    (it grows with catalog size, not with page count)."""
    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pkeys = part["p_partkey"].to_numpy()
    order = np.argsort(pkeys)
    tdict = part["p_type"].combine_chunks().dictionary_encode()
    type_names = tdict.dictionary.to_pylist()
    type_codes = tdict.indices.to_numpy().astype(np.int32)
    bcast = ray.put((pkeys[order], type_codes[order], type_names))

    def tag(b: pa.Table) -> pa.Table:
        skeys, codes, names = ray.get(bcast)
        lk = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, lk)
        pos_c = np.minimum(pos, len(skeys) - 1)
        hit = skeys[pos_c] == lk
        b = b.filter(pa.array(hit))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_type": pa.DictionaryArray.from_arrays(
                    pa.array(codes[pos_c[hit]]), pa.array(names, type=pa.string())
                ).cast(pa.string()),
                "rev_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    ds = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    ).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH)
    return hash_grouped_aggregate(
        ds,
        ["p_type"],
        [("rev_cents", "sum", "revenue_cents"), (None, "count", "n_lines")],
        final_mode="tree",  # bounded key count (part types)
    )


def q6_forecast_revenue(
    sf_dir: str,
    ship_from: str = "1996-01-01",
    ship_to: str = "1997-01-01",
    disc_lo: float = 0.05,
    disc_hi: float = 0.07,
    max_qty: float = 24.0,
) -> ray.data.Dataset:
    """Q6-style forecast-revenue delta: SUM(price * discount) over lines
    in a one-year ship window with discount in [lo, hi] and quantity
    below the cap.  The canonical scan-heavy filtered global aggregate:
    a 4-column pruned read, per-block boolean mask + cents, summed by
    :func:`global_int_sums` — no keyed exchange and no merge stage (the
    reduction is a scalar: one-row block partials folded driver-side,
    OverflowError instead of wrapping).  Cents math as in module
    docstring; the discount bounds compare float64-to-float64 with the
    identical literals on the SQL side."""
    lo_us = np.datetime64(ship_from, "us").astype(np.int64)
    hi_us = np.datetime64(ship_to, "us").astype(np.int64)

    def terms(b: pa.Table) -> dict:
        ship = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = (
            (ship >= lo_us) & (ship < hi_us)
            & (disc >= disc_lo) & (disc <= disc_hi) & (qty < max_qty)
        )
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        return {"revenue_cents": _cents(price * disc[keep]), "n_lines": keep}

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    return _revenue_row(global_int_sums(ds, terms))


def q5_nation_revenue(sf_dir: str) -> ray.data.Dataset:
    """Q5-style: discounted revenue per (region, nation) where customer
    and supplier share the nation.  All dimensions broadcast (nation /
    region / supplier / customer are the small side at any scale that
    fits a worker heap; the lineitem scan streams); orders x lineitem
    is the shuffle join."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    # Broadcast sorted key arrays + dense nation/region name tables —
    # every per-batch lookup below is searchsorted / fancy-index, no
    # per-row Python (same pattern as q14's part tagging).
    nkey = nation["n_nationkey"].to_numpy()
    n_max = int(nkey.max()) + 1
    nat_names = [""] * n_max
    for k, nm in zip(nkey, nation["n_name"].to_pylist()):
        nat_names[int(k)] = nm
    nat2reg = np.zeros(n_max, dtype=np.int32)
    nat2reg[nkey] = nation["n_regionkey"].to_numpy().astype(np.int32)
    rkey = region["r_regionkey"].to_numpy()
    reg_names = [""] * (int(rkey.max()) + 1)
    for k, nm in zip(rkey, region["r_name"].to_pylist()):
        reg_names[int(k)] = nm

    skeys = supp["s_suppkey"].to_numpy()
    s_ord = np.argsort(skeys)
    ckeys = cust["c_custkey"].to_numpy()
    c_ord = np.argsort(ckeys)
    dims_ref = ray.put(
        (
            skeys[s_ord],
            supp["s_nationkey"].to_numpy()[s_ord].astype(np.int32),
            ckeys[c_ord],
            cust["c_nationkey"].to_numpy()[c_ord].astype(np.int32),
            nat2reg,
            nat_names,
            reg_names,
        )
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_li(b: pa.Table) -> pa.Table:
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "rev_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH)
    from ..functions.join import partitioned_lookup_join

    joined = partitioned_lookup_join(
        li,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("l_suppkey", pa.int64()), ("rev_cents", pa.int64())],
        [("o_custkey", pa.int64(), "o_custkey")],
    )

    def tag(b: pa.Table) -> pa.Table:
        sk_s, sn_s, ck_s, cn_s, nat2reg_, nat_names_, reg_names_ = ray.get(dims_ref)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        sp = np.minimum(np.searchsorted(sk_s, sk), len(sk_s) - 1)
        sn = np.where(sk_s[sp] == sk, sn_s[sp], -1).astype(np.int32)
        cp = np.minimum(np.searchsorted(ck_s, ck), len(ck_s) - 1)
        cn = np.where(ck_s[cp] == ck, cn_s[cp], -2).astype(np.int32)
        keep = sn == cn
        b = b.filter(pa.array(keep))
        sn = sn[keep]
        return pa.table(
            {
                "r_name": pa.DictionaryArray.from_arrays(
                    pa.array(nat2reg_[sn]), pa.array(reg_names_, type=pa.string())
                ).cast(pa.string()),
                "n_name": pa.DictionaryArray.from_arrays(
                    pa.array(sn), pa.array(nat_names_, type=pa.string())
                ).cast(pa.string()),
                "rev_cents": b["rev_cents"],
            }
        )

    tagged = joined.map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    return hash_grouped_aggregate(
        tagged, ["r_name", "n_name"], [("rev_cents", "sum", "revenue_cents")]
    )


def q18_big_orders(sf_dir: str, min_qty: int = 200) -> ray.data.Dataset:
    """Q18-style: orders whose total lineitem quantity exceeds
    ``min_qty``, with customer key and order date.

    The HAVING + back-join shape: per-order quantity totals via the
    combiner-first aggregate, the HAVING filter applied partition-side
    (only survivors leave the exchange), and the filtered key->total
    map joined back onto orders by :func:`auto_lookup_join`.  The
    HAVING result is usually the small side (the threshold exists to
    make it selective), so the back-join broadcasts; a low threshold
    that leaves too many survivors takes the partitioned plan instead.
    """
    import pyarrow.compute as pc

    from ..functions.join import auto_lookup_join

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "qty": pc.cast(b["l_quantity"], pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    per_order = hash_grouped_aggregate(li, ["l_orderkey"], [("qty", "sum", "total_qty")])

    def having(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["total_qty"], min_qty))

    big_ds = per_order.map_batches(
        having, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    return auto_lookup_join(
        orders,
        big_ds,
        "o_orderkey",
        "l_orderkey",
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
        ],
        [("total_qty", pa.int64(), "total_qty")],
    )


def q4_order_priority(
    sf_dir: str, returnflag: str = "R", use_bloom: bool = False
) -> ray.data.Dataset:
    """Q4-style order-priority check: count orders per priority where
    EXISTS a lineitem with the given return flag.

    The distributed EXISTS (semi-join) shape (reference Q4's correlated
    subquery): both sides are fact tables, so neither broadcasts — the
    filtered lineitem keys are batch-deduplicated (combiner) and meet
    the orders in one partitioned union exchange
    (``functions/join.py:partitioned_exists_join``); the surviving
    orders feed the usual combiner-first grouped count.  Group
    cardinality is the priority enum, so the final merge is tiny.

    ``use_bloom=True`` adds the bloom pre-filter (``functions/bloom``):
    one extra streaming pass builds a bitmap over the flagged lineitem
    keys, broadcast once, and orders rows that cannot match are dropped
    *before* the exchange.  Bloom false positives are resolved by the
    exact join that follows, so the result is identical — the knob
    trades a cheap re-scan for exchange volume, which wins whenever the
    semi-join is selective at scale.
    """
    import pyarrow.compute as pc

    def flagged(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], returnflag))
        return b.select(["l_orderkey"])

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]).map_batches(
        flagged, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    if use_bloom:
        from ..functions.bloom import bloom_from_dataset

        # the filter carries its own k — probing with a different k
        # than inserted would drop matching orders (false negatives)
        bf_ref = ray.put(bloom_from_dataset(li, "l_orderkey"))

        def prefilter(b: pa.Table) -> pa.Table:
            bf = ray.get(bf_ref)
            keys = b["o_orderkey"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(bf.contains(keys)))

        orders = orders.map_batches(
            prefilter, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=BATCH,
        )

    from ..functions.join import partitioned_exists_join

    semi = partitioned_exists_join(
        orders,
        li,
        "o_orderkey",
        "l_orderkey",
        [("o_orderpriority", pa.string())],
    )
    return hash_grouped_aggregate(
        semi, ["o_orderpriority"], [(None, "count", "order_count")]
    )


def q22_idle_customers(sf_dir: str, priority: str = "1-URGENT") -> ray.data.Dataset:
    """Q22-style global-sales-opportunity: per nation, count and total
    balance of above-average-balance customers who have never placed an
    order at the given priority.

    Three distributed shapes in one query, mirroring reference Q22:
    (1) an uncorrelated scalar subquery — the positive-balance average
    — computed by :func:`global_int_sums` and folded into the filter
    as *exact integer* math (``cents * n > sum_cents`` instead of a
    float divide, so the Ray and SQL sides cannot diverge; the product
    is safe while cents·count < 2^63 — ~1e18, i.e. beyond 100 TB
    customer counts); (2) a distributed NOT EXISTS (anti-join)
    against the orders fact via the partitioned union exchange; (3) the
    grouped count/sum final over nation keys."""
    import pyarrow.compute as pc

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_cents(b: pa.Table) -> pa.Table:
        bal = b["c_acctbal"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(bal > 0.0))
        bal = b["c_acctbal"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_custkey": b["c_custkey"],
                "c_nationkey": b["c_nationkey"],
                "cents": pa.array(_cents(bal)),
            }
        )

    pos = cust.map_batches(
        pos_cents, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    # scalar subquery: exact (sum, count), one-row partials per block
    g = global_int_sums(pos, lambda b: {"s": b["cents"], "n": b.num_rows})
    s_total, n_total = g["s"], g["n"]

    def above_avg(b: pa.Table) -> pa.Table:
        c = b["cents"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(c * n_total > s_total))

    rich = pos.map_batches(
        above_avg, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    def urgent(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderpriority"], priority))
        return b.select(["o_custkey"])

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        urgent, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    from ..functions.join import partitioned_exists_join

    idle = partitioned_exists_join(
        rich,
        orders,
        "c_custkey",
        "o_custkey",
        [("c_nationkey", pa.int64()), ("cents", pa.int64())],
        anti=True,
    )
    return hash_grouped_aggregate(
        idle,
        ["c_nationkey"],
        [(None, "count", "numcust"), ("cents", "sum", "total_cents")],
    )


def q10_returned_revenue(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-04-01",
    k: int = 20,
) -> ray.data.Dataset:
    """Q10-style returned-item report: top-``k`` customers by revenue
    from RETURNED lines of orders placed in one quarter, annotated with
    balance and nation.

    The four-table shape done scale-first: both fact scans are pruned
    and filtered per batch *before* the one partitioned orders x
    lineitem exchange; revenue aggregates combiner-first per customer
    key; the global top-k is the distributed local-cut + tiny merge
    (``functions.agg.distributed_topk``), never a global sort; and the
    customer / nation attributes are attached to the ``k`` survivors
    only, on the driver right after the top-k merge — a lookup over k
    rows, not a fourth join over the fact stream.
    """
    import pyarrow.compute as pc

    from ..functions.agg import distributed_topk, gather_final
    from ..functions.join import partitioned_lookup_join

    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def in_window(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array((d >= lo) & (d < hi))).select(
            ["o_orderkey", "o_custkey"]
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        in_window, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    def returned(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(returned, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH)

    joined = partitioned_lookup_join(
        li,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("rev_cents", pa.int64())],
        [("o_custkey", pa.int64(), "o_custkey")],
    )
    per_cust = hash_grouped_aggregate(
        joined, ["o_custkey"], [("rev_cents", "sum", "revenue_cents")]
    )
    top = distributed_topk(per_cust, k, ["revenue_cents", "o_custkey"], [False, True])

    # back-join customer + nation attributes onto the k survivors
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
    )
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    ckeys = cust["c_custkey"].to_numpy()
    c_ord = np.argsort(ckeys)
    ck_s = ckeys[c_ord]
    names = cust["c_name"].combine_chunks().take(pa.array(c_ord))
    cn_s = cust["c_nationkey"].to_numpy()[c_ord]
    bal_s = _cents(cust["c_acctbal"].to_numpy())[c_ord]
    nkey = nation["n_nationkey"].to_numpy()
    nat_names = [""] * (int(nkey.max()) + 1)
    for kk, nm in zip(nkey, nation["n_name"].to_pylist()):
        nat_names[int(kk)] = nm
    nat_names = pa.array(nat_names, pa.string())

    def annotate(t: pa.Table) -> pa.Table:
        pos = np.searchsorted(ck_s, t["o_custkey"].to_numpy())  # FK integrity: all found
        t = t.rename_columns(["c_custkey" if c == "o_custkey" else c for c in t.column_names])
        return (t.append_column("c_name", names.take(pa.array(pos)))
                 .append_column("acctbal_cents", pa.array(bal_s[pos]))
                 .append_column("n_name", nat_names.take(pa.array(cn_s[pos]))))

    # the k survivors are one in-memory block: annotate them on the driver
    return gather_final(top, annotate)


def q12_priority_lines(
    sf_dir: str,
    ship_from: str = "1996-01-01",
    ship_to: str = "1997-01-01",
) -> ray.data.Dataset:
    """Q12-style shipping-priority check (adapted to the fixture's
    columns): per linestatus, how many lines shipped in the window
    belong to URGENT/HIGH-priority orders vs the rest.

    The conditional-aggregate join shape: the filtered lineitem stream
    meets orders in the partitioned exchange carrying only
    (linestatus, priority); the CASE collapses per batch into two int
    columns before the tiny grouped final (linestatus enum keys).
    """
    import pyarrow.compute as pc

    from ..functions.join import partitioned_lookup_join

    lo = np.datetime64(ship_from, "us").astype(np.int64)
    hi = np.datetime64(ship_to, "us").astype(np.int64)

    def in_window(b: pa.Table) -> pa.Table:
        d = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array((d >= lo) & (d < hi))).select(
            ["l_orderkey", "l_linestatus"]
        )

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linestatus", "l_shipdate"]).map_batches(
        in_window, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = partitioned_lookup_join(
        li,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("l_linestatus", pa.string())],
        [("o_orderpriority", pa.string(), "prio")],
    )

    def cases(b: pa.Table) -> pa.Table:
        high = pc.is_in(b["prio"],
                        value_set=pa.array(["1-URGENT", "2-HIGH"]))
        h = high.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "l_linestatus": b["l_linestatus"],
            "high": pa.array(h),
            "low": pa.array(1 - h),
        })

    tagged = joined.map_batches(
        cases, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    return hash_grouped_aggregate(
        tagged, ["l_linestatus"],
        [("high", "sum", "high_line_count"), ("low", "sum", "low_line_count")],
        final_mode="tree",
    )


def q7_volume_shipping(sf_dir: str, nation_a: str = "NATION_0",
                       nation_b: str = "NATION_1") -> ray.data.Dataset:
    """Q7-style volume shipping: discounted revenue between two nations
    by (supplier nation, customer nation, ship year) — trade in BOTH
    directions, the classic two-sided dimension filter.

    Same physical shape as q5: supplier/customer key->nation maps are
    the broadcast side (sorted key arrays, searchsorted per batch); the
    lineitem scan streams with revenue pre-folded to integer cents and
    the ship year extracted per batch; orders x lineitem is the one
    partitioned exchange; the (nation, nation) pair filter collapses
    rows map-side BEFORE the tiny grouped final.
    """
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nkey = nation["n_nationkey"].to_numpy()
    n_max = int(nkey.max()) + 1
    nat_names = [""] * n_max
    for k, nm in zip(nkey, nation["n_name"].to_pylist()):
        nat_names[int(k)] = nm
    want = {nat_names.index(nation_a), nat_names.index(nation_b)}
    a_key, b_key = sorted(want)

    skeys = supp["s_suppkey"].to_numpy()
    s_ord = np.argsort(skeys)
    ckeys = cust["c_custkey"].to_numpy()
    c_ord = np.argsort(ckeys)
    dims_ref = ray.put(
        (
            skeys[s_ord],
            supp["s_nationkey"].to_numpy()[s_ord].astype(np.int32),
            ckeys[c_ord],
            cust["c_nationkey"].to_numpy()[c_ord].astype(np.int32),
            nat_names,
        )
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_li(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        year = pc.year(b["l_shipdate"]).cast(pa.int64())
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "l_year": year,
                "rev_cents": pa.array(_cents(price * (1.0 - disc))),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH)
    from ..functions.join import partitioned_lookup_join

    joined = partitioned_lookup_join(
        li,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("l_suppkey", pa.int64()), ("l_year", pa.int64()), ("rev_cents", pa.int64())],
        [("o_custkey", pa.int64(), "o_custkey")],
    )

    def tag(b: pa.Table) -> pa.Table:
        sk_s, sn_s, ck_s, cn_s, nat_names_ = ray.get(dims_ref)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        sp = np.minimum(np.searchsorted(sk_s, sk), len(sk_s) - 1)
        sn = np.where(sk_s[sp] == sk, sn_s[sp], -1).astype(np.int32)
        cp = np.minimum(np.searchsorted(ck_s, ck), len(ck_s) - 1)
        cn = np.where(ck_s[cp] == ck, cn_s[cp], -2).astype(np.int32)
        keep = ((sn == a_key) & (cn == b_key)) | ((sn == b_key) & (cn == a_key))
        b = b.filter(pa.array(keep))
        sn, cn = sn[keep], cn[keep]
        return pa.table(
            {
                "supp_nation": pa.DictionaryArray.from_arrays(
                    pa.array(sn), pa.array(nat_names_, type=pa.string())
                ).cast(pa.string()),
                "cust_nation": pa.DictionaryArray.from_arrays(
                    pa.array(cn), pa.array(nat_names_, type=pa.string())
                ).cast(pa.string()),
                "l_year": b["l_year"],
                "rev_cents": b["rev_cents"],
            }
        )

    tagged = joined.map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )
    return hash_grouped_aggregate(
        tagged, ["supp_nation", "cust_nation", "l_year"],
        [("rev_cents", "sum", "revenue_cents")],
    )


def q13_customer_distribution(sf_dir: str) -> pa.Table:
    """Q13-style customer-order-count distribution: for each order
    count c_count (INCLUDING 0), the number of customers with exactly
    that many orders — the LEFT OUTER JOIN + double-aggregate shape.

    The plan exploits referential integrity to DELETE the join: every
    ``o_custkey`` is a customer (FK contract of the fixture and of
    TPC-H), so the >=1-order half of the distribution is a pure
    re-aggregation of the per-customer order counts (combiner-first
    exchange over custkey, then a tiny groupby over count values), and
    the 0-orders bucket is ``count(customer) - count(distinct
    ordering customers)`` — two scalar counts.  No customer-to-orders
    exchange at any scale (the reference plan's LEFT JOIN exists only
    to manufacture the zero bucket).
    """
    counts = hash_grouped_aggregate(
        _read(sf_dir, "orders", ["o_custkey"]),
        ["o_custkey"],
        [(None, "count", "c_count")],
    ).materialize()
    parts = gathered_blocks(hash_grouped_aggregate(
        counts.select_columns(["c_count"]),
        ["c_count"],
        [(None, "count", "custdist")],
    ))
    tbl = pa.concat_tables(parts) if parts else pa.table(
        {"c_count": pa.array([], pa.int64()), "custdist": pa.array([], pa.int64())}
    )
    n_zero = _read(sf_dir, "customer", ["c_custkey"]).count() - counts.count()
    out = tbl.select(["c_count", "custdist"])
    if n_zero > 0:  # emit the 0 bucket only when it exists (SQL parity)
        out = pa.concat_tables([out, pa.table(
            {"c_count": pa.array([0], pa.int64()),
             "custdist": pa.array([n_zero], pa.int64())}
        )])
    return out


def q17_small_quantity_revenue(
    sf_dir: str, brand: str = "Brand#4", frac_num: int = 1, frac_den: int = 5,
) -> ray.data.Dataset:
    """Q17-style small-quantity-order revenue: total extended price (in
    integer cents) and count of lineitems for parts of ``brand`` whose
    quantity is below ``frac_num/frac_den`` of that part's average
    quantity — the correlated-average self-join.

    Two passes over lineitem (unavoidable: the threshold is a function
    of the full fact table): pass 1 builds per-part (sum_qty, n) for
    the brand's parts; pass 2 re-scans with them attached by
    :func:`auto_lookup_join` (one brand's parts: the broadcast side in
    practice) and keeps rows where ``qty * frac_den * n < frac_num *
    sum_qty`` — EXACT integer math, no float average to diverge on.
    Revenue and line count are one :func:`global_int_sums` pass over
    the kept rows, which raises OverflowError instead of wrapping.
    """
    import pyarrow.compute as pc

    from ..functions.join import auto_lookup_join

    def brand_parts(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["p_brand"], brand)).select(["p_partkey"])

    part_keys = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        brand_parts, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH,
    ).to_pandas()["p_partkey"].to_numpy()
    pk_ref = ray.put(np.sort(part_keys))

    def brand_lines(b: pa.Table) -> pa.Table:
        _, keep = sorted_lookup(
            ray.get(pk_ref), b["l_partkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(keep))
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qty": pc.cast(b["l_quantity"], pa.int64()),
            "cents": pa.array(_cents(
                b["l_extendedprice"].to_numpy(zero_copy_only=False)
            )),
        })

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(
        brand_lines, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH,
    )
    thresholds = hash_grouped_aggregate(
        li.select_columns(["l_partkey", "qty"]),
        ["l_partkey"],
        [("qty", "sum", "sum_qty"), (None, "count", "n")],
    )
    joined = auto_lookup_join(
        li, thresholds, "l_partkey", "l_partkey",
        [("qty", pa.int64()), ("cents", pa.int64())],
        [("sum_qty", pa.int64(), "sum_qty"), ("n", pa.int64(), "n")],
    )

    def small(b: pa.Table) -> pa.Table:
        qty = b["qty"].to_numpy(zero_copy_only=False)
        s = b["sum_qty"].to_numpy(zero_copy_only=False)
        n = b["n"].to_numpy(zero_copy_only=False)
        return b.select(["cents"]).filter(pa.array(qty * frac_den * n < frac_num * s))

    kept = joined.map_batches(
        small, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return _revenue_row(global_int_sums(
        kept, lambda b: {"revenue_cents": b["cents"], "n_lines": b.num_rows}))


def q21_returns_suppliers(
    sf_dir: str, status: str = "F", priority: str = "1-URGENT",
    big_qty: float = 45.0,
) -> ray.data.Dataset:
    """Q21-style EXISTS + NOT EXISTS composition: suppliers with at
    least one returned ('R') line in a finished (status ``'F'``) order,
    EXCLUDING any supplier with a large (quantity > ``big_qty``)
    returned line in a finished URGENT order.

    Both subqueries share the same returned-lines x finished-orders
    join, so the plan runs ONE fact-level partitioned lookup join
    (returned lines, carrying quantity, against finished orders,
    carrying an is-urgent flag) and folds the EXISTS and the NOT EXISTS
    into a single combiner-first per-supplier aggregate: ``seen`` =
    any joined line, ``bad`` = max(quantity > big_qty AND urgent).
    The suppliers whose ``bad`` is 0 are then one semi-join
    (:func:`auto_lookup_join` with nothing attached) against the
    supplier table; the flag table is bounded by supplier cardinality,
    so that join broadcasts in practice.
    """
    import pyarrow.compute as pc

    from ..functions.join import auto_lookup_join, partitioned_lookup_join

    def orders_f(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderstatus"], status))
        urgent = pc.equal(b["o_orderpriority"], priority).cast(pa.int8())
        return pa.table({"o_orderkey": b["o_orderkey"], "urgent": urgent})

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderpriority"]
    ).map_batches(orders_f, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    def lines_r(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "l_suppkey": b["l_suppkey"],
            "big": pa.array(
                b["l_quantity"].to_numpy(zero_copy_only=False) > big_qty
            ).cast(pa.int8()),
        })

    lines = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_returnflag",
                             "l_quantity"]
    ).map_batches(lines_r, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    joined = partitioned_lookup_join(
        lines, orders, "l_orderkey", "o_orderkey",
        [("l_suppkey", pa.int64()), ("big", pa.int8())],
        [("urgent", pa.int8(), "urgent")],
    )

    def flagify(b: pa.Table) -> pa.Table:
        bad = (
            b["big"].to_numpy(zero_copy_only=False).astype(np.int64)
            * b["urgent"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table({"l_suppkey": b["l_suppkey"], "bad": pa.array(bad)})

    flags = hash_grouped_aggregate(
        joined.map_batches(flagify, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        ["l_suppkey"], [("bad", "max", "bad")],
    )

    # flags holds ONE row per supplier with bad = max, so EXISTS AND
    # NOT-bad collapses to a single semi-join against the bad=0 rows
    def good_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["bad"], 0)).select(["l_suppkey"])

    good = flags.map_batches(good_only, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    return auto_lookup_join(
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]), good,
        "s_suppkey", "l_suppkey",
        [("s_suppkey", pa.int64()), ("s_name", pa.string())], [],
    )


# ---------------------------------------------------------------------------
# Round 5: the remaining TPC-H-style queries (q2/q8/q9/q11/q15/q16/q19/q20),
# completing the 22-query suite.  The synthetic schema has no partsupp
# table (TESTDATA.md), so where the canonical query reads partsupp the
# adaptation is documented on the function: lineitem is the observed
# part-supplier relation and p_retailprice the unit-cost basis.  All
# monetary math stays in integer cents (module docstring); any ratio a
# query must emit is ONE shared IEEE division of two exact int64 sums.
# ---------------------------------------------------------------------------


def _nation_names(sf_dir: str) -> list[str]:
    """Dense nationkey -> name list (nation is tiny at any scale)."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    nkey = nation["n_nationkey"].to_numpy()
    names = [""] * (int(nkey.max()) + 1)
    for k, nm in zip(nkey, nation["n_name"].to_pylist()):
        names[int(k)] = nm
    return names


def _region_nation_keys(sf_dir: str, region: str) -> set[int]:
    """nationkeys belonging to one region (driver-side, tiny tables)."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rk = {int(k) for k, nm in zip(reg["r_regionkey"].to_pylist(),
                                  reg["r_name"].to_pylist()) if nm == region}
    return {int(k) for k, r in zip(nation["n_nationkey"].to_pylist(),
                                   nation["n_regionkey"].to_pylist())
            if int(r) in rk}


def _supplier_nations(sf_dir: str):
    """(sorted s_suppkey, aligned s_nationkey int32) broadcast halves."""
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    sk = supp["s_suppkey"].to_numpy()
    o = np.argsort(sk)
    return sk[o], supp["s_nationkey"].to_numpy()[o].astype(np.int32)


def q8_market_share(
    sf_dir: str,
    region: str = "ASIA",
    ptype: str = "PROMO",
    nation: str = "NATION_5",
    date_from: str = "1996-01-01",
    date_to: str = "1998-01-01",
) -> ray.data.Dataset:
    """Q8-style national market share: over orders placed by customers
    in ``region`` during the window, restricted to lineitems of parts
    of ``ptype``: per order year, the revenue share supplied by
    ``nation``.

    ``num_cents``/``den_cents`` are exact integer-cent sums;
    ``mkt_share`` is the one shared IEEE division num/den.  Plan: part
    keys, customer keys (region-filtered) and supplier nations are
    broadcast dimensions; the single big exchange is lineitem x orders
    on orderkey (the only fact-fact edge).  Mirrors the reference's
    many-small-pipelines test style (rios/riostests), not its code.
    """
    import pyarrow.compute as pc

    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)
    names = _nation_names(sf_dir)
    target_nation = names.index(nation)
    region_nats = _region_nation_keys(sf_dir, region)

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pkeys = np.sort(
        part.filter(pc.equal(part["p_type"], ptype))["p_partkey"].to_numpy()
    )
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    )
    in_reg = np.isin(cust["c_nationkey"].to_numpy(), list(region_nats))
    ckeys = np.sort(cust["c_custkey"].to_numpy()[in_reg])
    sk_s, sn_s = _supplier_nations(sf_dir)
    dims_ref = ray.put((pkeys, ckeys, sk_s, sn_s))

    def prep_orders(b: pa.Table) -> pa.Table:
        _, ck_s, _, _ = ray.get(dims_ref)
        od = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (od >= lo) & (od < hi)
        _, found = sorted_lookup(ck_s, b["o_custkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(keep & found))
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.year(b["o_orderdate"]).cast(pa.int64()),
        })

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    def prep_li(b: pa.Table) -> pa.Table:
        pk_s, _, sk_sorted, sn_sorted = ray.get(dims_ref)
        _, is_part = sorted_lookup(
            pk_s, b["l_partkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(is_part))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        rev = _cents(price * (1.0 - disc))
        sp, sfound = sorted_lookup(
            sk_sorted, b["l_suppkey"].to_numpy(zero_copy_only=False))
        if not sfound.all():
            raise ValueError("q8: lineitem references unknown supplier")
        is_nat = sn_sorted[sp] == target_nation
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev_cents": pa.array(rev),
            "nat_cents": pa.array(np.where(is_nat, rev, 0)),
        })

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    from ..functions.join import partitioned_lookup_join

    joined = partitioned_lookup_join(
        li, orders, "l_orderkey", "o_orderkey",
        [("rev_cents", pa.int64()), ("nat_cents", pa.int64())],
        [("o_year", pa.int64(), "o_year")],
    )
    sums = hash_grouped_aggregate(
        joined, ["o_year"],
        [("nat_cents", "sum", "num_cents"), ("rev_cents", "sum", "den_cents")],
    )

    def share(b: pa.Table) -> pa.Table:
        num = b["num_cents"].to_numpy(zero_copy_only=False)
        den = b["den_cents"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_year": b["o_year"],
            "num_cents": b["num_cents"],
            "den_cents": b["den_cents"],
            "mkt_share": pa.array(num.astype(np.float64) / den.astype(np.float64)),
        })

    return sums.map_batches(share, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)


def q9_nation_profit(sf_dir: str, name_sub: str = "red") -> ray.data.Dataset:
    """Q9-style profit by (supplier nation, order year) over parts whose
    name contains ``name_sub``.

    Adaptation (no partsupp table): unit cost is the part's
    ``p_retailprice``, so ``profit_cents = rev_cents -
    retail_cents * qty`` — every term an exact int64.  Plan: the
    name-filtered part map (partkey -> retail cents) and supplier
    nations broadcast; lineitem x orders is the one exchange, carrying
    the order year.
    """
    import pyarrow.compute as pc

    names = _nation_names(sf_dir)
    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    )
    hit = pc.match_substring(part["p_name"], name_sub)
    part = part.filter(hit)
    pk = part["p_partkey"].to_numpy()
    o = np.argsort(pk)
    pk_s = pk[o]
    retail_cents = _cents(part["p_retailprice"].to_numpy())[o]
    sk_s, sn_s = _supplier_nations(sf_dir)
    dims_ref = ray.put((pk_s, retail_cents, sk_s, sn_s, names))

    def prep_orders(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.year(b["o_orderdate"]).cast(pa.int64()),
        })

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        prep_orders, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    def prep_li(b: pa.Table) -> pa.Table:
        pk_sorted, rc, sk_sorted, sn_sorted, _ = ray.get(dims_ref)
        pp, pfound = sorted_lookup(
            pk_sorted, b["l_partkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(pfound))
        pp = pp[pfound]
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        profit = _cents(price * (1.0 - disc)) - rc[pp] * qty
        sp, sfound = sorted_lookup(
            sk_sorted, b["l_suppkey"].to_numpy(zero_copy_only=False))
        if not sfound.all():
            raise ValueError("q9: lineitem references unknown supplier")
        nat = sn_sorted[sp].astype(np.int32)
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "nat": pa.array(nat),
            "profit_cents": pa.array(profit),
        })

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    from ..functions.join import partitioned_lookup_join

    joined = partitioned_lookup_join(
        li, orders, "l_orderkey", "o_orderkey",
        [("nat", pa.int32()), ("profit_cents", pa.int64())],
        [("o_year", pa.int64(), "o_year")],
    )

    def tag(b: pa.Table) -> pa.Table:
        *_, names_ = ray.get(dims_ref)
        nat = b["nat"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_name": pa.DictionaryArray.from_arrays(
                pa.array(nat), pa.array(names_, type=pa.string())
            ).cast(pa.string()),
            "o_year": b["o_year"],
            "profit_cents": b["profit_cents"],
        })

    tagged = joined.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=BATCH)
    return hash_grouped_aggregate(
        tagged, ["n_name", "o_year"], [("profit_cents", "sum", "profit_cents")]
    )


def q2_min_cost_supplier(
    sf_dir: str, region: str = "EUROPE", size: int = 15, ptype: str = "LARGE"
) -> ray.data.Dataset:
    """Q2-style min-cost supplier: for each part with size up to
    ``size`` of ``ptype``, the region's supplier(s) achieving the
    part's minimum cost.

    Adaptation (no partsupp table): the observed part-supplier relation
    is lineitem, and a (part, supplier) pair's cost is its MINIMUM
    single-line extended price in integer cents — so the correlated
    min-subquery shape (per-part min across region suppliers, equality
    join back) is preserved with exact-int comparisons throughout.
    Plan: filtered part map and region-supplier map broadcast; one
    grouped min by (part, supplier); the per-part min + tie emission is
    a single hash-partitioned group pass (groups co-located, vectorized
    boundary scan — no second exchange).
    """
    import pyarrow.compute as pc

    names = _nation_names(sf_dir)
    region_nats = _region_nation_keys(sf_dir, region)

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_size", "p_type"],
    )
    keep = pc.and_(pc.less_equal(part["p_size"], size), pc.equal(part["p_type"], ptype))
    part = part.filter(keep)
    pk = part["p_partkey"].to_numpy()
    po = np.argsort(pk)
    pk_s, pname_s = pk[po], np.asarray(part["p_name"].to_pylist(), dtype=object)[po]

    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    in_reg = np.isin(supp["s_nationkey"].to_numpy(), list(region_nats))
    supp = supp.filter(pa.array(in_reg))
    sk = supp["s_suppkey"].to_numpy()
    so = np.argsort(sk)
    sk_s = sk[so]
    sname_s = np.asarray(supp["s_name"].to_pylist(), dtype=object)[so]
    snat_s = supp["s_nationkey"].to_numpy()[so].astype(np.int32)
    dims_ref = ray.put((pk_s, pname_s, sk_s, sname_s, snat_s, names))

    def prep_li(b: pa.Table) -> pa.Table:
        pk_sorted, _, sk_sorted, _, _, _ = ray.get(dims_ref)
        _, pfound = sorted_lookup(
            pk_sorted, b["l_partkey"].to_numpy(zero_copy_only=False))
        _, sfound = sorted_lookup(
            sk_sorted, b["l_suppkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(pfound & sfound))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "p_partkey": b["l_partkey"],
            "s_suppkey": b["l_suppkey"],
            "cost_cents": pa.array(_cents(price)),
        })

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)

    per_pair = hash_grouped_aggregate(
        li, ["p_partkey", "s_suppkey"], [("cost_cents", "min", "cost_cents")]
    )

    def part_min(tbl: pa.Table) -> pa.Table:
        """All groups of one hash partition: per-part min + keep ties."""
        if tbl.num_rows == 0:
            return pa.table({"p_partkey": pa.array([], pa.int64()),
                             "s_suppkey": pa.array([], pa.int64()),
                             "min_cost_cents": pa.array([], pa.int64())})
        pkv = tbl["p_partkey"].to_numpy(zero_copy_only=False)
        cv = tbl["cost_cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((cv, pkv))
        pkv, cv = pkv[order], cv[order]
        sv = tbl["s_suppkey"].to_numpy(zero_copy_only=False)[order]
        new = np.concatenate([[True], pkv[1:] != pkv[:-1]])
        # per-part min = first cost in each sorted run, propagated
        gmin = cv[np.maximum.accumulate(np.where(new, np.arange(len(cv)), 0))]
        keep = cv == gmin
        return pa.table({
            "p_partkey": pa.array(pkv[keep]),
            "s_suppkey": pa.array(sv[keep]),
            "min_cost_cents": pa.array(cv[keep]),
        })

    winners = hash_partitioned_groups(per_pair, ["p_partkey"], part_min)

    def attach(b: pa.Table) -> pa.Table:
        pk_sorted, pname, sk_sorted, sname, snat, names_ = ray.get(dims_ref)
        pp, _ = sorted_lookup(pk_sorted, b["p_partkey"].to_numpy(zero_copy_only=False))
        sp, _ = sorted_lookup(sk_sorted, b["s_suppkey"].to_numpy(zero_copy_only=False))
        nat = snat[sp]
        return pa.table({
            "p_partkey": b["p_partkey"],
            "p_name": pa.array(pname[pp], type=pa.string()),
            "s_suppkey": b["s_suppkey"],
            "s_name": pa.array(sname[sp], type=pa.string()),
            "n_name": pa.DictionaryArray.from_arrays(
                pa.array(nat), pa.array(names_, type=pa.string())
            ).cast(pa.string()),
            "min_cost_cents": b["min_cost_cents"],
        })

    return winners.map_batches(attach, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)


def q11_important_parts(
    sf_dir: str, nation: str = "NATION_3",
    fraction_num: int = 1, fraction_den: int = 1000,
) -> ray.data.Dataset:
    """Q11-style important stock: parts whose revenue from ``nation``'s
    suppliers exceeds ``num/den`` of the total across all such parts.

    Adaptation (no partsupp): "value" is discounted lineitem revenue
    from the nation's suppliers, in integer cents.  The global-scalar
    HAVING threshold is the two-pass broadcast shape: grouped per-part
    sums once (materialized — one row per part), the total by
    :func:`global_int_sums` (one-row block partials folded
    driver-side), threshold pushed back as one exact int64 compare.
    value > total*num/den is evaluated as value >= floor(total*num/den)
    + 1 — pure integers, no ratio float anywhere.
    """
    names = _nation_names(sf_dir)
    nat_key = names.index(nation)
    sk_s, sn_s = _supplier_nations(sf_dir)
    nat_supp = ray.put(np.sort(sk_s[sn_s == nat_key]))

    def prep_li(b: pa.Table) -> pa.Table:
        wanted = ray.get(nat_supp)
        _, found = sorted_lookup(
            wanted, b["l_suppkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(found))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": b["l_partkey"],
            "rev_cents": pa.array(_cents(price * (1.0 - disc))),
        })

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)
    per_part = hash_grouped_aggregate(
        li, ["l_partkey"], [("rev_cents", "sum", "value_cents")]
    ).materialize()

    total = global_int_sums(per_part, lambda b: {"v": b["value_cents"]})["v"]
    thr = (total * fraction_num) // fraction_den + 1  # exact int threshold

    def keep(b: pa.Table) -> pa.Table:
        v = b["value_cents"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(v >= thr))

    return per_part.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)


def q15_top_supplier(
    sf_dir: str, date_from: str = "1996-01-01", date_to: str = "1996-04-01"
) -> ray.data.Dataset:
    """Q15-style top supplier: supplier(s) with the maximum discounted
    revenue over one quarter (ties all returned, like the canonical
    view formulation).  Per-supplier grouped sum once (materialized,
    one row per supplier); global max by Ray's ``Dataset.max`` (exact
    on int64, None on an empty aggregate); the winner filter is one
    broadcast int compare; names attach from the broadcast supplier
    table."""
    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def prep_li(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ship >= lo) & (ship < hi)
        b = b.filter(pa.array(keep))
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({
            "s_suppkey": b["l_suppkey"],
            "rev_cents": pa.array(_cents(price * (1.0 - disc))),
        })

    li = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=BATCH)
    per_supp = hash_grouped_aggregate(
        li, ["s_suppkey"], [("rev_cents", "sum", "total_revenue_cents")]
    ).materialize()

    # None when the window matches NO shipments (zero-block aggregate):
    # the result is legitimately empty, matching the oracle's empty set
    best = per_supp.max("total_revenue_cents")

    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    sk = supp["s_suppkey"].to_numpy()
    so = np.argsort(sk)
    dims_ref = ray.put((sk[so], np.asarray(supp["s_name"].to_pylist(),
                                           dtype=object)[so]))

    def winners(b: pa.Table) -> pa.Table:
        sk_s, sname_s = ray.get(dims_ref)
        v = b["total_revenue_cents"].to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(v == best if best is not None
                              else np.zeros(len(v), bool)))
        sp, found = sorted_lookup(sk_s, b["s_suppkey"].to_numpy(zero_copy_only=False))
        if not found.all():
            raise ValueError("q15: top supplier missing from the supplier table")
        return pa.table({
            "s_suppkey": b["s_suppkey"],
            "s_name": pa.array(sname_s[sp], type=pa.string()),
            "total_revenue_cents": b["total_revenue_cents"],
        })

    return per_supp.map_batches(winners, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)


def q16_supplier_counts(
    sf_dir: str,
    exclude_brand: str = "Brand#5",
    exclude_type: str = "PROMO",
    sizes: tuple = (1, 9, 19, 29, 39, 49),
) -> ray.data.Dataset:
    """Q16-style: distinct-supplier counts per (brand, type, size) for
    parts NOT of ``exclude_brand``/``exclude_type`` with size in
    ``sizes``, excluding flagged suppliers.

    Adaptations (no partsupp / s_comment): the part-supplier relation
    is observed from lineitem, and the "complaints" supplier exclusion
    set is suppliers with negative account balance.  Plan: filtered
    part-attribute map + exclusion keys broadcast; per-batch (part,
    supplier) pair dedup cuts the exchange; ONE hash exchange on the
    three group keys co-locates each group, so the distinct-supplier
    count per group is exact and vectorized within its partition.
    """
    import pyarrow.compute as pc

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    )
    keep = pc.and_(
        pc.and_(
            pc.invert(pc.equal(part["p_brand"], exclude_brand)),
            pc.invert(pc.equal(part["p_type"], exclude_type)),
        ),
        pc.is_in(part["p_size"], value_set=pa.array(list(sizes), pa.int32())),
    )
    part = part.filter(keep)
    pk = part["p_partkey"].to_numpy()
    po = np.argsort(pk)
    pk_s = pk[po]
    brand_s = np.asarray(part["p_brand"].to_pylist(), dtype=object)[po]
    type_s = np.asarray(part["p_type"].to_pylist(), dtype=object)[po]
    size_s = part["p_size"].to_numpy()[po].astype(np.int32)

    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_acctbal"]
    )
    bad = np.sort(
        supp["s_suppkey"].to_numpy()[supp["s_acctbal"].to_numpy() < 0.0]
    )
    dims_ref = ray.put((pk_s, brand_s, type_s, size_s, bad))

    def prep_li(b: pa.Table) -> pa.Table:
        pk_sorted, brands, types, sizes_, bad_ = ray.get(dims_ref)
        pkv = b["l_partkey"].to_numpy(zero_copy_only=False)
        skv = b["l_suppkey"].to_numpy(zero_copy_only=False)
        pp, pfound = sorted_lookup(pk_sorted, pkv)
        _, is_bad = sorted_lookup(bad_, skv)
        m = pfound & ~is_bad
        pp, skv = pp[m], skv[m]
        # batch-local pair dedup before the exchange (combiner)
        pairs = np.unique(np.stack([pp, skv], axis=1), axis=0)
        pp, skv = pairs[:, 0], pairs[:, 1]
        return pa.table({
            "p_brand": pa.array(brands[pp], type=pa.string()),
            "p_type": pa.array(types[pp], type=pa.string()),
            "p_size": pa.array(sizes_[pp], type=pa.int32()),
            "s_suppkey": pa.array(skv),
        })

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
        prep_li, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH
    )

    def count_distinct(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().drop_duplicates()
        g = (df.groupby(["p_brand", "p_type", "p_size"], sort=False)["s_suppkey"]
               .size().reset_index(name="supplier_cnt"))
        return pa.table({
            "p_brand": pa.array(g["p_brand"], type=pa.string()),
            "p_type": pa.array(g["p_type"], type=pa.string()),
            "p_size": pa.array(g["p_size"].to_numpy().astype(np.int32)),
            "supplier_cnt": pa.array(g["supplier_cnt"].to_numpy().astype(np.int64)),
        })

    return hash_partitioned_groups(
        li, ["p_brand", "p_type", "p_size"], count_distinct
    )


def q19_disjunctive_revenue(
    sf_dir: str,
    bundles: tuple = (
        ("Brand#12", 1, 5, 1, 11),
        ("Brand#2", 1, 10, 10, 20),
        ("Brand#3", 1, 15, 20, 30),
    ),
) -> ray.data.Dataset:
    """Q19-style disjunctive-predicate revenue: total discounted
    revenue over lineitems matching ANY (brand, size range, quantity
    range) bundle.  (The canonical shipmode/shipinstruct atoms don't
    exist in this schema and are dropped.)

    Plan: the part side of every bundle collapses to ONE broadcast
    bitmask (partkey -> uint8 of bundles its brand+size satisfies), so
    the scan evaluates all disjuncts in 3 vector ops per bundle and the
    global sum is q6's :func:`global_int_sums` pass (no exchange, no
    merge stage, OverflowError instead of wrapping).
    """
    if len(bundles) > 8:
        raise ValueError("q19: at most 8 predicate bundles (uint8 bitmask)")
    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    )
    brand = np.asarray(part["p_brand"].to_pylist(), dtype=object)
    size = part["p_size"].to_numpy()
    mask = np.zeros(part.num_rows, dtype=np.uint8)
    for i, (b_, slo, shi, _, _) in enumerate(bundles):
        mask |= np.uint8(1 << i) * ((brand == b_) & (size >= slo) & (size <= shi))
    hitp = mask != 0
    pk = part["p_partkey"].to_numpy()[hitp]
    po = np.argsort(pk)
    dims_ref = ray.put((pk[po], mask[hitp][po]))
    qty_ranges = [(qlo, qhi) for (_, _, _, qlo, qhi) in bundles]

    def terms(b: pa.Table) -> dict:
        pk_sorted, mask_s = ray.get(dims_ref)
        pkv = b["l_partkey"].to_numpy(zero_copy_only=False)
        pp, pfound = sorted_lookup(pk_sorted, pkv)
        m = np.zeros(len(pkv), dtype=np.uint8)  # gather only found rows:
        m[pfound] = mask_s[pp[pfound]]  # mask_s may be EMPTY (no part hit)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(qty), dtype=bool)
        for i, (qlo, qhi) in enumerate(qty_ranges):
            keep |= ((m & (1 << i)) != 0) & (qty >= qlo) & (qty <= qhi)
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = b["l_discount"].to_numpy(zero_copy_only=False)[keep]
        return {"revenue_cents": _cents(price * (1.0 - disc)), "n_lines": keep}

    ds = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    return _revenue_row(global_int_sums(ds, terms))


def q20_excess_suppliers(
    sf_dir: str,
    nation: str = "NATION_7",
    name_sub: str = "red",
    year_from: str = "1997-01-01",
    year_to: str = "1998-01-01",
) -> pa.Table:
    """Q20-style excess suppliers: suppliers in ``nation`` who, for some
    part whose name contains ``name_sub``, shipped MORE THAN HALF of
    that part's total quantity in the year window.

    Adaptation (no partsupp availqty): "has excess stock" becomes
    "dominated the part's observed shipments" — 2 * supplier_qty >
    part_total_qty, whole-unit integers, no ratio.  Plan: filtered part
    keys + nation supplier keys broadcast; grouped (part, supplier)
    quantity sums; per-part total + dominance test in one
    hash-partitioned group pass; winners dedup to distinct suppliers
    in the same pass (supplier set is the small side by construction).
    """
    import pyarrow.compute as pc

    lo = np.datetime64(year_from, "us").astype(np.int64)
    hi = np.datetime64(year_to, "us").astype(np.int64)
    names = _nation_names(sf_dir)
    nat_key = names.index(nation)

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"]
    )
    pkeys = np.sort(
        part.filter(pc.match_substring(part["p_name"], name_sub))["p_partkey"]
        .to_numpy()
    )
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    in_nat = supp["s_nationkey"].to_numpy().astype(np.int32) == nat_key
    sk = supp["s_suppkey"].to_numpy()[in_nat]
    so = np.argsort(sk)
    sk_s = sk[so]
    sname_s = np.asarray(
        supp.filter(pa.array(in_nat))["s_name"].to_pylist(), dtype=object)[so]
    dims_ref = ray.put((pkeys, sk_s, sname_s))

    def prep_li(b: pa.Table) -> pa.Table:
        """Filter + BATCH-LOCAL pair combiner: partial (part, supplier)
        quantity sums, so the one exchange moves at most one row per
        pair per batch."""
        pk_sorted, _, _ = ray.get(dims_ref)
        ship = b["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        _, pfound = sorted_lookup(
            pk_sorted, b["l_partkey"].to_numpy(zero_copy_only=False))
        b = b.filter(pa.array(pfound & (ship >= lo) & (ship < hi)))
        g = pa.table({
            "l_partkey": b["l_partkey"],
            "l_suppkey": b["l_suppkey"],
            "qty": pa.array(
                b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)),
        }).group_by(["l_partkey", "l_suppkey"]).aggregate([("qty", "sum")])
        return rename_aggregates(g, [("qty", "sum")], ["sq"])

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True,
                  batch_size=None)

    def dominators(tbl: pa.Table) -> pa.Table:
        """One partition = all pair-partials of its parts: merge the
        partials, then per-part total + dominance (NOTE: all-supplier
        totals, computed BEFORE the nation filter, exactly like the
        canonical subquery scopes availqty per part).  Partitioning by
        part alone co-locates every (part, supplier) pair, so the pair
        merge and the dominance test share ONE exchange."""
        _, sk_sorted, _ = ray.get(dims_ref)
        if tbl.num_rows == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64())})
        pkv = tbl["l_partkey"].to_numpy(zero_copy_only=False)
        skv = tbl["l_suppkey"].to_numpy(zero_copy_only=False)
        sq = tbl["sq"].to_numpy(zero_copy_only=False)
        order = np.lexsort((skv, pkv))
        pkv, skv, sq = pkv[order], skv[order], sq[order]
        # merge pair partials
        newp = np.concatenate([[True], (pkv[1:] != pkv[:-1])
                               | (skv[1:] != skv[:-1])])
        pstarts = np.flatnonzero(newp)
        sq = np.add.reduceat(sq, pstarts)
        pkv, skv = pkv[pstarts], skv[pstarts]
        # per-part totals + dominance
        new = np.concatenate([[True], pkv[1:] != pkv[:-1]])
        starts = np.flatnonzero(new)
        totals = np.add.reduceat(sq, starts)
        tot = np.repeat(totals, np.diff(np.append(starts, len(sq))))
        win = 2 * sq > tot
        _, in_nation = sorted_lookup(sk_sorted, skv)
        return pa.table({
            "s_suppkey": pa.array(np.unique(skv[win & in_nation])),
        })

    hits = hash_partitioned_groups(li, ["l_partkey"], dominators)
    # The hit set is bounded by the nation's supplier count (suppliers
    # are the small side at any scale), so the cross-partition distinct
    # + name attach run driver-side on the collected rows — no third
    # exchange (measured 3.3 -> ~2 s at sf0.1), and a legitimately-empty
    # result still carries its (s_suppkey, s_name) schema (q13
    # precedent; an all-empty map_groups dataset loses it otherwise).
    parts = [t["s_suppkey"].to_numpy(zero_copy_only=False) for t in gathered_blocks(hits)]
    winners_keys = (np.unique(np.concatenate(parts)) if parts
                    else np.zeros(0, np.int64))
    sp, _ = sorted_lookup(sk_s, winners_keys)
    return pa.table({
        "s_suppkey": pa.array(winners_keys, type=pa.int64()),
        "s_name": pa.array(sname_s[sp] if len(winners_keys) else [],
                           type=pa.string()),
    })
