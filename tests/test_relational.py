"""Relational pipeline golden tests vs DuckDB (integer-cents money
math makes sums bit-exact across engines)."""

import duckdb
import pytest

from rios_ray.pipelines import relational as R

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation", "region", "supplier",
              "part"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def test_q1(ray_session, con):
    got = (
        R.q1_pricing_summary(SF)
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT l_returnflag, l_linestatus,
               sum(CAST(l_quantity AS BIGINT)) AS sum_qty,
               sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS sum_base_cents,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS sum_disc_cents,
               count(*) AS count_order
          FROM lineitem WHERE l_shipdate < TIMESTAMP '2000-09-01'
         GROUP BY 1, 2 ORDER BY 1, 2""").df()
    for c in ("l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents",
              "sum_disc_cents", "count_order"):
        assert got[c].tolist() == want[c].tolist(), c


def test_q3(ray_session, con):
    got = R.q3_top_orders(SF, segment="BUILDING", k=10).to_pandas()
    want = con.execute("""
        SELECT l_orderkey,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS revenue_cents
          FROM lineitem
          JOIN orders ON l_orderkey = o_orderkey
          JOIN customer ON o_custkey = c_custkey
         WHERE c_mktsegment = 'BUILDING'
         GROUP BY l_orderkey
         ORDER BY revenue_cents DESC, l_orderkey
         LIMIT 10""").df()
    assert got["l_orderkey"].tolist() == want["l_orderkey"].tolist()
    assert got["revenue_cents"].tolist() == want["revenue_cents"].tolist()


def test_q5(ray_session, con):
    got = (
        R.q5_nation_revenue(SF)
        .to_pandas()
        .sort_values(["r_name", "n_name"])
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT r_name, n_name,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS revenue_cents
          FROM lineitem
          JOIN orders ON l_orderkey = o_orderkey
          JOIN customer ON o_custkey = c_custkey
          JOIN supplier ON l_suppkey = s_suppkey AND s_nationkey = c_nationkey
          JOIN nation ON c_nationkey = n_nationkey
          JOIN region ON n_regionkey = r_regionkey
         GROUP BY r_name, n_name ORDER BY r_name, n_name""").df()
    assert got["r_name"].tolist() == want["r_name"].tolist()
    assert got["n_name"].tolist() == want["n_name"].tolist()
    assert got["revenue_cents"].tolist() == want["revenue_cents"].tolist()


def test_q14(ray_session, con):
    con.execute(
        f"CREATE VIEW IF NOT EXISTS part AS SELECT * FROM read_parquet('{SF}/part.parquet')"
    )
    got = (
        R.q14_type_revenue(SF)
        .to_pandas()
        .sort_values("p_type")
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT p_type,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS revenue_cents,
               count(*) AS n_lines
          FROM lineitem
          JOIN part ON l_partkey = p_partkey
         GROUP BY p_type ORDER BY p_type""").df()
    assert got["p_type"].tolist() == want["p_type"].tolist()
    assert got["revenue_cents"].tolist() == want["revenue_cents"].tolist()
    assert got["n_lines"].tolist() == want["n_lines"].tolist()


def test_q18(ray_session, con):
    got = (
        R.q18_big_orders(SF, min_qty=120)
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    want = con.execute("""
        WITH big AS (
            SELECT l_orderkey, sum(CAST(l_quantity AS BIGINT)) AS total_qty
              FROM lineitem GROUP BY 1
            HAVING sum(CAST(l_quantity AS BIGINT)) > 120
        )
        SELECT o_orderkey, o_custkey, total_qty
          FROM orders JOIN big ON o_orderkey = l_orderkey
         ORDER BY o_orderkey
    """).df()
    assert got["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert got["total_qty"].tolist() == want["total_qty"].tolist()
    assert got["o_custkey"].tolist() == want["o_custkey"].tolist()


def test_q6(ray_session, con):
    got = R.q6_forecast_revenue(SF).to_pandas()
    want = con.execute("""
        SELECT coalesce(sum(CAST(floor(l_extendedprice * l_discount * 100 + 0.5)
                                 AS BIGINT)), 0) AS revenue_cents,
               count(*) AS n_lines
          FROM lineitem
         WHERE l_shipdate >= TIMESTAMP '1996-01-01'
           AND l_shipdate <  TIMESTAMP '1997-01-01'
           AND l_discount >= CAST(0.05 AS DOUBLE)
           AND l_discount <= CAST(0.07 AS DOUBLE)
           AND l_quantity < 24
    """).df()
    assert len(got) == 1
    assert got["revenue_cents"].iloc[0] == want["revenue_cents"].iloc[0]
    assert got["n_lines"].iloc[0] == want["n_lines"].iloc[0]
    assert got["n_lines"].iloc[0] > 0


def test_q18_fallback_join(ray_session, con, force_strategy):
    """The broadcast and the partitioned back-join both equal DuckDB."""
    want = con.execute("""
        WITH big AS (
            SELECT l_orderkey, sum(CAST(l_quantity AS BIGINT)) AS total_qty
              FROM lineitem GROUP BY 1
            HAVING sum(CAST(l_quantity AS BIGINT)) > 120
        )
        SELECT o_orderkey, o_custkey, o_orderdate, total_qty
          FROM orders JOIN big ON o_orderkey = l_orderkey
         ORDER BY o_orderkey
    """).df()
    assert len(want) > 0
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = (
            R.q18_big_orders(SF, min_qty=120)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        for c in ("o_orderkey", "total_qty", "o_custkey", "o_orderdate"):
            assert got[c].tolist() == want[c].tolist(), (strategy, c)


def test_q4_semi_join(ray_session, con):
    got = (
        R.q4_order_priority(SF)
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT o_orderpriority, count(*) AS order_count
          FROM orders
         WHERE EXISTS (SELECT 1 FROM lineitem
                        WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
         GROUP BY 1 ORDER BY 1""").df()
    assert got["o_orderpriority"].tolist() == want["o_orderpriority"].tolist()
    assert got["order_count"].tolist() == want["order_count"].tolist()


def test_q22_anti_join(ray_session, con):
    got = (
        R.q22_idle_customers(SF)
        .to_pandas()
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )
    want = con.execute("""
        WITH pos AS (
            SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents
              FROM customer WHERE c_acctbal > 0.0
        ), avg_ AS (SELECT CAST(sum(cents) AS BIGINT) AS s, count(*) AS n FROM pos)
        SELECT c_nationkey, count(*) AS numcust,
               CAST(sum(cents) AS BIGINT) AS total_cents
          FROM pos, avg_
         WHERE cents * n > s
           AND NOT EXISTS (SELECT 1 FROM orders
                            WHERE o_custkey = pos.c_custkey
                              AND o_orderpriority = '1-URGENT')
         GROUP BY 1 ORDER BY 1""").df()
    assert len(got) == len(want) and len(got) > 0
    for c in ("c_nationkey", "numcust", "total_cents"):
        assert got[c].tolist() == want[c].tolist(), c


def test_exists_join_edge_cases(ray_session):
    """Semi keeps only matched keys; anti keeps the complement; an
    empty right side keeps nothing (semi) / everything (anti)."""
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.join import partitioned_exists_join

    left = ray.data.from_arrow(
        pa.table({"k": [1, 2, 3, 4, 5], "v": ["a", "b", "c", "d", "e"]})
    )
    right = ray.data.from_arrow(pa.table({"rk": [2, 2, 4, 9]}))
    cols = [("k", pa.int64()), ("v", pa.string())]
    semi = partitioned_exists_join(left, right, "k", "rk", cols).to_pandas()
    assert sorted(semi["k"].tolist()) == [2, 4]
    anti = partitioned_exists_join(left, right, "k", "rk", cols, anti=True).to_pandas()
    assert sorted(anti["k"].tolist()) == [1, 3, 5]
    empty_right = ray.data.from_arrow(pa.table({"rk": pa.array([], type=pa.int64())}))
    anti_all = partitioned_exists_join(
        left, empty_right, "k", "rk", cols, anti=True
    ).to_pandas()
    assert sorted(anti_all["k"].tolist()) == [1, 2, 3, 4, 5]


def test_q10(ray_session, con):
    got = R.q10_returned_revenue(SF, k=15).to_pandas()
    want = con.execute("""
        WITH percust AS (
            SELECT o_custkey,
                   sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                            AS BIGINT)) AS revenue_cents
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey
             WHERE l_returnflag = 'R'
               AND o_orderdate >= TIMESTAMP '1996-01-01'
               AND o_orderdate <  TIMESTAMP '1996-04-01'
             GROUP BY 1),
        topk AS (SELECT o_custkey AS c_custkey, revenue_cents FROM percust
                 ORDER BY revenue_cents DESC, o_custkey LIMIT 15)
        SELECT t.c_custkey, t.revenue_cents, c.c_name,
               CAST(floor(c.c_acctbal*100 + 0.5) AS BIGINT) AS acctbal_cents,
               n.n_name
          FROM topk t
          JOIN customer c ON c.c_custkey = t.c_custkey
          JOIN nation n ON n.n_nationkey = c.c_nationkey
         ORDER BY t.revenue_cents DESC, t.c_custkey""").df()
    got = got.sort_values(["revenue_cents", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
    for c in ("c_custkey", "revenue_cents", "c_name", "acctbal_cents", "n_name"):
        assert got[c].tolist() == want[c].tolist(), c


def test_q12(ray_session, con):
    got = R.q12_priority_lines(SF).to_pandas().sort_values(
        "l_linestatus").reset_index(drop=True)
    want = con.execute("""
        SELECT l_linestatus,
               CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                             THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
               CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                             THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
          FROM lineitem JOIN orders ON l_orderkey = o_orderkey
         WHERE l_shipdate >= TIMESTAMP '1996-01-01'
           AND l_shipdate <  TIMESTAMP '1997-01-01'
         GROUP BY 1 ORDER BY 1""").df()
    for c in ("l_linestatus", "high_line_count", "low_line_count"):
        assert got[c].tolist() == want[c].tolist(), c


def test_auto_lookup_join_both_paths(ray_session, force_strategy):
    """Broadcast map-side path == partitioned exchange path == DuckDB."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.join import auto_lookup_join

    rng = np.random.default_rng(17)
    lt = pa.table({
        "k": pa.array(rng.integers(0, 300, 5000)),
        "v": pa.array(rng.integers(0, 100, 5000)),
    })
    rt = pa.table({
        "rk": pa.array(np.arange(0, 300, 2)),  # half the keys match
        "name": pa.array([f"n{i}" for i in range(0, 300, 2)]),
    })
    want = duckdb.sql(
        "SELECT l.k, l.v, r.name FROM lt l JOIN rt r ON l.k = r.rk"
    ).df()
    args = (
        "k", "rk",
        [("k", pa.int64()), ("v", pa.int64())],
        [("name", pa.string(), "name")],
    )
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = auto_lookup_join(
            ray.data.from_arrow(lt).repartition(6),
            ray.data.from_arrow(rt),
            *args,
        ).to_pandas()
        g = sorted(map(tuple, got[["k", "v", "name"]].itertuples(index=False)))
        w = sorted(map(tuple, want[["k", "v", "name"]].itertuples(index=False)))
        assert g == w and len(g) > 0, strategy


def test_auto_lookup_join_empty_right(ray_session, force_strategy):
    """An empty right side (filtered dim matching nothing) returns an
    empty result with the full output schema on BOTH paths, instead of
    crashing in concat_tables / referencing pos_c unbound."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.join import auto_lookup_join

    lt = pa.table({
        "k": pa.array(np.arange(100)),
        "v": pa.array(np.arange(100) * 2),
    })
    rt = pa.table({
        "rk": pa.array([], type=pa.int64()),
        "name": pa.array([], type=pa.string()),
    })
    args = (
        "k", "rk",
        [("k", pa.int64()), ("v", pa.int64())],
        [("name", pa.string(), "name")],
    )
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        out = auto_lookup_join(
            ray.data.from_arrow(lt).repartition(4),
            ray.data.from_arrow(rt),
            *args,
        )
        assert out.count() == 0, strategy
        # schema survives at the Dataset level (to_pandas drops columns
        # for all-empty datasets — a Ray quirk, not the join's contract)
        assert sorted(out.schema().names) == ["k", "name", "v"], strategy


def test_fits_broadcast_zero_block_dataset(ray_session, force_strategy):
    """A materialized zero-block Dataset (what a filter or an empty keyed
    exchange can leave) is sized as 0 bytes, not a crash: it fits any
    positive cap and no cap of 0."""
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.join import fits_broadcast

    empty = ray.data.from_arrow(pa.table({"k": pa.array([1, 2])})).limit(0).materialize()
    assert empty.num_blocks() == 0
    force_strategy("broadcast")
    assert fits_broadcast(empty)
    force_strategy("partitioned")
    assert not fits_broadcast(empty)


def test_q7_volume_shipping_vs_duckdb(ray_session, con):
    """Q7-style two-nation volume shipping: integer-cents revenue per
    (supp_nation, cust_nation, ship year), both trade directions."""
    from rios_ray.pipelines.relational import q7_volume_shipping

    sf = "/root/testdata/sf0.001"
    # NATION_20 <-> NATION_11 trade exists at sf0.001 (the q5-style
    # default pair only appears from sf0.01 up)
    got = (
        q7_volume_shipping(sf, nation_a="NATION_20", nation_b="NATION_11")
        .to_pandas()
        .sort_values(["supp_nation", "cust_nation", "l_year"])
        .reset_index(drop=True)
    )
    want = con.sql(f"""
        SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
               CAST(year(l_shipdate) AS BIGINT) AS l_year,
               CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                        AS BIGINT)) AS BIGINT) AS revenue_cents
          FROM lineitem
          JOIN orders ON l_orderkey = o_orderkey
          JOIN supplier ON l_suppkey = s_suppkey
          JOIN customer ON o_custkey = c_custkey
          JOIN nation n1 ON s_nationkey = n1.n_nationkey
          JOIN nation n2 ON c_nationkey = n2.n_nationkey
         WHERE (n1.n_name = 'NATION_20' AND n2.n_name = 'NATION_11')
            OR (n1.n_name = 'NATION_11' AND n2.n_name = 'NATION_20')
         GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
    """).df()
    for c in ("supp_nation", "cust_nation", "l_year", "revenue_cents"):
        assert got[c].tolist() == want[c].tolist(), c
    # sf0.001 trade happens to be one-directional for this pair — both
    # directions are exercised by the driver query at sf0.01 (14 rows)
    assert len(got) > 0


def test_q13_customer_distribution(ray_session, con):
    got = R.q13_customer_distribution(SF).to_pandas().sort_values(
        "c_count").reset_index(drop=True)
    want = con.execute("""
        SELECT c_count, count(*) AS custdist FROM (
            SELECT c.c_custkey, count(o.o_orderkey) AS c_count
              FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
             GROUP BY 1
        ) GROUP BY 1 ORDER BY 1""").df()
    assert got["c_count"].tolist() == want["c_count"].tolist()
    assert got["custdist"].tolist() == want["custdist"].tolist()
    # distribution covers every customer exactly once
    n_cust = con.execute("SELECT count(*) FROM customer").fetchone()[0]
    assert got["custdist"].sum() == n_cust


def test_q17_small_quantity_revenue(ray_session, con, force_strategy):
    """Both plans for the per-part threshold attach equal DuckDB."""
    want = con.execute("""
        WITH bp AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'),
        ag AS (SELECT l_partkey, sum(CAST(l_quantity AS BIGINT)) AS s,
                      count(*) AS n
                 FROM lineitem JOIN bp ON l_partkey = p_partkey GROUP BY 1)
        SELECT CAST(coalesce(sum(CAST(floor(l.l_extendedprice*100 + 0.5)
                               AS BIGINT)), 0) AS BIGINT) AS revenue_cents,
               count(*) AS n_lines
          FROM lineitem l JOIN ag ON l.l_partkey = ag.l_partkey
         WHERE CAST(l.l_quantity AS BIGINT) * 5 * ag.n < 1 * ag.s""").df()
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = R.q17_small_quantity_revenue(SF, brand="Brand#4").to_pandas()
        assert got["revenue_cents"].tolist() == want["revenue_cents"].tolist(), strategy
        assert got["n_lines"].tolist() == want["n_lines"].tolist(), strategy
        assert str(got["revenue_cents"].dtype) == "int64"
        assert str(got["n_lines"].dtype) == "int64"
        assert int(got["n_lines"][0]) > 0, "fixture should have small-qty lines"


@pytest.mark.parametrize("query", [
    pytest.param(R.q6_forecast_revenue, id="q6"),
    pytest.param(lambda sf: R.q17_small_quantity_revenue(sf, brand="Brand#4"), id="q17"),
    pytest.param(R.q19_disjunctive_revenue, id="q19"),
])
def test_revenue_overflow_fails_loud(ray_session, monkeypatch, query):
    """A revenue sum past int64 raises instead of wrapping: every
    scalar revenue final goes through the overflow-checked
    global_int_sums."""
    import numpy as np

    big = np.int64(2 ** 62)
    monkeypatch.setattr(R, "_cents", lambda x: np.full(len(x), big, np.int64))
    with pytest.raises(OverflowError, match="revenue_cents"):
        query(SF)


Q21_SQL = """
    SELECT s.s_suppkey, s.s_name FROM supplier s
     WHERE EXISTS (SELECT 1 FROM lineitem l JOIN orders o
                     ON l.l_orderkey = o.o_orderkey
                    WHERE l.l_suppkey = s.s_suppkey
                      AND l.l_returnflag = 'R' AND o.o_orderstatus = '{status}')
       AND NOT EXISTS (SELECT 1 FROM lineitem l JOIN orders o
                         ON l.l_orderkey = o.o_orderkey
                        WHERE l.l_suppkey = s.s_suppkey
                          AND l.l_returnflag = 'R' AND l.l_quantity > 45
                          AND o.o_orderstatus = '{status}'
                          AND o.o_orderpriority = '1-URGENT')
     ORDER BY s_suppkey"""


def test_q21_returns_suppliers(ray_session, con, force_strategy):
    """Both plans of the final semi-join equal DuckDB, including a
    status no order has (empty flag table, empty result)."""
    want = con.execute(Q21_SQL.format(status="F")).df()
    # both the EXISTS and the NOT EXISTS side must bite on the fixture
    n_sup = con.execute("SELECT count(*) FROM supplier").fetchone()[0]
    assert 0 < len(want) < n_sup
    assert len(con.execute(Q21_SQL.format(status="X")).df()) == 0
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = R.q21_returns_suppliers(SF).to_pandas().sort_values(
            "s_suppkey").reset_index(drop=True)
        assert got["s_suppkey"].tolist() == want["s_suppkey"].tolist(), strategy
        assert got["s_name"].tolist() == want["s_name"].tolist(), strategy
        none = R.q21_returns_suppliers(SF, status="X")
        assert none.count() == 0, strategy
        assert sorted(none.schema().names) == ["s_name", "s_suppkey"], strategy


# --- round 5: the suite-completing eight, gated on the EXACT driver
# --- oracle SQL (dtype-strict, order-insensitive — the same compare
# --- tools/check_correctness.py and the graft driver run at sf0.01).
NEW_R5 = [
    "rel_q2_min_cost_supplier",
    "rel_q8_market_share",
    "rel_q9_nation_profit",
    "rel_q11_important_parts",
    "rel_q15_top_supplier",
    "rel_q16_supplier_counts",
    "rel_q19_disjunctive_revenue",
    "rel_q20_excess_suppliers",
]


@pytest.mark.parametrize("name", NEW_R5)
def test_r5_suite_vs_driver_oracle(ray_session, con, name):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod

    got = entrymod.queries()[name](SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    want = con.execute(entrymod.oracle_sql()[name]).df()
    assert sorted(got.columns) == sorted(want.columns)
    assert len(got) == len(want), name
    if name == "rel_q20_excess_suppliers" and len(got) == 0:
        return  # legitimately empty at sf0.001 (no NATION_7 supplier);
        # the non-empty path is test_q20_dominators below
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        assert str(g[c].dtype) == str(w[c].dtype), (name, c)
        assert g[c].tolist() == w[c].tolist(), (name, c)


def test_q2_tie_emission(ray_session, con):
    """q2 keeps ALL suppliers tied at the per-part min cost."""
    got = R.q2_min_cost_supplier(SF).to_pandas()
    per_part_min = got.groupby("p_partkey")["min_cost_cents"].nunique()
    assert (per_part_min == 1).all()  # one min per part, ties share it


def test_q11_threshold_is_exact(ray_session, con):
    """the int threshold value >= floor(total*num/den)+1 equals the
    rational value*den > total*num on the fixture."""
    got = R.q11_important_parts(SF).to_pandas()
    total = con.execute("""
        SELECT sum(v) FROM (
          SELECT sum(CAST(floor(l_extendedprice*(1-l_discount)*100+0.5)
                     AS BIGINT)) AS v
            FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
           WHERE n_name = 'NATION_3' GROUP BY l_partkey)""").fetchone()[0]
    assert ((got["value_cents"].to_numpy().astype(object) * 1000)
            > int(total)).all()


def test_q20_dominators(ray_session, con):
    """non-empty q20 path (NATION_8 has a dominating supplier at this
    scale; the driver's sf0.01 gate exercises the NATION_7 default)."""
    got = R.q20_excess_suppliers(SF, nation="NATION_8").to_pandas(
    ).sort_values("s_suppkey").reset_index(drop=True)
    want = con.execute("""
        WITH fp AS (SELECT p_partkey FROM part WHERE p_name LIKE '%red%'),
        sq AS (SELECT l_partkey, l_suppkey,
                      sum(CAST(l_quantity AS BIGINT)) AS sq
                 FROM lineitem JOIN fp ON l_partkey = p_partkey
                WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                  AND l_shipdate <  TIMESTAMP '1998-01-01'
                GROUP BY 1, 2),
        tot AS (SELECT l_partkey, sum(sq) AS tq FROM sq GROUP BY 1)
        SELECT DISTINCT s.s_suppkey, s.s_name
          FROM sq JOIN tot ON sq.l_partkey = tot.l_partkey
          JOIN supplier s ON sq.l_suppkey = s.s_suppkey
          JOIN nation ON s_nationkey = n_nationkey
         WHERE n_name = 'NATION_8' AND 2 * sq.sq > tot.tq
         ORDER BY s_suppkey""").df()
    assert len(got) == len(want) > 0
    assert got["s_suppkey"].tolist() == want["s_suppkey"].tolist()
    assert got["s_name"].tolist() == want["s_name"].tolist()


def test_q19_empty_part_filter_and_bundle_cap(ray_session, con):
    """bundles matching zero parts must yield the 0-revenue row (not
    IndexError on the empty broadcast mask); >8 bundles must refuse
    (uint8 bitmask), not silently drop bits (code-review r5)."""
    got = R.q19_disjunctive_revenue(
        SF, bundles=(("Brand#NOPE", 1, 5, 1, 11),)
    ).to_pandas()
    assert got["revenue_cents"].tolist() == [0]
    assert got["n_lines"].tolist() == [0]
    with pytest.raises(ValueError, match="at most 8"):
        R.q19_disjunctive_revenue(
            SF, bundles=tuple(("Brand#1", 1, 50, 0, 100) for _ in range(9))
        )


def test_q15_empty_window(ray_session):
    """a date window with no shipments is a legitimately-empty result,
    not a KeyError on the zero-block aggregate (code-review r5)."""
    got = R.q15_top_supplier(
        SF, date_from="1990-01-01", date_to="1990-02-01"
    ).to_pandas()
    assert len(got) == 0


def _without_suppliers(tmp_path, drop) -> str:
    """A copy of the SF dir whose supplier table lacks ``drop(keys)``
    (the other tables are symlinked), so lineitems reference suppliers
    that do not exist."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    out = tmp_path / "sf"
    out.mkdir()
    for f in os.listdir(SF):
        if f != "supplier.parquet":
            os.symlink(os.path.join(SF, f), out / f)
    supp = pq.read_table(os.path.join(SF, "supplier.parquet"))
    keys = supp["s_suppkey"].to_numpy()
    pq.write_table(supp.filter(~np.isin(keys, drop(keys))), out / "supplier.parquet")
    return str(out)


def test_q8_unknown_supplier_raises(ray_session, tmp_path):
    """q8 fails loud on a lineitem whose supplier is missing instead of
    silently dropping its revenue from the national numerator."""
    sf = _without_suppliers(tmp_path, lambda keys: keys[keys % 2 == 0])
    with pytest.raises(Exception, match="q8: lineitem references unknown supplier"):
        R.q8_market_share(sf).to_pandas()


def test_q15_unknown_winner_raises(ray_session, tmp_path):
    """q15 fails loud when the top supplier is missing from the supplier
    table instead of taking a neighbouring supplier's name."""
    winners = R.q15_top_supplier(SF).to_pandas()["s_suppkey"].tolist()
    assert winners
    sf = _without_suppliers(tmp_path, lambda keys: winners)
    with pytest.raises(Exception, match="q15: top supplier missing"):
        R.q15_top_supplier(sf).to_pandas()
