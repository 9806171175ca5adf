"""Windowed-aggregate golden tests vs DuckDB (tumbling, sliding,
gap-based sessions)."""

import numpy as np
import pandas as pd
import duckdb
import pytest

from rios_ray.pipelines import events as E

SF = "/root/testdata/sf0.001"
EV = f"{SF}/events.parquet"
W = E.DEFAULT_WINDOW_US
GAP = E.DEFAULT_GAP_US


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{EV}')")
    return c


def test_tumbling_counts(ray_session, con):
    got = (
        E.tumbling_counts(SF)
        .to_pandas()
        .sort_values(["window", "event_type"])
        .reset_index(drop=True)
    )
    want = con.execute(f"""
        SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS window, event_type,
               count(*) AS n_events, min(value) AS min_value, max(value) AS max_value
          FROM events GROUP BY 1, 2 ORDER BY 1, 2""").df()
    assert got["window"].tolist() == want["window"].tolist()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert got["min_value"].tolist() == want["min_value"].tolist()  # bit-exact
    assert got["max_value"].tolist() == want["max_value"].tolist()


def test_sliding_counts(ray_session, con):
    got = E.sliding_counts(SF).to_pandas().sort_values("window").reset_index(drop=True)
    want = con.execute(f"""
        SELECT "window", count(*) AS n_events FROM (
            SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) AS "window" FROM events
            UNION ALL
            SELECT CAST(floor(epoch_us(ts) / {W}) AS BIGINT) - 1 AS "window" FROM events)
         GROUP BY "window" ORDER BY "window" """).df()
    assert got["window"].tolist() == want["window"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    # every event in exactly 2 windows
    assert got["n_events"].sum() == 2 * con.execute("SELECT count(*) FROM events").fetchone()[0]


def test_session_windows(ray_session, con):
    got = (
        E.session_windows(SF)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    want = con.execute(f"""
        WITH marked AS (
            SELECT user_id, epoch_us(ts) AS e,
                   CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                         OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > {GAP}
                        THEN 1 ELSE 0 END AS new_sess
              FROM events WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts))),
        sess AS (
            SELECT user_id, e,
                   sum(new_sess) OVER (PARTITION BY user_id ORDER BY e) - 1 AS session_id
              FROM marked)
        SELECT user_id, session_id, count(*) AS n_events,
               min(e) AS t_start, max(e) AS t_end
          FROM sess GROUP BY user_id, session_id
         ORDER BY user_id, session_id""").df()
    assert len(got) == len(want)
    for c in ("user_id", "session_id", "n_events", "t_start", "t_end"):
        assert got[c].tolist() == want[c].tolist(), f"col {c}"
    # sanity: multiple sessions exist and gap property holds for one user
    assert got.groupby("user_id")["session_id"].max().max() >= 1


def test_distinct_users_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import DEFAULT_WINDOW_US, distinct_users

    got = distinct_users(SF).to_pandas().sort_values("window").reset_index(drop=True)
    want = con.execute(f"""
        SELECT CAST(floor(epoch_us(ts) / {DEFAULT_WINDOW_US}) AS BIGINT) AS window,
               count(DISTINCT user_id) AS n_users
          FROM events GROUP BY 1 ORDER BY 1
    """).df()
    assert got["window"].tolist() == want["window"].tolist()
    assert got["n_users"].tolist() == want["n_users"].tolist()


def test_distinct_users_hll_accuracy(ray_session, con):
    """HLL estimate within 5% of the exact per-window cardinality
    (p=12 gives ~1.6% expected relative error)."""
    from rios_ray.pipelines.events import DEFAULT_WINDOW_US, distinct_users_hll

    got = distinct_users_hll(SF).to_pandas().set_index("window")["n_users_approx"]
    want = con.execute(f"""
        SELECT CAST(floor(epoch_us(ts) / {DEFAULT_WINDOW_US}) AS BIGINT) AS window,
               count(DISTINCT user_id) AS n FROM events GROUP BY 1
    """).df().set_index("window")["n"]
    assert set(got.index) == set(want.index)
    rel = (got - want).abs() / want
    assert rel.max() < 0.05, rel.sort_values().tail()


def test_hll_register_merge_associative():
    """Register max over any partitioning equals the single-pass sketch."""
    import numpy as np

    from rios_ray.pipelines.events import _hll_estimate, _hll_registers

    rng = np.random.default_rng(7)
    ids = rng.integers(0, 10_000_000, size=30_000)
    whole = _hll_registers(ids)
    parts = np.maximum.reduce([
        _hll_registers(c) for c in np.array_split(ids, 7)
    ])
    assert np.array_equal(whole, parts)
    exact = len(np.unique(ids))
    assert abs(_hll_estimate(whole) - exact) / exact < 0.05


def test_bit_length_u64_exact():
    """Vectorized bit_length matches int.bit_length on adversarial
    values around every power-of-2 boundary (where raw float log2
    rounds across) plus random uint64."""
    import numpy as np

    from rios_ray.pipelines.events import _bit_length_u64

    vals = []
    for k in range(1, 64):
        for d in (-2, -1, 0, 1, 2):
            v = (1 << k) + d
            if v >= 1:
                vals.append(v)
    vals.append((1 << 64) - 1)
    rng = np.random.default_rng(11)
    vals.extend(int(x) | 1 for x in rng.integers(1, 1 << 63, size=5000))
    arr = np.array(vals, dtype=np.uint64)
    got = _bit_length_u64(arr)
    want = np.array([v.bit_length() for v in vals], dtype=np.int64)
    assert np.array_equal(got, want)


def test_hll_sidecar_matches_pipeline_registers(ray_session):
    """The scalar sidecar's merged registers equal the pipeline's
    vectorized ones (independent splitmix64/bit_length recompute)."""
    import numpy as np
    import pyarrow.parquet as pq

    from rios_ray.pipelines.events import (
        DEFAULT_WINDOW_US,
        HLL_P,
        _hll_registers,
        ensure_hll_sidecar,
        read_events,
    )

    side = pq.read_table(ensure_hll_sidecar(SF)).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["ts", "user_id"]).to_pandas()
    w = ev["ts"].astype("int64") // DEFAULT_WINDOW_US
    m = 1 << HLL_P
    for win in side["window"].unique()[:10]:
        ids = ev.loc[w == win, "user_id"].to_numpy()
        regs = _hll_registers(ids)
        sw = side[side["window"] == win]
        merged = np.zeros(m, dtype=np.uint8)
        np.maximum.at(merged, sw["reg_idx"].to_numpy(),
                      sw["rho"].to_numpy().astype(np.uint8))
        assert np.array_equal(regs, merged), win


def test_asof_last_event_vs_duckdb(ray_session, con):
    """As-of join vs DuckDB's native ASOF JOIN semantics (latest right
    at-or-before the left, per user)."""
    from rios_ray.pipelines.events import asof_last_event

    got = (
        asof_last_event(SF, "click", "error")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT c.event_id, c.user_id, epoch_us(c.ts) AS e,
               (SELECT max(epoch_us(e2.ts)) FROM events e2
                 WHERE e2.user_id = c.user_id AND e2.event_type = 'error'
                   AND e2.ts <= c.ts) AS last_right_e
          FROM events c WHERE c.event_type = 'click'
         ORDER BY c.event_id
    """).df()
    assert got["event_id"].tolist() == want["event_id"].tolist()
    g = got["last_right_e"].astype("Int64").tolist()
    w = want["last_right_e"].astype("Int64").tolist()
    assert g == w
    assert any(v is not None and v is not pd.NA for v in g)


def test_range_join_counts_vs_duckdb(ray_session, con):
    """Interval join (±1h same-user window count) vs a DuckDB correlated
    range count."""
    from rios_ray.pipelines.events import range_join_counts

    got = (
        range_join_counts(SF, "click", "error")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT c.event_id,
               (SELECT count(*) FROM events e2
                 WHERE e2.user_id = c.user_id AND e2.event_type = 'error'
                   AND epoch_us(e2.ts) BETWEEN epoch_us(c.ts) - 3600000000
                                           AND epoch_us(c.ts) + 3600000000
               ) AS n_right
          FROM events c WHERE c.event_type = 'click'
         ORDER BY c.event_id
    """).df()
    assert got["event_id"].tolist() == want["event_id"].tolist()
    assert got["n_right"].tolist() == want["n_right"].tolist()
    assert got["n_right"].max() > 0


def test_top_users_per_window_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import DEFAULT_WINDOW_US, top_users_per_window

    got = top_users_per_window(SF, n=2).to_pandas()
    want = con.execute(f"""
        WITH c AS (
            SELECT CAST(floor(epoch_us(ts) / {DEFAULT_WINDOW_US}) AS BIGINT) AS "window",
                   user_id, count(*) AS n_events
              FROM events GROUP BY 1, 2)
        SELECT "window", user_id, n_events,
               row_number() OVER (PARTITION BY "window"
                                  ORDER BY n_events DESC, user_id) AS rank
          FROM c QUALIFY rank <= 2""").df()
    g = sorted(map(tuple, got[["window", "user_id", "n_events", "rank"]].itertuples(index=False)))
    w = sorted(map(tuple, want[["window", "user_id", "n_events", "rank"]].itertuples(index=False)))
    assert g == w and len(g) > 0


def test_grouped_quantiles_vs_duckdb(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.agg import grouped_quantiles

    rng = np.random.default_rng(9)
    n = 20000
    t = pa.table({
        "k": pa.array(rng.integers(0, 37, n)),           # skewed sizes
        "v": pa.array(np.round(rng.uniform(0, 100, n), 1)),  # heavy ties
    })
    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    got = grouped_quantiles(
        ray.data.from_arrow(t).repartition(8), "k", "v", qs
    ).to_pandas()
    want = duckdb.sql(f"""
        WITH g AS (SELECT k, quantile_disc(v, {qs}) AS vs FROM t GROUP BY 1)
        SELECT k, unnest({qs}) AS q, unnest(vs) AS value FROM g
    """).df()
    g = sorted(map(tuple, got[["k", "q", "value"]].itertuples(index=False)))
    w = sorted(map(tuple, want[["k", "q", "value"]].itertuples(index=False)))
    assert g == w and len(g) == 37 * len(qs)


def test_value_quantiles_pipeline(ray_session, con):
    from rios_ray.pipelines.events import value_quantiles_per_type

    got = value_quantiles_per_type(SF, qs=(0.5,)).to_pandas()
    want = con.execute("""
        SELECT event_type, 0.5 AS q, quantile_disc(value, 0.5) AS value
          FROM events GROUP BY 1""").df()
    g = dict(zip(got["event_type"], got["value"]))
    w = dict(zip(want["event_type"], want["value"]))
    assert g == w and len(g) > 0


def test_funnel_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import HOUR_US, funnel_conversions

    for hours in (6, 72):
        got = funnel_conversions(SF, within_us=hours * HOUR_US).to_pandas()
        want = con.execute(f"""
            WITH c AS (SELECT user_id, ts FROM events WHERE event_type='click'),
            conv AS (SELECT c.user_id,
                     CASE WHEN EXISTS (SELECT 1 FROM events p
                           WHERE p.user_id = c.user_id AND p.event_type = 'purchase'
                             AND p.ts > c.ts
                             AND epoch_us(p.ts) - epoch_us(c.ts) <= {hours * HOUR_US})
                          THEN 1 ELSE 0 END AS cv
                FROM c)
            SELECT user_id, count(*) AS n_from,
                   CAST(sum(cv) AS BIGINT) AS n_converted
              FROM conv GROUP BY 1""").df()
        g = sorted(map(tuple, got[["user_id", "n_from", "n_converted"]].itertuples(index=False)))
        w = sorted(map(tuple, want[["user_id", "n_from", "n_converted"]].itertuples(index=False)))
        assert g == w and len(g) > 0


def test_window_anomalies_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import DEFAULT_WINDOW_US, window_anomalies

    W = DEFAULT_WINDOW_US
    got = window_anomalies(SF, sigma=1.5).to_pandas().sort_values(
        "window").reset_index(drop=True)
    want = con.execute(f"""
        WITH w AS (SELECT CAST(floor(epoch_us(ts)/{W}) AS BIGINT) AS "window",
                          count(*) AS n_events FROM events GROUP BY 1),
        s AS (SELECT CAST(sum(n_events) AS BIGINT) AS s,
                     CAST(sum(n_events*n_events) AS BIGINT) AS sq,
                     count(*) AS n FROM w)
        SELECT "window", n_events,
               (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE)/n)
               / sqrt(CAST(sq AS DOUBLE)/n - (CAST(s AS DOUBLE)/n)*(CAST(s AS DOUBLE)/n)) AS z
          FROM w, s
         WHERE (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE)/n)
               * (CAST(n_events AS DOUBLE) - CAST(s AS DOUBLE)/n)
             > {1.5 * 1.5!r} * (CAST(sq AS DOUBLE)/n - (CAST(s AS DOUBLE)/n)*(CAST(s AS DOUBLE)/n))
         ORDER BY 1""").df()
    assert got["window"].tolist() == want["window"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    np.testing.assert_array_equal(got["z"].to_numpy(), want["z"].to_numpy())


def test_retention_cohorts_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import retention_cohorts

    got = retention_cohorts(SF).to_pandas()
    want = con.execute(f"""
        WITH a AS (SELECT DISTINCT user_id,
                          CAST(floor(epoch_us(ts)/{W}) AS BIGINT) AS w FROM events),
        f AS (SELECT user_id, min(w) AS cohort FROM a GROUP BY 1)
        SELECT f.cohort, a.w - f.cohort AS "offset", count(*) AS n_users
          FROM a JOIN f USING (user_id) GROUP BY 1, 2""").df()
    g = sorted(map(tuple, got[["cohort", "offset", "n_users"]].itertuples(index=False)))
    w = sorted(map(tuple, want[["cohort", "offset", "n_users"]].itertuples(index=False)))
    assert g == w and len(g) > 0
    # offset 0 of every cohort counts the cohort's full size
    base = got[got["offset"] == 0].set_index("cohort")["n_users"]
    rest = got[got["offset"] > 0]
    assert (rest.set_index("cohort")["n_users"] <= base[rest["cohort"]].to_numpy()).all()


def test_event_type_bigrams_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.events import event_type_bigrams

    got = event_type_bigrams(SF).to_pandas()
    want = con.execute("""
        WITH s AS (SELECT user_id, event_type,
                          lead(event_type) OVER (PARTITION BY user_id
                                                 ORDER BY ts, event_id) AS nxt
                     FROM events)
        SELECT event_type AS type_a, nxt AS type_b, count(*) AS n
          FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2""").df()
    g = sorted(map(tuple, got[["type_a", "type_b", "n"]].itertuples(index=False)))
    w = sorted(map(tuple, want[["type_a", "type_b", "n"]].itertuples(index=False)))
    assert g == w and len(g) > 0
    # bigram total = events - distinct users (one chain per user)
    tot = con.execute("SELECT count(*) - count(DISTINCT user_id) FROM events").fetchone()[0]
    assert got["n"].sum() == tot


def test_funnel_fallback_path_matches_fast_path(ray_session):
    from rios_ray.pipelines.events import HOUR_US, funnel_conversions

    fast = funnel_conversions(SF, within_us=24 * HOUR_US).to_pandas()
    slow = funnel_conversions(SF, within_us=24 * HOUR_US,
                              force_per_user=True).to_pandas()
    f = sorted(map(tuple, fast.itertuples(index=False)))
    s = sorted(map(tuple, slow.itertuples(index=False)))
    assert f == s and len(f) > 0


def test_rolling_extrema_vs_duckdb(ray_session, con):
    """Per-user ROWS-window extrema == DuckDB window functions, bitwise
    (extrema are picks, no reduction-order hazard)."""
    got = (
        E.rolling_extrema(SF, k=5)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = con.sql("""
        SELECT event_id, user_id,
               max(value) OVER w AS roll_max,
               min(value) OVER w AS roll_min
          FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
         ORDER BY event_id
    """).df()
    assert got["event_id"].tolist() == want["event_id"].tolist()
    assert got["roll_max"].tolist() == want["roll_max"].tolist()
    assert got["roll_min"].tolist() == want["roll_min"].tolist()


def test_quantiles_sketch_exact_and_approximate(ray_session):
    """capacity >= group size -> sketch output EQUALS the exact grouped
    quantiles; a small capacity on a large synthetic group estimates
    every quantile within the O(n/sqrt(c)) rank bound."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.agg import grouped_quantiles, grouped_quantiles_sketch
    from rios_ray.pipelines.events import (
        value_quantiles_per_type,
        value_quantiles_sketch,
    )

    exact = (
        value_quantiles_per_type(SF)
        .to_pandas().sort_values(["event_type", "q"]).reset_index(drop=True)
    )
    sk = (
        value_quantiles_sketch(SF)  # default capacity >= every group
        .to_pandas().sort_values(["event_type", "q"]).reset_index(drop=True)
    )
    assert sk.equals(exact)

    # approximate configuration: one 20k-value group, capacity 512
    rng = np.random.default_rng(5)
    n, c = 20_000, 512
    vals = np.sort(rng.normal(0, 100, n))
    t = pa.table({
        "k": pa.array(["g"] * n),
        "v": pa.array(vals[rng.permutation(n)]),
        "rid": pa.array(np.arange(n, dtype=np.int64)),
    })
    qs = [0.1, 0.5, 0.9]
    got = (
        grouped_quantiles_sketch(
            ray.data.from_arrow(t).repartition(8), "k", "v", qs,
            capacity=c, id_col="rid",
        )
        .to_pandas().sort_values("q").reset_index(drop=True)
    )
    for q, est in zip(got["q"], got["value"]):
        true_rank = np.searchsorted(vals, est) / n
        assert abs(true_rank - q) < 5.0 / np.sqrt(c), (q, true_rank)


def test_value_deltas_vs_duckdb(ray_session, con):
    """LAG-window delta == DuckDB, bitwise (subtraction of stored
    doubles; first event per user pinned to exactly 0.0)."""
    got = (
        E.value_deltas(SF)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    want = con.sql("""
        SELECT event_id,
               value - COALESCE(lag(value) OVER w, value) AS delta
          FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
         ORDER BY event_id
    """).df()
    assert got["event_id"].tolist() == want["event_id"].tolist()
    assert got["delta"].tolist() == want["delta"].tolist()


def test_value_mean_per_type_bit_exact_vs_fsum(ray_session, con):
    """The distributed exact float sum equals DuckDB fsum bit-for-bit
    (order-independent), and the mean shares the one IEEE division."""
    import numpy as np

    from rios_ray.pipelines.events import value_mean_per_type

    got = value_mean_per_type(SF).to_pandas().sort_values(
        "event_type").reset_index(drop=True)
    want = con.execute("""
        SELECT event_type, count(*) AS n_events,
               fsum(value) AS sum_value,
               fsum(value) / count(*) AS mean_value
          FROM events GROUP BY 1 ORDER BY 1""").df()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert np.array_equal(got["sum_value"].to_numpy(),
                          want["sum_value"].to_numpy())
    assert np.array_equal(got["mean_value"].to_numpy(),
                          want["mean_value"].to_numpy())


def test_exact_float_sum_rejects_null_keys(ray_session):
    """pd.factorize encodes null keys as -1; the partial must refuse them
    rather than fold their buckets into an unrelated group (ADVICE r4)."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from rios_ray.functions.agg import grouped_exact_float_sum

    tbl = pa.table({
        "k": pa.array(["a", None, "b", "a"]),
        "v": pa.array([1.5, 2.5, 3.5, 4.5], type=pa.float64()),
    })
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(Exception, match="null"):
        grouped_exact_float_sum(ds, ["k"], "v").materialize()

    # and the non-null path still agrees with math.fsum
    import math
    tbl2 = pa.table({
        "k": pa.array(["a", "b", "a"]),
        "v": pa.array([0.1, 0.2, 0.3], type=pa.float64()),
    })
    out = grouped_exact_float_sum(
        ray.data.from_arrow(tbl2), ["k"], "v").to_pandas()
    got = dict(zip(out["k"], out["sum_value"]))
    assert got["a"] == math.fsum([0.1, 0.3])
    assert got["b"] == math.fsum([0.2])


def test_rename_aggregates_by_output_name():
    """Aggregate columns are renamed by pyarrow's output name, so the
    aggregates-first layout of older pyarrow lands on the same names."""
    import pyarrow as pa

    from rios_ray.functions.agg import rename_aggregates

    spec = [("qty", "sum"), ([], "count_all")]
    aggs_first = pa.table({"qty_sum": [5, 7], "count_all": [2, 1], "k": ["a", "b"]})
    out = rename_aggregates(aggs_first, spec, ["sq", "n"])
    assert out.column_names == ["sq", "n", "k"]
    assert out["k"].to_pylist() == ["a", "b"]
    assert out["sq"].to_pylist() == [5, 7]
    # repeated aggregates share an output name and keep their spec order
    dup = pa.Table.from_arrays([pa.array([2]), pa.array([2]), pa.array(["a"])],
                               names=["count_all", "count_all", "k"])
    out = rename_aggregates(dup, [([], "count_all")] * 2, ["n1", "n2"])
    assert out.column_names == ["n1", "n2", "k"]
    # the layout this pyarrow emits gives the same named columns
    t = pa.table({"k": ["a", "b", "a"], "qty": [1, 7, 4]})
    out = rename_aggregates(t.group_by(["k"]).aggregate(spec), spec, ["sq", "n"])
    assert sorted(zip(*(out[c].to_pylist() for c in ["k", "sq", "n"]))) == [
        ("a", 5, 2), ("b", 7, 1)]
