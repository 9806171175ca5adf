"""Pages-pipeline extras: the GROUPING SETS cube (multi-level rollup
derived from one finest-level aggregate pass)."""

import duckdb
import pytest

from rios_ray import synth

SF = "/root/testdata/sf0.001"


def test_pages_cube_vs_duckdb(ray_session):
    from rios_ray.pipelines.pages import pages_cube

    got = (
        pages_cube(SF)
        .to_pandas()
        .sort_values(["lang", "tld"])
        .reset_index(drop=True)
    )
    pages = synth.ensure_pages(SF)
    want = duckdb.sql(f"""
        WITH b AS (
            SELECT lang,
                   regexp_extract(
                       regexp_extract(url, '^[a-z]+://([^/]+)', 1),
                       '\\.([a-z]+)$', 1) AS tld
              FROM read_parquet('{pages}/*.parquet')
        )
        SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(tld, 'ALL') AS tld,
               CAST(count(*) AS BIGINT) AS n_pages
          FROM b GROUP BY GROUPING SETS ((lang, tld), (lang), (tld), ())
         ORDER BY lang, tld
    """).df()
    assert got["lang"].tolist() == want["lang"].tolist()
    assert got["tld"].tolist() == want["tld"].tolist()
    assert got["n_pages"].tolist() == want["n_pages"].tolist()
    # internal consistency: the grand total equals the sum of the
    # finest level, and each lang roll-up equals the sum of its tlds
    fin = got[(got.lang != "ALL") & (got.tld != "ALL")]
    grand = got[(got.lang == "ALL") & (got.tld == "ALL")]["n_pages"].iloc[0]
    assert fin["n_pages"].sum() == grand
    for lang, grp in fin.groupby("lang"):
        roll = got[(got.lang == lang) & (got.tld == "ALL")]["n_pages"].iloc[0]
        assert grp["n_pages"].sum() == roll


def test_host_crawl_sessions_vs_duckdb(ray_session):
    import duckdb as ddb

    from rios_ray.pipelines.pages import host_crawl_sessions

    gap = 20 * 86_400 * 1_000_000
    got = (
        host_crawl_sessions(SF, gap_us=gap)
        .to_pandas()
        .sort_values(["host", "session_id"])
        .reset_index(drop=True)
    )
    pages = synth.ensure_pages(SF)
    want = ddb.sql(f"""
        WITH p AS (
            SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                   epoch_us(warc_ts) AS e
              FROM read_parquet('{pages}/*.parquet')),
        marked AS (
            SELECT host, e,
                   CASE WHEN lag(e) OVER w IS NULL OR e - lag(e) OVER w > {gap}
                        THEN 1 ELSE 0 END AS new_sess
              FROM p WINDOW w AS (PARTITION BY host ORDER BY e)),
        sess AS (
            SELECT host, e,
                   CAST(sum(new_sess) OVER (PARTITION BY host ORDER BY e)
                        AS BIGINT) - 1 AS session_id
              FROM marked)
        SELECT host, session_id, count(*) AS n_pages,
               min(e) AS t_start, max(e) AS t_end
          FROM sess GROUP BY host, session_id
         ORDER BY host, session_id
    """).df()
    for c in ("host", "session_id", "n_pages", "t_start", "t_end"):
        assert got[c].tolist() == want[c].tolist(), c
    assert (got.groupby("host")["session_id"].min() == 0).all()
    assert (got["n_pages"] > 1).any()  # gap actually groups on the fixture


def test_cell_band_math_vs_duckdb(ray_session):
    """RIOS band-math analogue: per-cell category counts as bands,
    exact int diff + single-division ratio, vs the driver oracle."""
    import sys

    import numpy as np

    sys.path.insert(0, "/root/repo")
    import duckdb

    import __ray_entry__ as entrymod

    got = entrymod.queries()["cell_band_math"](SF).to_pandas()
    sql = entrymod.oracle_sql()["cell_band_math"].replace(
        entrymod._pages_sql(), entrymod._pages_sql(SF)
    )
    want = duckdb.sql(sql).df()
    assert len(got) == len(want) > 0
    cols = ["cell", "n_a", "n_b", "band_diff", "band_ratio"]
    g = got[cols].sort_values("cell").reset_index(drop=True)
    w = want[cols].sort_values("cell").reset_index(drop=True)
    for c in cols[:-1]:
        assert g[c].tolist() == w[c].tolist(), c
    assert np.array_equal(g["band_ratio"].to_numpy(),
                          w["band_ratio"].to_numpy())  # bitwise
    # internal consistency: the bands reconstruct the emitted math
    assert (g["band_diff"] == g["n_a"] - g["n_b"]).all()
    assert np.array_equal(g["band_ratio"].to_numpy(),
                          g["n_a"].to_numpy() / g["n_b"].to_numpy())


@pytest.mark.parametrize("name", ["geocode_cells", "s2_cells", "hex_cells", "cell_counts"])
def test_tokenless_page_has_null_cells(ray_session, tmp_path, monkeypatch, name):
    """A page without a ``geo:`` token has NaN coordinates and a NULL
    cell in every family, as in the oracle SQL, not a real cell id."""
    import os
    import sys

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod
    from tools.check_correctness import compare, to_pandas

    pages = pq.read_table(synth.ensure_pages(SF)).slice(0, 40)
    tokenless = pages.slice(3, 1)
    for col in ("html", "text"):
        stripped = pc.replace_substring_regex(
            tokenless[col].cast(pa.string()), r"geo:\S+", "").cast(tokenless[col].type)
        tokenless = tokenless.set_column(tokenless.schema.get_field_index(col), col, stripped)
    pages = pa.concat_tables([pages.slice(0, 3), tokenless, pages.slice(4)])

    sql, base_sql = entrymod.oracle_sql()[name], entrymod._pages_sql()
    monkeypatch.setattr(synth, "PAGES_ROOT", str(tmp_path))
    sf = "sf0.00004"
    os.makedirs(synth.pages_path(sf))
    pq.write_table(pages, os.path.join(synth.pages_path(sf), "part-00000.parquet"))
    open(os.path.join(synth.pages_path(sf), "_SUCCESS"), "w").close()

    got = to_pandas(entrymod.queries()[name](sf))
    want = duckdb.sql(sql.replace(base_sql, entrymod._pages_sql(sf))).df()
    verdict, problems = compare(got, want)
    assert not problems, problems
    col = {"s2_cells": "s2_cell", "hex_cells": "hex_cell"}.get(name, "cell")
    assert got[col].isna().sum() == want[col].isna().sum() == 1
