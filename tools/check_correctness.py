"""Driver-simulator: run queries() vs oracle_sql() side by side at sf0.01.

Mirrors the graft driver's correctness gate: row count + schema (column
names) + order-insensitive value hash, under the same engine session
(``rios_ray.session``) as ``bench.py``.  Usage::

    python tools/check_correctness.py [sf_dir] [query ...]
    python tools/check_correctness.py [sf_dir] --window   # first 50 only

One human-readable line per query, then, as the final stdout line, one
JSON object ``{query: {rows_match, schema_match, hash_match, spark_rows,
oracle_rows, err}}`` in the ``CORRECTNESS_rNN.json`` ledger schema
(match fields are null for a query without an oracle, or one that
raised).  The exit status is the number of failing queries.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> tuple[dict, list[str]]:
    """The ledger's match fields for one query, and what differs."""
    verdict = {
        "rows_match": len(ray_df) == len(sql_df),
        "schema_match": sorted(ray_df.columns) == sorted(sql_df.columns),
        "hash_match": False,
    }
    problems = []
    if not verdict["schema_match"]:
        problems.append(f"schema: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return verdict, problems
    if not verdict["rows_match"]:
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
        return verdict, problems
    a, b = canon(ray_df), canon(sql_df)
    for col in a.columns:
        av, bv = a[col], b[col]
        try:
            # Dtype-strict, like the gate's value hash: an int64 Ray
            # column vs a float64 (HUGEINT-derived) oracle column is a
            # FAIL even when the values coerce equal.
            if av.dtype != bv.dtype:
                problems.append(
                    f"dtype mismatch in column {col!r}: "
                    f"ray={av.dtype} sql={bv.dtype}"
                )
                continue
            if av.dtype.kind == "f":
                if not np.array_equal(
                    av.to_numpy(dtype=float), bv.to_numpy(dtype=float), equal_nan=True
                ):
                    problems.append(f"values differ in column {col!r}")
            else:
                if not av.astype(object).equals(bv.astype(object)):
                    problems.append(f"values differ in column {col!r}")
        except Exception as e:  # noqa: BLE001
            problems.append(f"compare error in {col!r}: {e}")
    verdict["hash_match"] = not problems
    return verdict, problems


def oracle_connection(sf_dir: str) -> duckdb.DuckDBPyConnection:
    """DuckDB with one view per ``sf_dir/*.parquet`` table, named by file."""
    con = duckdb.connect()
    for t in glob.glob(os.path.join(sf_dir, "*.parquet")):
        name = os.path.splitext(os.path.basename(t))[0]
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{t}')")
    return con


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--window"]
    window_only = "--window" in sys.argv
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ray

    import __ray_entry__ as entrymod
    from rios_ray import session

    session.init(num_cpus=8)
    qs = entrymod.queries()
    if window_only:  # exactly what the driver gates: the first 50 entries
        qs = dict(list(qs.items())[:50])
    oracles = entrymod.oracle_sql()

    con = oracle_connection(sf_dir)

    ledger: dict[str, dict] = {}
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        row = dict(rows_match=None, schema_match=None, hash_match=None,
                   spark_rows=None, oracle_rows=None, err=None)
        problems: list[str] = []
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
            row["spark_rows"] = len(ray_df)
            if name in oracles:
                sql_df = con.sql(oracles[name]).df()
                row["oracle_rows"] = len(sql_df)
                verdict, problems = compare(ray_df, sql_df)
                row.update(verdict)
        # one raising query is a FAIL row, not the end of the ledger
        except Exception as e:  # noqa: BLE001
            row["err"] = f"{type(e).__name__}: {e}"
            problems = [row["err"]]
        ledger[name] = row
        status = "FAIL" if problems else ("OK " if name in oracles else "rows-only")
        print(
            f"  {name:28s} {status} rows={row['spark_rows']}  ({time.time() - t0:.1f}s)"
            + ("" if not problems else f"  -> {problems}")
        )
        failures += bool(problems)
    ray.shutdown()
    print(json.dumps(ledger))
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
