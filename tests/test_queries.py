"""Every registered query witnessed against its DuckDB oracle, through
the correctness tool's own comparison (``tools/check_correctness.py``),
and run without an actor pool."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import __ray_entry__ as entry  # noqa: E402
from tools.check_correctness import compare, oracle_connection, to_pandas  # noqa: E402

SF = entry.SF001
QUERIES = entry.queries()


@pytest.fixture(scope="module")
def oracle():
    con = oracle_connection(SF)
    yield con, entry.oracle_sql()
    con.close()


@pytest.mark.parametrize("name", list(QUERIES))
def test_query_matches_oracle(ray_session, ray_jobs, oracle, name):
    con, sql = oracle
    got = to_pandas(QUERIES[name](SF))
    verdict, problems = compare(got, con.sql(sql[name]).df())
    assert not problems, problems
    assert all(verdict.values()), verdict
    # per-process state lives in the task pool's stage cache
    # (util.stage_fn): no job spins up an actor pool
    actor_ops = [op.name for job in ray_jobs for op in job
                 if type(op).__name__ == "ActorPoolMapOperator"]
    assert not actor_ops, actor_ops
