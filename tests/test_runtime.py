"""Checkpoint-resume runtime tests: lineage records, metrics, skip-on-
resume, and parity of a resumed run with the direct pipeline."""

import json
import os
import shutil

import pytest
import ray

from rios_ray import runtime
from rios_ray.pipelines.pages import flagship
from rios_ray.pipelines.resumable import finalize_flagship, resumable_flagship

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "ckpt")


def _counts(ds):
    df = ds.to_pandas().sort_values(["cell", "category"]).reset_index(drop=True)
    return list(zip(df["cell"], df["category"], df["n_pages"]))


def test_fresh_run_commits_all_partitions(ray_session, out_dir):
    res = resumable_flagship(SF, out_dir)
    assert res["skipped"] == []
    assert len(res["ran"]) >= 1
    manifest = res["manifest"]
    assert manifest.done() == set(res["ran"])
    # lineage records carry inputs + row/byte metrics
    rec = manifest.read(res["ran"][0])
    assert rec.inputs and rec.inputs[0].endswith(".parquet")
    assert rec.rows_out > 0
    assert rec.bytes_out > 0
    assert rec.wall_s >= 0
    # metrics actor saw every partition
    totals = ray.get(res["collector"].partition_totals.remote("flagship_partials"))
    assert set(totals) == set(res["ran"])
    # finalized result == direct pipeline (bit-identical counts)
    assert _counts(finalize_flagship(out_dir)) == _counts(flagship(SF))


def test_resume_skips_committed_and_redoes_missing(ray_session, out_dir):
    first = resumable_flagship(SF, out_dir)
    all_parts = set(first["ran"])
    victim = sorted(all_parts)[0]
    # simulate a crash: partition output written but record never committed
    first["manifest"].invalidate(victim)
    shutil.rmtree(os.path.join(out_dir, f"part={victim}"))

    second = resumable_flagship(SF, out_dir)
    assert second["ran"] == [victim]
    assert set(second["skipped"]) == all_parts - {victim}
    # the redone partition's metrics cover only that partition
    totals = ray.get(second["collector"].partition_totals.remote("flagship_partials"))
    assert set(totals) == {victim}
    assert _counts(finalize_flagship(out_dir)) == _counts(flagship(SF))


def test_manifest_atomic_commit(tmp_path):
    m = runtime.Manifest(str(tmp_path))
    assert m.done() == set()
    rec = runtime.LineageRecord(
        partition="p0", inputs=["a.parquet"], rows_out=5, bytes_out=100,
        wall_s=0.1, attempt=1, job_id="j", committed_at=0.0,
    )
    m.commit(rec)
    assert m.done() == {"p0"}
    back = m.read("p0")
    assert back == rec
    # no stray tmp files
    assert all(not f.endswith(".tmp") for f in os.listdir(m.dir))
    m.invalidate("p0")
    assert m.done() == set()
    m.invalidate("p0")  # idempotent


def test_lineage_record_is_json(tmp_path):
    m = runtime.Manifest(str(tmp_path))
    m.commit(runtime.LineageRecord("x", [], 0, 0, 0.0, 1, "j", 0.0, {"k": "v"}))
    with open(os.path.join(m.dir, "x.json")) as f:
        d = json.load(f)
    assert d["extra"] == {"k": "v"}


def test_global_int_sum_and_max(ray_session):
    """driver-side global sum/max helpers: exact values, zero-block
    safety (the empty frame of a zero-block dataset has no columns)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.agg import global_int_max, global_int_sum

    vals = np.array([5, -3, 7, 0, 11], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)}))
    assert global_int_sum(ds, "v") == int(vals.sum())
    assert global_int_max(ds, "v") == int(vals.max())

    # an all-filtered (possibly zero-block) dataset
    empty = ds.filter(lambda r: False)
    assert global_int_sum(empty, "v") == 0
    assert global_int_max(empty, "v") is None


def test_global_int_sum_overflow_raises(ray_session):
    """An int64 sum that leaves int64 raises instead of wrapping, both
    inside one block and across block partials; cancelling terms that
    pass the per-block bound still sum exactly."""
    import pyarrow as pa
    import pytest
    import ray.data

    from rios_ray.functions.agg import global_int_sum

    big = 2 ** 62
    one_block = ray.data.from_arrow(pa.table({"v": pa.array([big, big], pa.int64())}))
    with pytest.raises(OverflowError, match="int64"):
        global_int_sum(one_block, "v")
    two_blocks = ray.data.from_arrow([pa.table({"v": pa.array([big + k], pa.int64())})
                                      for k in (0, 1)])
    with pytest.raises(OverflowError, match="int64"):
        global_int_sum(two_blocks, "v")
    cancel = ray.data.from_arrow(pa.table({"v": pa.array([big, big, -big, -big], pa.int64())}))
    assert global_int_sum(cancel, "v") == 0
