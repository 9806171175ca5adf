"""Checkpoint-resume runtime tests: lineage records, skip-on-resume,
and parity of a resumed run with the direct pipeline."""

import asyncio
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from rios_ray import runtime
from rios_ray.pipelines.pages import flagship
from rios_ray.pipelines.resumable import finalize_flagship, resumable_flagship

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "ckpt")


def _table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _plan_ops(ds) -> list:
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.input_dependencies)
    return ops


def test_fresh_run_commits_all_partitions(ray_session, out_dir, monkeypatch):
    started = []  # the module of every actor class started during the run
    remote = ray.actor.ActorClass._remote

    def record(self, *args, **kwargs):
        started.append(self.__ray_metadata__.modified_class.__module__)
        return remote(self, *args, **kwargs)

    monkeypatch.setattr(ray.actor.ActorClass, "_remote", record)
    res = resumable_flagship(SF, out_dir)
    # the lineage record is the per-partition count: the run feeds no actor
    assert not [m for m in started if m.startswith("rios_ray")], started
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
    # lineage rows are the rows in each part= file's footer
    for name in res["ran"]:
        path = os.path.join(out_dir, f"part={name}", "part.parquet")
        assert manifest.read(name).rows_out == pq.read_metadata(path).num_rows
    # finalized result == direct pipeline, sorted by (cell, category)
    assert _table(finalize_flagship(out_dir)).equals(_table(flagship(SF)))


def test_resume_skips_committed_and_redoes_missing(ray_session, out_dir):
    first = resumable_flagship(SF, out_dir)
    fresh = _table(finalize_flagship(out_dir))
    all_parts = set(first["ran"])
    victim = sorted(all_parts)[0]
    # simulate a crash: partition output written but record never committed
    first["manifest"].invalidate(victim)
    shutil.rmtree(os.path.join(out_dir, f"part={victim}"))

    second = resumable_flagship(SF, out_dir)
    assert second["ran"] == [victim]
    assert set(second["skipped"]) == all_parts - {victim}
    resumed = _table(finalize_flagship(out_dir))
    assert resumed.equals(fresh)
    assert resumed.equals(_table(flagship(SF)))


def test_finalize_is_an_executed_dataset(ray_session, out_dir, ray_jobs):
    """The finalize folds on the driver and returns its table as an
    executed Dataset: consuming it starts no Ray Data job."""
    resumable_flagship(SF, out_dir)
    ray_jobs.clear()
    final = finalize_flagship(out_dir)
    assert _table(final).num_rows == final.count() > 0
    assert ray_jobs == []


def test_shard_build_is_exchange_free(ray_session):
    """One shard's build is a single fused map chain: its logical plan
    holds no all-to-all operator (Repartition, Sort, Aggregate)."""
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll

    from rios_ray import synth
    from rios_ray.pipelines.pages import flagship_partials

    _, inputs = sorted(runtime.shard_partitions(synth.ensure_pages(SF)).items())[0]
    polys_ref = ray.put(pq.read_table(synth.ensure_polygons()[0]))
    ds = flagship_partials(SF, polys_ref, paths=inputs)
    ops = _plan_ops(ds)
    assert not [op.name for op in ops if isinstance(op, AbstractAllToAll)]
    assert sorted(ds.columns()) == ["category", "cell", "n_pages"]


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


def test_global_int_sums(ray_session):
    """The driver-side exact-sum helper: exact values for array, count
    and product terms in one call; a zero-block input sums to 0 (its
    empty frame has no columns); so does a keyed-exchange output whose
    empty partitions are column-less blocks."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.agg import global_int_sums, hash_grouped_aggregate

    vals = np.array([5, -3, 7, 0, 11], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)}))

    def terms(b):
        return {"s": b["v"], "sq": (b["v"], b["v"]), "n": b.num_rows}

    assert global_int_sums(ds, terms) == {
        "s": int(vals.sum()), "sq": int((vals * vals).sum()), "n": len(vals)}

    # an all-filtered (possibly zero-block) dataset
    empty = ds.filter(lambda r: False)
    got = global_int_sums(empty, terms)
    assert (got["s"], got["sq"], got["n"]) == (0, 0, 0)

    # 2 keys over the exchange's 4 partitions (one per CPU): 2+ of its
    # blocks hold no columns
    keyed = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 1, 2], pa.int64()),
        "v": pa.array([2 ** 40, 3, 2 ** 40, 4], pa.int64())}))
    g = hash_grouped_aggregate(keyed, ["k"], [("v", "sum", "s")])
    assert global_int_sums(g, lambda b: {"s": b["s"]})["s"] == 2 ** 41 + 7
    assert g.max("s") == 2 ** 41


def test_global_int_sums_overflow_raises(ray_session):
    """A sum that leaves int64 raises, naming the term, both inside one
    block and across block partials, and so does a product term whose
    ``x*x`` leaves int64; cancelling terms past the int64 bound —
    plain or products — still sum exactly."""
    import pyarrow as pa
    import pytest
    import ray.data

    from rios_ray.functions.agg import global_int_sums

    def v_sum(b):
        return {"v": b["v"]}

    big = 2 ** 62
    one_block = ray.data.from_arrow(pa.table({"v": pa.array([big, big], pa.int64())}))
    with pytest.raises(OverflowError, match="'v'.*int64"):
        global_int_sums(one_block, v_sum)
    two_blocks = ray.data.from_arrow([pa.table({"v": pa.array([big + k], pa.int64())})
                                      for k in (0, 1)])
    with pytest.raises(OverflowError, match="'v'.*int64"):
        global_int_sums(two_blocks, v_sum)
    cancel = ray.data.from_arrow(pa.table({"v": pa.array([big, big, -big, -big], pa.int64())}))
    assert global_int_sums(cancel, v_sum)["v"] == 0

    wide = ray.data.from_arrow(pa.table({
        "x": pa.array([2 ** 40, 2 ** 40], pa.int64()),
        "y": pa.array([2 ** 40, -(2 ** 40)], pa.int64())}))
    with pytest.raises(OverflowError, match="'xx'.*int64"):
        global_int_sums(wide, lambda b: {"n": b.num_rows, "xx": (b["x"], b["x"])})
    got = global_int_sums(wide, lambda b: {"xy": (b["x"], b["y"]), "n": b.num_rows})
    assert got == {"xy": 0, "n": 2}


# --------------------------------------------------------------------------
# run_resumable over small synthetic partitions: window, footer-exact
# lineage, fault injection and resume
# --------------------------------------------------------------------------

ROWS = 1500
PARTS = {f"p{i}": [f"range-{i}"] for i in range(5)}


@ray.remote(num_cpus=0)
class _Barrier:
    """Opens once ``parties`` distinct partitions have arrived."""

    def __init__(self, parties: int):
        self.parties, self.seen, self.open = parties, set(), asyncio.Event()

    async def arrive(self, name: str, timeout_s: float) -> None:
        self.seen.add(name)
        if len(self.seen) >= self.parties:
            self.open.set()
        await asyncio.wait_for(self.open.wait(), timeout_s)


def _build(fail_run=(), fail_build=(), barrier=None):
    """Partition ``p<i>`` = ``range(ROWS)`` tagged with ``i``.  Names in
    ``fail_run`` raise inside their Ray Data job, names in ``fail_build``
    raise from ``build`` itself; with a ``barrier`` every partition waits
    (bounded) until two partitions are running."""

    def build(name, inputs):
        if name in fail_build:
            raise RuntimeError(f"injected build failure in {name}")
        i = int(name[1:])

        def tag(b: pa.Table) -> pa.Table:
            if barrier is not None:
                ray.get(barrier.arrive.remote(name, 30.0))
            if name in fail_run:
                raise RuntimeError(f"injected run failure in {name}")
            part = pa.array([i] * b.num_rows, pa.int64())
            return b.append_column("part", part).append_column("v", pc.multiply(b["id"], i))

        return ray.data.range(ROWS, override_num_blocks=2).map_batches(tag, batch_format="pyarrow")

    return build


def _part_files(out, name):
    pdir = os.path.join(out, f"part={name}")
    return sorted(os.path.join(pdir, f) for f in os.listdir(pdir) if f.endswith(".parquet"))


def _finalized(out) -> bytes:
    """Every committed partition's rows in one canonical Parquet image."""
    t = pa.concat_tables(pq.ParquetFile(f).read() for n in PARTS for f in _part_files(out, n))
    sink = pa.BufferOutputStream()
    pq.write_table(t.sort_by([("part", "ascending"), ("id", "ascending")]), sink)
    return sink.getvalue().to_pybytes()


def test_lineage_counts_equal_footers(ray_session, tmp_path):
    out = str(tmp_path / "out")
    res = runtime.run_resumable(PARTS, _build(), out)
    assert res["ran"] == list(PARTS) and res["skipped"] == []
    m = res["manifest"]
    for name in PARTS:
        rec = m.read(name)
        files = _part_files(out, name)
        assert rec.rows_out == sum(pq.read_metadata(f).num_rows for f in files) == ROWS
        assert rec.bytes_out == sum(os.path.getsize(f) for f in files)
        assert rec.attempt == 1
    # committed partitions leave no attempt marker or tmp file behind
    assert sorted(os.listdir(m.dir)) == sorted(f"{n}.json" for n in PARTS)


def test_window_runs_partitions_concurrently(ray_session, tmp_path):
    """Each partition blocks until two partitions are inside their jobs
    at once; a one-at-a-time loop times out in the barrier and fails."""
    barrier = _Barrier.remote(2)
    res = runtime.run_resumable(PARTS, _build(barrier=barrier), str(tmp_path / "out"))
    assert res["ran"] == list(PARTS)


def test_failed_partitions_resume_to_identical_output(ray_session, tmp_path):
    clean = str(tmp_path / "clean")
    runtime.run_resumable(PARTS, _build(), clean)

    out = str(tmp_path / "crash")
    with pytest.raises(Exception, match="injected run failure in p1"):
        runtime.run_resumable(PARTS, _build(fail_run={"p1"}, fail_build={"p3"}), out)
    m = runtime.Manifest(out)
    # the partitions in flight beside the failures still committed
    assert m.done() == set(PARTS) - {"p1", "p3"}
    for name in ("p1", "p3"):
        assert not os.path.exists(os.path.join(out, f"part={name}"))
    assert not [f for _, _, fs in os.walk(out) for f in fs if f.endswith(".tmp")]

    again = runtime.run_resumable(PARTS, _build(), out)
    assert again["ran"] == ["p1", "p3"]
    assert again["skipped"] == ["p0", "p2", "p4"]
    assert {n: m.read(n).attempt for n in PARTS} == {
        "p0": 1, "p1": 2, "p2": 1, "p3": 2, "p4": 1}
    assert _finalized(out) == _finalized(clean)
