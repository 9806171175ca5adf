"""The footer-planned Parquet source (``sources.parquet``) and the
per-process stage cache (``util.stage_fn``)."""

import functools
import os

import cloudpickle
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from rios_ray import synth
from rios_ray.sources.parquet import ParquetRowGroups, read_row_groups

SF = "sf0.01"  # synth keys the pages fixture by the sf directory name


def _table(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs())).combine_chunks()


def _by_url(t: pa.Table) -> pa.Table:
    return t.sort_by("url").combine_chunks()


def _write(path, n_groups: int, group_rows: int = 100, offset: int = 0) -> str:
    ids = np.arange(offset, offset + n_groups * group_rows)
    pq.write_table(pa.table({"url": [f"u{i:06d}" for i in ids], "x": ids}), path,
                   row_group_size=group_rows)
    return str(path)


@pytest.mark.parametrize("columns", [["url", "lang"], None], ids=["subset", "all"])
def test_table_equals_read_table(ray_session, columns):
    path = synth.ensure_pages(SF)
    got = _table(read_row_groups(path, columns))
    assert _by_url(got).equals(_by_url(pq.read_table(path, columns=columns)))


def test_non_parquet_files_ignored(ray_session, tmp_path):
    a = _write(tmp_path / "part-0.parquet", 2)
    b = _write(tmp_path / "part-1.parquet", 2, offset=200)
    (tmp_path / "_SUCCESS").write_text("400")
    (tmp_path / "notes.txt").write_text("not parquet")
    (tmp_path / ".part-2.parquet.tmp").write_text("partial write")
    assert ParquetRowGroups(str(tmp_path)).files == [a, b]
    assert read_row_groups(str(tmp_path)).count() == 400


def test_paths_mode_one_task_per_file():
    files = sorted(os.path.join(synth.ensure_pages(SF), f)
                   for f in os.listdir(synth.ensure_pages(SF)) if f.endswith(".parquet"))
    tasks = ParquetRowGroups(files[:2], ["html"], per_file=True).get_read_tasks(-1)
    assert [t.metadata.input_files for t in tasks] == [[files[0]], [files[1]]]
    assert [t.metadata.num_rows for t in tasks] == [pq.read_metadata(f).num_rows
                                                    for f in files[:2]]


def test_full_scan_runs_are_balanced(ray_session, tmp_path):
    """3 files x 7 row groups at 4 CPUs: 4 contiguous runs (one wave)
    whose row counts differ by at most one row group, covering every
    row once."""
    for i in range(3):
        _write(tmp_path / f"part-{i}.parquet", 7, offset=700 * i)
    src = ParquetRowGroups(str(tmp_path), ["x"])
    tasks = src.get_read_tasks(-1)
    rows = [t.metadata.num_rows for t in tasks]
    assert len(tasks) == int(ray.cluster_resources()["CPU"])
    assert sum(rows) == 2100 and max(rows) - min(rows) <= 100
    runs = [src.groups[r][:, :2].tolist() for r in src.runs()]
    assert sum(runs, []) == src.groups[:, :2].tolist()
    x = _table(read_row_groups(str(tmp_path), ["x"]))["x"].to_numpy()
    assert np.array_equal(np.sort(x), np.arange(2100))


def test_one_task_per_row_group_when_few(ray_session, tmp_path):
    _write(tmp_path / "a.parquet", 3)
    tasks = ParquetRowGroups(str(tmp_path / "a.parquet")).get_read_tasks(-1)
    assert [t.read_fn.args[0] for t in tasks] == [[(str(tmp_path / "a.parquet"), [g])]
                                                  for g in range(3)]
    assert [t.metadata.num_rows for t in tasks] == [100, 100, 100]


def test_single_row_group_file_one_task(ray_session, tmp_path):
    path = _write(tmp_path / "one.parquet", 1)
    assert len(ParquetRowGroups(path).get_read_tasks(-1)) == 1
    assert _table(read_row_groups(path)).equals(pq.read_table(path))


def test_read_is_one_fused_operator(ray_session, ray_jobs):
    """No sampling job and no block split: the read and the map after it
    run as one operator."""
    ds = read_row_groups(synth.ensure_pages(SF), ["url"]).map_batches(
        lambda b: b, batch_format="pyarrow")
    assert ds.count() == 60_000
    assert len(ray_jobs) == 1
    names = [op.name for op in ray_jobs[0]]
    assert any(n.startswith("ReadParquetRowGroups->MapBatches") for n in names), names
    assert not any("SplitBlocks" in n for n in names)


def test_building_flagship_partials_starts_no_job(ray_session, ray_jobs):
    from rios_ray.pipelines.pages import flagship_partials

    ppath, _ = synth.ensure_polygons()
    flagship_partials(SF, ray.put(pq.read_table(ppath)))
    assert ray_jobs == []


# --------------------------------------------------------------------------
# the per-process stage cache
# --------------------------------------------------------------------------


def _stage_fns():
    from rios_ray.pipelines.embeddings import _Assign
    from rios_ray.stages.knn import KnnPartialStage, knn_partial_fn
    from rios_ray.stages.multimodal import ResizeStage
    from rios_ray.stages.pip import PIPJoinStage, pip_join_fn
    from rios_ray.util import stage_fn

    polys = pq.read_table(synth.ensure_polygons()[0])
    queries = pq.read_table(synth.ensure_knn_queries())
    return [(PIPJoinStage, pip_join_fn(ray.put(polys), keep_cols=["cell"])),
            (KnnPartialStage, knn_partial_fn(ray.put(queries), 10)),
            (ResizeStage, stage_fn(ResizeStage, size=4)),
            (_Assign, stage_fn(_Assign, ray.put(np.eye(4))))]


def test_stage_built_once_across_task_copies(ray_session, monkeypatch):
    """Each task unpickles its own copy of the stage function; every copy
    must reach the one per-process cache (a by-value copy of the cache
    rebuilds the stage in every task)."""
    for cls, fn in _stage_fns():
        builds = []
        monkeypatch.setattr(cls, "__init__", lambda self, *a, **k: builds.append(1))
        monkeypatch.setattr(cls, "__call__", lambda self, b: b)
        blob = cloudpickle.dumps(fn)
        for _ in range(3):
            assert cloudpickle.loads(blob)("batch") == "batch"
        assert len(builds) == 1, cls.__name__


def test_one_build_per_worker(ray_session):
    """32 tasks on 4 CPUs: every worker process builds the stage once."""
    from rios_ray.util import stage_fn

    class BuildTag:
        """Labels every row with its process and its build (a local
        class, so the tasks carry it by value)."""

        def __init__(self):
            import uuid

            self.tag = f"{os.getpid()}:{uuid.uuid4().hex}"

        def __call__(self, b: pa.Table) -> pa.Table:
            return pa.table({"tag": [self.tag] * b.num_rows})

    ds = ray.data.range(64, override_num_blocks=32).map_batches(
        stage_fn(BuildTag), batch_format="pyarrow")
    tags = set(_table(ds)["tag"].to_pylist())
    pids = {t.split(":")[0] for t in tags}
    assert len(tags) == len(pids)


def test_cache_keeps_latest_build_per_kind():
    from rios_ray import util

    calls = []

    def build(tag):
        calls.append(tag)
        return lambda b: tag

    for key in ["a", "a", "b", "b", "a"]:
        assert util.cached_stage("test-kind", key, functools.partial(build, key), None) == key
    assert calls == ["a", "b", "a"]
    assert util._STAGES["test-kind"][0] == "a"
    del util._STAGES["test-kind"]


def test_file_argument_keyed_by_its_version(tmp_path):
    """A stage side given as a path is keyed by path, size and mtime: the
    same file is one key across calls, a rewritten one a new key."""
    from rios_ray.stages.pip import PIPJoinStage
    from rios_ray.util import stage_fn

    path = tmp_path / "layer.parquet"
    path.write_bytes(b"v1")

    def key():  # building the function builds no stage
        return stage_fn(PIPJoinStage, path).args[1]

    first = key()
    assert key() == first
    os.utime(path, ns=(0, 1))
    assert key() != first


def test_flagship_builds_pip_index_once_per_worker(ray_session, tmp_path, monkeypatch):
    """The flagship passes its polygon layer by path, so two calls at 4
    CPUs build the PIP index at most once per worker: at most 4 builds,
    not one per worker per call.  Every build leaves a file in
    ``tmp_path`` (the counting subclass travels by value)."""
    import uuid

    from rios_ray.pipelines.pages import flagship
    from rios_ray.stages import pip

    class CountedPIPJoinStage(pip.PIPJoinStage):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            (tmp_path / uuid.uuid4().hex).touch()

    monkeypatch.setattr(pip, "PIPJoinStage", CountedPIPJoinStage)
    first, second = (_table(flagship(SF)) for _ in range(2))
    # the driver-side combine sorts by (cell, category): two calls agree row for row
    assert second.equals(first)
    assert first.equals(first.sort_by([("cell", "ascending"), ("category", "ascending")]))
    assert 1 <= len(list(tmp_path.iterdir())) <= int(ray.cluster_resources()["CPU"])
