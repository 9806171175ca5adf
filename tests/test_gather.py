"""Driver-side bounded finals (``functions.agg.gather_final``): each
tiling pipeline runs once, its result (and q10's annotated top-k)
answers schema questions without a rerun, empty inputs give zero rows,
and a failing final keeps its exception type."""

import pyarrow as pa
import pytest
import ray

from rios_ray.functions.agg import gather_final, grouped_count
from rios_ray.stages.knn import knn_final_merge_all

SF = "/root/testdata/sf0.001"


def _flagship():
    from rios_ray.pipelines.pages import flagship

    return flagship(SF)


def _knn_cellring():
    from rios_ray.pipelines.pages import knn_pages_cellring

    return knn_pages_cellring(SF, k=10)


def _q10():
    from rios_ray.pipelines.relational import q10_returned_revenue

    return q10_returned_revenue(SF, k=15)


def test_flagship_runs_one_job(ray_session, ray_jobs):
    """Building and consuming the flagship is one Ray Data job, whose
    only map operator is the read fused with the geocode and everything
    after it: the html never leaves the read task."""
    ray.get(_flagship().to_arrow_refs())
    assert len(ray_jobs) == 1
    maps = [op.name for op in ray_jobs[0] if "Read" in op.name or "Map" in op.name]
    assert len(maps) == 1 and maps[0].startswith("ReadParquetRowGroups->MapBatches(geocells)"), maps


@pytest.mark.parametrize("pipeline", [_flagship, _knn_cellring, _q10],
                         ids=["flagship", "knn_pages_cellring", "q10"])
def test_result_schema_starts_no_job(ray_session, ray_jobs, pipeline):
    """A gathered result is in memory with a known schema: consuming it
    through ``to_arrow_refs`` (which asks for the schema) or asking for
    its schema or columns re-runs nothing."""
    ds = pipeline()
    ran = len(ray_jobs)
    tables = ray.get(ds.to_arrow_refs())
    assert ds.schema().names == ds.columns() == tables[0].column_names
    assert len(ray_jobs) == ran


def test_resumable_build_is_lazy(ray_session, ray_jobs):
    """A checkpoint shard's Dataset is built on the driver thread and
    executed in the window: building it must start no job."""
    import pyarrow.parquet as pq

    from rios_ray import synth
    from rios_ray.pipelines.pages import flagship_partials
    from rios_ray.runtime import shard_partitions

    parts = shard_partitions(synth.ensure_pages(SF))
    name = sorted(parts)[0]
    ppath, _ = synth.ensure_polygons()
    flagship_partials(SF, ray.put(pq.read_table(ppath)), paths=parts[name])
    assert ray_jobs == []


def _zero_blocks():
    return ray.data.from_arrow_refs([])


def _all_empty():
    return ray.data.range(4, override_num_blocks=4).filter(lambda r: False)


def _columnless():
    """A keyed exchange over no rows emits empty blocks without columns."""
    return grouped_count(_all_empty(), ["id"])


EMPTY = pytest.mark.parametrize("make", [_zero_blocks, _all_empty, _columnless],
                                ids=["zero-block", "all-empty", "column-less"])


@EMPTY
def test_tree_grouped_count_of_empty_input(ray_session, make):
    assert grouped_count(make(), ["id"], final_mode="tree").count() == 0


@EMPTY
def test_knn_merge_of_empty_input(ray_session, make):
    assert gather_final(make(), knn_final_merge_all(10)).count() == 0


def test_final_error_keeps_its_type(ray_session):
    def final(t: pa.Table) -> pa.Table:
        raise ValueError("bad final")

    with pytest.raises(ValueError, match="bad final") as info:
        gather_final(ray.data.range(4, override_num_blocks=2), final)
    assert not isinstance(info.value, ray.exceptions.RayError)
