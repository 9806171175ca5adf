"""The page kNN stage (``stages.knn``): each block's partial keeps every
row tied at the k-th distance, so the merged partials are the exact
top-k by ``(d2, url)`` — on the ±180° seam, at the poles, in blocks
smaller than k and with null coordinates."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rios_ray.stages.knn import KnnPartialStage, knn_final_merge_all


def _block(lon, lat, urls):
    """A block as ``geocells(url=True)`` emits it: null coordinates are
    Arrow nulls."""
    return pa.table({"url": pa.array(urls, pa.string()),
                     "lon": pa.array(np.asarray(lon, np.float64), from_pandas=True),
                     "lat": pa.array(np.asarray(lat, np.float64), from_pandas=True)})


def _knn(queries, blocks, k):
    stage = KnnPartialStage(queries, k)
    return knn_final_merge_all(k)(pa.concat_tables([stage(b) for b in blocks]))


def _brute(queries, lon, lat, urls, k):
    """Per query: ``(url, d2)`` of the k first rows by ``(d2, url)``,
    a null distance last."""
    qid, qlon, qlat = queries
    out = {}
    for j, q in enumerate(qid):
        d2 = (lon - qlon[j]) * (lon - qlon[j]) + (lat - qlat[j]) * (lat - qlat[j])
        order = sorted(range(len(urls)), key=lambda i: (np.isnan(d2[i]), d2[i], urls[i]))
        out[int(q)] = [(urls[i], d2[i]) for i in order[:k]]
    return out


def test_tied_rows_ranked_by_url():
    """15 pages at one point, urls in descending order, k=10: the
    nearest ten are u00..u09, whatever the partition order."""
    urls = [f"u{i:02d}" for i in range(14, -1, -1)]
    queries = (np.array([0]), np.array([10.0]), np.array([20.0]))
    block = _block([10.5] * 15, [20.5] * 15, urls)
    got = _knn(queries, [block], 10)
    assert got["url"].to_pylist() == [f"u{i:02d}" for i in range(10)]
    assert got["rank"].to_pylist() == list(range(1, 11))


LON = st.one_of(st.sampled_from([-180.0, 180.0, -179.9, 179.9, 0.0, np.nan, 181.5]),
                st.floats(-180.0, 180.0))
LAT = st.one_of(st.sampled_from([-90.0, 90.0, -89.9, 89.9, 0.0, np.nan, -91.5]),
                st.floats(-90.0, 90.0))
Q_LON = st.one_of(st.sampled_from([-180.0, 180.0, -179.9, 179.9]), st.floats(-180.0, 180.0))
Q_LAT = st.one_of(st.sampled_from([-90.0, 90.0, -89.9, 89.9]), st.floats(-90.0, 90.0))


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(LON, LAT), max_size=60),
    queries=st.lists(st.tuples(Q_LON, Q_LAT), min_size=1, max_size=4),
    k=st.integers(1, 12),
    block_rows=st.integers(1, 25),
)
# across the seam: d2 does not wrap, so the row 0.05° west of -180 is
# 359.95° away and the nearest is the one on the query's side
@example(points=[(-179.95, 0.0), (179.9 - 7.0, 0.0)], queries=[(179.9, 0.0)],
         k=1, block_rows=2)
# null rows sort after every real row, also in a block of their own
@example(points=[(np.nan, np.nan)] * 3 + [(-170.0, 80.0)], queries=[(-180.0, 90.0)],
         k=1, block_rows=3)
def test_partial_stage_equals_brute_force(points, queries, k, block_rows):
    """Every block's top-k, merged, is the brute-force top-k by
    ``(d2, url)`` over all rows."""
    lon = np.array([p[0] for p in points], np.float64)
    lat = np.array([p[1] for p in points], np.float64)
    urls = [f"p{i:03d}" for i in range(len(points))]
    q = (np.arange(len(queries), dtype=np.int64),
         np.array([p[0] for p in queries]), np.array([p[1] for p in queries]))
    blocks = [_block(lon[i:i + block_rows], lat[i:i + block_rows], urls[i:i + block_rows])
              for i in range(0, max(len(points), 1), block_rows)]
    want = _brute(q, lon, lat, urls, k)
    got = _knn(q, blocks, k)
    for j in q[0]:
        rows = got.filter(pc.equal(got["qid"], j))
        assert rows["url"].to_pylist() == [u for u, _ in want[j]]
        np.testing.assert_array_equal(rows["d2"].to_numpy(), [d for _, d in want[j]])
        assert rows["rank"].to_pylist() == list(range(1, len(want[j]) + 1))
