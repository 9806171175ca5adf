"""kNN as partial-top-k map_batches + tiny final merge (no big shuffle).

Semantics: for each of Q broadcast query points, the k nearest pages by
squared Euclidean degree distance, ties broken by (distance, url).

Scale shape: each batch emits its local top-k per query (Q*k rows, plus
rows tied at the k-th distance), so the driver-side final merge sees
about Q * k * n_batches rows — independent of input size.  This is the
pre-aggregate-before-shuffle rule applied to top-k.  The alternative
scale path (per-worker cell-ring search over a co-partitioned index) is
:class:`rios_ray.spatial.CellPointIndex`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import stage_fn
from .skew import ranked_head_per_key


def local_topk(d2: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``d2`` and of every row tied with
    the k-th (NaN sorts last).  A partial keeps the whole tie: which of
    the tied rows survive is decided by ``url`` in the final merge, not
    by ``argpartition``'s arbitrary cut."""
    if k >= len(d2):
        return np.arange(len(d2))
    kth = np.partition(d2, k - 1)[k - 1]
    return np.arange(len(d2)) if np.isnan(kth) else np.flatnonzero(d2 <= kth)


class KnnPartialStage:
    """Stateless-ish batch stage holding the broadcast query matrix."""

    def __init__(self, queries, k: int = 10):
        import ray

        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        if isinstance(queries, pa.Table):
            self.qid = queries["qid"].to_numpy(zero_copy_only=False)
            self.qlon = queries["qlon"].to_numpy(zero_copy_only=False)
            self.qlat = queries["qlat"].to_numpy(zero_copy_only=False)
        else:
            self.qid, self.qlon, self.qlat = queries
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        out_qid, out_idx, out_d2 = [], [], []
        for j in range(len(self.qid)):
            # identical float expression to the SQL oracle:
            # (lon-qlon)*(lon-qlon) + (lat-qlat)*(lat-qlat)
            dlon = lon - self.qlon[j]
            dlat = lat - self.qlat[j]
            d2 = dlon * dlon + dlat * dlat
            top = local_topk(d2, self.k)
            out_qid.append(np.full(len(top), self.qid[j], dtype=np.int64))
            out_idx.append(top)
            out_d2.append(d2[top])
        # one Arrow take for every query's survivors — urls never
        # round-trip through Python objects
        urls = pc.take(
            batch["url"].combine_chunks(), pa.array(np.concatenate(out_idx), type=pa.int64())
        )
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_qid)),
                "url": urls.cast(pa.string()),
                "d2": pa.array(np.concatenate(out_d2), type=pa.float64()),
            }
        )


def knn_final_merge_all(k: int):
    """Final reduce over ALL qids at once: each query's ``k`` nearest
    by ``(d2, url)``, ranked from 1, in one Arrow sort.

    Replaces ``groupby("qid").map_groups`` — the keyed sort barrier
    costs ~1.6 s of fixed overhead per run on a result that is only
    ``|blocks| x |queries| x k`` rows.  Callers gather those partials
    to the driver (``functions.agg.gather_final``) while |queries| x k
    stays small."""

    def merge(t: pa.Table) -> pa.Table:
        return ranked_head_per_key(t, "qid", k, [("d2", "ascending"), ("url", "ascending")])

    return merge


def knn_partial_fn(queries, k: int = 10):
    """:class:`KnnPartialStage` as a task-pool function, built once per
    worker process per query ref (``util.stage_fn``)."""
    import ray

    if not isinstance(queries, ray.ObjectRef):
        queries = ray.put(queries)
    return stage_fn(KnnPartialStage, queries, k)
