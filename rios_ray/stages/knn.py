"""kNN as partial-top-k map_batches + tiny final merge (no big shuffle).

Semantics: for each of Q broadcast query points, the k nearest pages by
squared Euclidean degree distance, ties broken by (distance, url).

Scale shape: each batch emits at most Q*k candidate rows (its local
top-k per query), so the final ``groupby(qid)`` merge sees
Q * k * n_batches rows — independent of input size.  This is the
pre-aggregate-before-shuffle rule applied to top-k.  The alternative
scale path (per-worker cell-ring search over a co-partitioned index) is
:class:`rios_ray.spatial.CellPointIndex`.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from .skew import ranked_head_per_key


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
        # (n, Q) distance matrix — identical float expression to the SQL
        # oracle: (lon-qlon)*(lon-qlon) + (lat-qlat)*(lat-qlat)
        dlon = lon[:, None] - self.qlon[None, :]
        dlat = lat[:, None] - self.qlat[None, :]
        d2 = dlon * dlon + dlat * dlat
        k = min(self.k, len(lon))
        out_qid, out_idx, out_d2 = [], [], []
        for j in range(len(self.qid)):
            col = d2[:, j]
            if k < len(col):
                cand = np.argpartition(col, k - 1)[:k]
            else:
                cand = np.arange(len(col))
            out_qid.append(np.full(len(cand), self.qid[j], dtype=np.int64))
            out_idx.append(cand)
            out_d2.append(col[cand])
        # one Arrow take for every query's survivors — urls never
        # round-trip through Python objects
        urls = pc.take(
            batch["url"].combine_chunks(), pa.array(np.concatenate(out_idx))
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
    """Task-pool variant of :class:`KnnPartialStage`, built once per
    worker process per query ref (as stages.pip.pip_join_fn)."""
    import ray

    from ..util import cached_stage

    if not isinstance(queries, ray.ObjectRef):
        queries = ray.put(queries)
    return partial(cached_stage, "knn", (queries.hex(), k),
                   partial(KnnPartialStage, queries, k))


def ring_candidate_cells(qlon: float, qlat: float, res: int,
                         cell_counts: dict[int, int], k: int,
                         max_ring: int = 256) -> "np.ndarray":
    """Candidate cell set for an exact kNN query via ring expansion over
    a (small) per-cell count map — the driver-side planning step of the
    distributed cell-ring kNN.

    Guarantee: expand Chebyshev rings from the query's cell until rings
    0..r hold >= k points; any point in those rings is at Euclidean
    distance <= (r+1)*s*sqrt(2) (s = cell step), while a point beyond
    ring R is at distance >= (R-1)*s.  Taking
    R = ceil(1 + (r+1)*sqrt(2)) therefore covers every possible k-th
    nearest neighbour; the exact refine runs only on cells 0..R.
    (This is the reference's margin/halo trick — applier.py:253-268 —
    in key space, with a provable radius.)
    """
    import math

    from ..cells import grid_cell_id, grid_cell_ring

    qcell = int(grid_cell_id(np.array([qlon]), np.array([qlat]), res)[0])
    have = 0
    r = 0
    while r <= max_ring:
        ring_cells = grid_cell_ring(qcell, res, r)
        have += sum(cell_counts.get(int(c), 0) for c in ring_cells)
        if have >= k:
            break
        r += 1
    R = min(max_ring, math.ceil(1 + (r + 1) * math.sqrt(2.0)))
    out = [grid_cell_ring(qcell, res, rr) for rr in range(R + 1)]
    return np.concatenate(out)
