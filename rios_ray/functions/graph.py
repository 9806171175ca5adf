"""Distributed connected components over an edge list.

The completion step of fuzzy dedup: near-duplicate PAIRS (from the
MinHash/SimHash/Jaccard pipelines) become duplicate CLUSTERS, and the
cluster id doubles as the canonical keep-id (min doc id of the
component) — the reference's "first wins" exact-dedup policy
(`/root/reference/rios/ratapplier.py` row-ordering semantics) lifted to
transitive near-duplicate groups.

Algorithm: iterative min-label propagation.  Every node starts labeled
with itself; each round every node takes the min of its own label and
its neighbors' labels, until no label changes.  One round is two keyed
exchanges expressed with the engine's existing primitives:

  1. attach each edge's source label (``partitioned_lookup_join`` —
     labels are unique per node), emitting (dst, src_label) messages;
  2. grouped min over messages + the node's own label
     (``hash_partitioned_groups`` with a vectorized reduceat kernel),
     which also reports whether any label changed this round.

Each round also runs one pointer-halving compression pass (attach each
node's label's label, take the min — another unique-keyed exchange), so
convergence is O(log diameter), not O(diameter): near-duplicate
clusters are shallow and finish in a couple of rounds, while
adversarially long chains (A~B~C~...) still converge well inside
``max_iters`` instead of aborting the job.  The label table is
materialized per round (one row per node *appearing in a pair* — small
relative to the corpus) so the lazy plan does not re-execute from
scratch each iteration.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import gather_final, hash_partitioned_groups
from .join import fits_broadcast, partitioned_lookup_join


def _min_label_merge(tbl: pa.Table) -> pa.Table:
    """Per-partition kernel: rows (node, label, is_self) -> one row per
    node with the min label and a changed flag vs the self label."""
    node = tbl["node"].to_numpy(zero_copy_only=False)
    label = tbl["label"].to_numpy(zero_copy_only=False)
    is_self = tbl["is_self"].to_numpy(zero_copy_only=False)
    order = np.argsort(node, kind="stable")
    node_s, label_s, self_s = node[order], label[order], is_self[order]
    bounds = np.flatnonzero(np.r_[True, node_s[1:] != node_s[:-1]])
    uniq = node_s[bounds]
    new = np.minimum.reduceat(label_s, bounds)
    # exactly one self row per node (labels are unique per node)
    sidx = np.flatnonzero(self_s == 1)
    prev = np.empty(len(uniq), dtype=label.dtype)
    prev[np.searchsorted(uniq, node_s[sidx])] = label_s[sidx]
    return pa.table(
        {
            "node": pa.array(uniq),
            "label": pa.array(new),
            "changed": pa.array((new < prev).astype(np.int8)),
        }
    )


def _local_components(tbl: pa.Table, max_iters: int) -> pa.Table:
    """Driver-side min-label solve over a (src, dst) bidirectional edge
    table — vectorized ``np.minimum.at`` rounds until fixed point."""
    src = tbl["src"].to_numpy(zero_copy_only=False)
    dst = tbl["dst"].to_numpy(zero_copy_only=False)
    nodes, src_idx = np.unique(src, return_inverse=True)
    dst_idx = np.searchsorted(nodes, dst)  # bidir => dst nodes ⊆ src nodes
    labels = nodes.copy()
    for _ in range(max_iters):
        new = labels.copy()
        np.minimum.at(new, dst_idx, labels[src_idx])
        # pointer doubling: follow label -> label-of-label to a fixed
        # point (labels are always ids of nodes in this table).  A
        # length-L chain collapses in one propagation round + O(log L)
        # cheap gathers, so convergence is O(log diameter), not
        # O(diameter) — long near-duplicate chains (A~B~C~...) finish
        # instead of exhausting max_iters.
        while True:
            nn = new[np.searchsorted(nodes, new)]
            if np.array_equal(nn, new):
                break
            new = nn
        if np.array_equal(new, labels):
            return pa.table({"node": pa.array(nodes), "cluster_id": pa.array(labels)})
        labels = new
    raise RuntimeError(f"components did not converge in {max_iters} rounds")


def connected_components(
    edges,
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    max_iters: int = 64,
):
    """Label every node of the (int64-keyed) pair graph with the min
    node id of its connected component.

    Returns a Dataset (node, cluster_id); a node whose id equals its
    cluster_id is the component's canonical representative.

    Strategy selection by the bidirectional edge table's size: a
    fuzzy-dedup pair graph is orders of magnitude smaller than the
    corpus, so while it :func:`~rios_ray.functions.join.fits_broadcast`
    the solve runs once, vectorized, on the driver — each distributed
    propagation round costs two keyed exchanges of fixed overhead,
    which dominates wall time at realistic pair counts (measured: 24 s
    -> ~9 s for the full minhash + clustering pipeline at sf0.1).  A
    larger graph takes per-round distributed min-label propagation.
    """
    import ray.data  # noqa: F401 — edges is a Dataset

    def bidir(b: pa.Table) -> pa.Table:
        a = b[col_a].cast(pa.int64()).combine_chunks()
        c = b[col_b].cast(pa.int64()).combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([a, c]), "dst": pa.concat_arrays([c, a])}
        )

    edges_bd = edges.map_batches(
        bidir, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    if fits_broadcast(edges_bd):
        return gather_final(edges_bd, lambda t: _local_components(t, max_iters))

    # initial labels: every node labels itself (per-batch dedup is the
    # combiner; the grouped min collapses cross-batch repeats)
    def self_rows(b: pa.Table) -> pa.Table:
        n = np.unique(b["src"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "node": pa.array(n),
                "label": pa.array(n),
                "is_self": pa.array(np.ones(len(n), dtype=np.int8)),
            }
        )

    def init_merge(tbl: pa.Table) -> pa.Table:
        n = np.unique(tbl["node"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "node": pa.array(n),
                "label": pa.array(n),
                "changed": pa.array(np.ones(len(n), dtype=np.int8)),
            }
        )

    labels = hash_partitioned_groups(
        edges_bd.map_batches(
            self_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["node"],
        init_merge,
    ).materialize()

    for _ in range(max_iters):
        # messages: (dst, label of src) — the label table is unique per
        # node, so this is the unique-keyed lookup join
        msgs = partitioned_lookup_join(
            edges_bd,
            labels,
            "src",
            "node",
            [("dst", pa.int64())],
            [("label", pa.int64(), "label")],
        )

        def msg_rows(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["dst"],
                    "label": b["label"],
                    "is_self": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
                }
            )

        def self_label_rows(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"],
                    "label": b["label"],
                    "is_self": pa.array(np.ones(b.num_rows, dtype=np.int8)),
                }
            )

        u = msgs.map_batches(
            msg_rows, batch_format="pyarrow", zero_copy_batch=True
        ).union(
            labels.map_batches(
                self_label_rows, batch_format="pyarrow", zero_copy_batch=True
            )
        )
        labels = hash_partitioned_groups(u, ["node"], _min_label_merge).materialize()

        # pointer-halving compression: attach each node's label's label
        # (labels are always ids of nodes present in the table) and take
        # the min — one extra unique-keyed exchange per round turns
        # O(diameter) convergence into O(log diameter), so long
        # near-duplicate chains finish instead of exhausting max_iters
        comp = partitioned_lookup_join(
            labels,
            labels,
            "label",
            "node",
            [("node", pa.int64()), ("label", pa.int64()), ("changed", pa.int8())],
            [("label", pa.int64(), "label2")],
        )

        def compress(b: pa.Table) -> pa.Table:
            lab = b["label"].to_numpy(zero_copy_only=False)
            lab2 = b["label2"].to_numpy(zero_copy_only=False)
            new = np.minimum(lab, lab2)
            changed = np.maximum(
                b["changed"].to_numpy(zero_copy_only=False),
                (new < lab).astype(np.int8),
            )
            return pa.table(
                {
                    "node": b["node"],
                    "label": pa.array(new),
                    "changed": pa.array(changed),
                }
            )

        labels = comp.map_batches(
            compress, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
        # tiny scalar: did any label move this round?
        if labels.sum("changed") == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            "(component diameter exceeds the cap; use hash-to-min)"
        )

    def out(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "cluster_id": b["label"]})

    return labels.map_batches(out, batch_format="pyarrow", zero_copy_batch=True)
