"""Similarity search + embedding near-dup over the embeddings table.

Scale strategy (the design constraint, per BASELINE north rule):

- kNN brute-force (`knn_embeddings`): the *small-query-side broadcast*
  pattern — the query matrix is ``ray.put`` once and read by every
  batch task; each batch does ONE numpy matmul and emits only its local
  top-k per query (k x n_queries rows per batch), so the final
  ``groupby(qid)`` shuffle moves O(batches * k * q) candidate rows, not
  the dataset.  Mirrors RIOS's broadcast-side lookups
  (/root/reference/rios/rat.py:326-354 — small side shipped, big side
  streamed).
- kNN IVF (`knn_embeddings_ivf`): the scale path — seeded k-means
  centroids (driver-side, from a bounded sample) broadcast once and
  held in each worker's stage cache (``util.stage_fn``); each batch
  scores only rows whose centroid falls in the query's ``nprobe``
  nearest centroids, cutting the matmul by ~nprobe/nlist.
  Approximate => no SQL oracle (tests assert recall vs brute force).
- near-dup exact (`cosine_neardup`): all-pairs via broadcast of the
  full normalized matrix — the O(n^2) *baseline*, correct at any scale
  where one side fits a worker (it is the verify kernel, not the scan).
- near-dup LSH (`cosine_neardup_lsh`): the scale path — random
  hyperplane signatures, banded like MinHash; the band exchange moves
  only 20-byte (band, key, vec_id) rows, candidate pairs are deduped
  across bands, and the exact-cosine verify attaches each normalized
  vector ONCE per lookup-join exchange (not once per band row), so
  output == exact wherever recall is 1.  Default 16 bands x 8 bits: per-hyperplane agreement for a
  cosine-c pair is p = 1 - acos(c)/pi, so a 0.96-cosine pair
  (p=0.91, band hit p^8=0.47) is missed with probability
  (1-0.47)^16 ~= 4e-5; pairs hovering near threshold 0.8 (p=0.80)
  miss at ~6% — raise n_bands when borderline pairs matter.

The near-dup corpus augments the raw table (random unit vectors, max
natural pairwise cosine ~0.51 at sf0.01) with deterministic perturbed
copies of every 10th vector (cosine ~0.96 to their original), derived
from the same parquet by both engine and DuckDB oracle — no side files.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.agg import gather_final
from ..sources.embeddings import batch_matrix, embeddings_file, read_embeddings
from ..stages.skew import ranked_head_per_key
from ..util import stage_fn

BATCH_SIZE = 2048
EMB_COPY_OFFSET = 1_000_000
EMB_DIM = 64
PERTURB_SCALE = 0.05
DEFAULT_K = 10
QUERY_MOD = 50  # vec_id % QUERY_MOD == 0 -> query vector

# mirrored by the oracle; DuckDB list lambdas index from 1, matched below
NEARDUP_CORPUS_SQL = f"""
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {EMB_COPY_OFFSET} AS vec_id,
           list_transform(embedding, (x, i) ->
               CAST(x AS DOUBLE) + {PERTURB_SCALE} * sin(CAST(vec_id * {EMB_DIM} + i AS DOUBLE)))
      FROM embeddings WHERE vec_id % 10 = 0
"""


def _perturb(ids: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Deterministic perturbation, bit-matching the SQL (i is 1-based)."""
    i = np.arange(1, mat.shape[1] + 1, dtype=np.float64)
    return mat + PERTURB_SCALE * np.sin(ids[:, None] * EMB_DIM + i[None, :])


def neardup_corpus(sf_dir: str) -> ray.data.Dataset:
    """embeddings plus perturbed copies of every 10th vector."""
    base = read_embeddings(sf_dir, columns=["vec_id", "embedding"])

    def copies(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        keep = ids % 10 == 0
        ids = ids[keep].astype(np.float64)
        mat = batch_matrix(b["embedding"])[keep]
        mat = _perturb(ids, mat)
        return pa.table(
            {
                "vec_id": pa.array(ids.astype(np.int64) + EMB_COPY_OFFSET),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(mat.ravel()), mat.shape[1]
                ),
            }
        )

    shifted = read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        copies, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    return base.union(shifted)


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _load_matrix(sf_dir: str, where_mod: int | None = None):
    """Driver-side bounded read of the (small) broadcast side."""
    import pyarrow.parquet as pq

    t = pq.read_table(embeddings_file(sf_dir), columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = batch_matrix(t["embedding"])
    if where_mod is not None:
        keep = ids % where_mod == 0
        ids, mat = ids[keep], mat[keep]
    return ids, mat


def _corpus_matrix(sf_dir: str):
    """ids + normalized matrix of the near-dup corpus (base + copies)."""
    ids, mat = _load_matrix(sf_dir)
    keep = ids % 10 == 0
    cids = ids[keep]
    cmat = _perturb(cids.astype(np.float64), mat[keep])
    all_ids = np.concatenate([ids, cids + EMB_COPY_OFFSET])
    all_mat = np.concatenate([mat, cmat])
    return all_ids, _normalize(all_mat)


# --- kNN: brute-force baseline -------------------------------------------


class _BatchTopK:
    """Local top-k per query per batch.

    The query matrix comes in via an object-store ref — fetched once per
    worker process (``__init__``), never per batch.
    """

    def __init__(self, qref, k: int):
        self.qids, self.q = ray.get(qref)  # (nq,), (nq, dim) normalized
        self.k = k

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        mat = _normalize(batch_matrix(b["embedding"]))
        scores = mat @ self.q.T  # (n, nq)
        k = min(self.k, len(ids))
        top = np.argpartition(-scores, k - 1, axis=0)[:k]  # (k, nq)
        nq = len(self.qids)
        return pa.table(
            {
                "qid": pa.array(np.tile(self.qids, k)),
                "vec_id": pa.array(ids[top].ravel()),
                "cos": pa.array(np.take_along_axis(scores, top, axis=0).ravel()),
            }
        )


def _merge_topk(cands: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """Final top-k merge shared by all ANN paths: the candidate volume
    is bounded by k x n_blocks x n_queries, so gather it to the driver
    (:func:`~rios_ray.functions.agg.gather_final`) and rank every query
    in one Arrow sort — the vectorized-merge shape of
    ``pages.py::knn_pages`` (BASELINE.md lesson 4), replacing the
    per-group sort barrier ``groupby(qid).map_groups`` paid in rounds
    1-2.  Per qid: cos descending, vec_id ascending."""
    order = [("cos", "descending"), ("vec_id", "ascending")]
    return gather_final(cands, lambda t: ranked_head_per_key(t, "qid", k, order)
                        .select(["qid", "vec_id", "rank"]))


def knn_embeddings(sf_dir: str, k: int = DEFAULT_K) -> ray.data.Dataset:
    """(qid, vec_id, rank): exact cosine top-k of every query vector
    (vec_id % 50 == 0) over the full table.  Rank-only output: DuckDB's
    float32 cosine differs from numpy float64 at ~1e-7 but rank gaps in
    the fixture are ~1e-5, so ranks are stable across engines."""
    qids, qmat = _load_matrix(sf_dir, where_mod=QUERY_MOD)
    qref = ray.put((qids, _normalize(qmat)))
    cands = read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        stage_fn(_BatchTopK, qref, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return _merge_topk(cands, k)


# --- kNN: IVF scale path --------------------------------------------------


def _kmeans(mat: np.ndarray, nlist: int, iters: int = 10, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cent = mat[rng.choice(len(mat), nlist, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for c in range(nlist):
            m = assign == c
            if m.any():
                v = mat[m].mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    return cent


class _IVFTopK:
    def __init__(self, qref, k: int):
        self.qids, self.q, self.cent, self.probe = ray.get(qref)
        self.k = k

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        mat = _normalize(batch_matrix(b["embedding"]))
        assign = np.argmax(mat @ self.cent.T, axis=1)  # (n,)
        out_q, out_v, out_c = [], [], []
        for j, qid in enumerate(self.qids):
            mask = np.isin(assign, self.probe[j])
            if not mask.any():
                continue
            sub = mat[mask] @ self.q[j]
            k = min(self.k, len(sub))
            top = np.argpartition(-sub, k - 1)[:k]
            out_q.append(np.full(k, qid, dtype=np.int64))
            out_v.append(ids[mask][top])
            out_c.append(sub[top])
        if not out_q:
            return pa.table(
                {
                    "qid": pa.array([], type=pa.int64()),
                    "vec_id": pa.array([], type=pa.int64()),
                    "cos": pa.array([], type=pa.float64()),
                }
            )
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "cos": pa.array(np.concatenate(out_c)),
            }
        )


def knn_embeddings_ivf(
    sf_dir: str,
    k: int = DEFAULT_K,
    nlist: int = 16,
    nprobe: int = 4,
    sample_rows: int = 20_000,
) -> ray.data.Dataset:
    """Approximate top-k: probe the ``nprobe`` nearest of ``nlist``
    k-means cells.  Centroids are trained on a driver-side bounded
    sample and broadcast once; at scale ``sample_rows`` stays fixed
    while the scan streams."""
    ids, mat = _load_matrix(sf_dir)
    train = _normalize(mat[:sample_rows])
    cent = _kmeans(train, nlist)
    qids, qmat = _load_matrix(sf_dir, where_mod=QUERY_MOD)
    qn = _normalize(qmat)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    qref = ray.put((qids, qn, cent, probe))
    cands = read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        stage_fn(_IVFTopK, qref, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return _merge_topk(cands, k)


# --- near-dup: exact baseline --------------------------------------------


class _AllPairs:
    def __init__(self, mref, threshold: float):
        self.all_ids, self.all_mat = ray.get(mref)  # normalized
        self.threshold = threshold

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        mat = _normalize(batch_matrix(b["embedding"]))
        scores = mat @ self.all_mat.T  # (n, N)
        hit = scores >= self.threshold
        # emit each unordered pair once: left id < right id
        hit &= ids[:, None] < self.all_ids[None, :]
        li, ri = np.nonzero(hit)
        return pa.table(
            {
                "vec_a": pa.array(ids[li]),
                "vec_b": pa.array(self.all_ids[ri]),
            }
        )


def cosine_neardup(sf_dir: str, threshold: float = 0.8) -> ray.data.Dataset:
    """(vec_a, vec_b): unordered pairs with exact cosine >= threshold
    over the near-dup corpus.  O(n^2) VERIFY BASELINE: the full
    normalized matrix is broadcast to every worker, so this is only
    valid while the matrix :func:`~rios_ray.functions.join.fits_broadcast`.
    Past that the call refuses with a pointer to
    :func:`cosine_neardup_lsh`, the banded scale path whose output
    equals this one wherever its recall is 1."""
    from ..functions.join import fits_broadcast

    ids, mat = _corpus_matrix(sf_dir)
    if not fits_broadcast(mat):
        raise ValueError(
            f"cosine_neardup broadcasts the full {len(ids)}-row corpus "
            f"matrix ({mat.nbytes} bytes), too large to broadcast; use "
            "cosine_neardup_lsh"
        )
    mref = ray.put((ids, mat))
    return neardup_corpus(sf_dir).map_batches(
        stage_fn(_AllPairs, mref, threshold),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


# --- near-dup: LSH scale path --------------------------------------------


def _hyperplanes(dim: int, nbits: int, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, nbits))


class _BandRows:
    """(band, key, vec_id): one row per vector per band, ``key`` packing
    that band's ``band_bits`` hyperplane sign bits."""

    def __init__(self, pref, n_bands: int, band_bits: int):
        self.planes = ray.get(pref)
        self.n_bands, self.band_bits = n_bands, band_bits

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        mat = _normalize(batch_matrix(b["embedding"]))
        bits = (mat @ self.planes) > 0  # (n, nbits)
        by = bits.reshape(len(ids), self.n_bands, self.band_bits)
        weights = (1 << np.arange(self.band_bits, dtype=np.int64))[None, None, :]
        keys = (by * weights).sum(axis=2)  # (n, n_bands)
        n = len(ids)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(self.n_bands, dtype=np.int32), n)),
                "key": pa.array(keys.ravel()),
                "vec_id": pa.array(np.repeat(ids, self.n_bands)),
            }
        )


def cosine_neardup_lsh(
    sf_dir: str,
    threshold: float = 0.8,
    n_bands: int = 16,
    band_bits: int = 8,
) -> ray.data.Dataset:
    """Hyperplane-LSH near-dup: sign signatures -> banded buckets ->
    exact-cosine verify inside each bucket.  Output equals
    :func:`cosine_neardup` wherever band recall is 1 (see module
    docstring for the bound)."""
    pref = ray.put(_hyperplanes(EMB_DIM, n_bands * band_bits))
    emb_t = pa.list_(pa.float64(), EMB_DIM)

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        # all (band, key) buckets of one hash partition at once
        # (a vec emits one row per band, so buckets hold distinct ids)
        band = tbl["band"].to_numpy()
        key = tbl["key"].to_numpy()
        ids = tbl["vec_id"].to_numpy()
        order = np.lexsort((ids, key, band))
        band_s, key_s, ids_s = band[order], key[order], ids[order]
        new = np.concatenate(
            [[True], (band_s[1:] != band_s[:-1]) | (key_s[1:] != key_s[:-1])]
        )
        from .dedup import _run_pair_indices

        ia, ib = _run_pair_indices(new)
        return pa.table({"vec_a": pa.array(ids_s[ia]), "vec_b": pa.array(ids_s[ib])})

    bands = neardup_corpus(sf_dir).map_batches(
        stage_fn(_BandRows, pref, n_bands, band_bits),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups
    from ..functions.join import partitioned_lookup_join

    cand = hash_partitioned_groups(bands, ["band", "key"], bucket_pairs)
    # a pair can collide in several bands — dedupe BEFORE verifying so
    # each pair is scored once (vectorized aggregate)
    cand = hash_grouped_aggregate(
        cand, ["vec_a", "vec_b"], [(None, "count", "_nb")]
    ).drop_columns(["_nb"])

    # exact-cosine verify via partitioned lookup joins: each normalized
    # vector ships ONCE per join exchange (keyed by vec_id), not once
    # per band row — the band exchange above moves only 20-byte rows
    def norm_rows(b: pa.Table) -> pa.Table:
        mat = _normalize(batch_matrix(b["embedding"]))
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "emb_n": pa.FixedSizeListArray.from_arrays(
                    pa.array(mat.ravel()), mat.shape[1]
                ),
            }
        )

    def emb_side():
        return neardup_corpus(sf_dir).map_batches(
            norm_rows, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=BATCH_SIZE,
        )

    with_a = partitioned_lookup_join(
        cand, emb_side(), "vec_a", "vec_id",
        [("vec_a", pa.int64()), ("vec_b", pa.int64())],
        [("emb_n", emb_t, "emb_a")],
    )
    with_b = partitioned_lookup_join(
        with_a, emb_side(), "vec_b", "vec_id",
        [("vec_a", pa.int64()), ("vec_b", pa.int64()), ("emb_a", emb_t)],
        [("emb_n", emb_t, "emb_b")],
    )

    def score(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"vec_a": pa.array([], type=pa.int64()),
                 "vec_b": pa.array([], type=pa.int64())}
            )
        cos = np.einsum(
            "ij,ij->i", batch_matrix(b["emb_a"]), batch_matrix(b["emb_b"])
        )
        return b.select(["vec_a", "vec_b"]).filter(pa.array(cos >= threshold))

    return with_b.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


def cosine_neardup_clusters(
    sf_dir: str,
    threshold: float = 0.8,
    n_bands: int = 16,
    band_bits: int = 8,
) -> ray.data.Dataset:
    """(vec_id, cluster_id): transitive embedding near-duplicate
    clusters — LSH-bucketed candidate pairs verified by exact cosine,
    then distributed connected components (``functions/graph.py``).
    ``cluster_id`` is the component-min vec_id (the canonical keep)."""
    from ..functions.graph import connected_components

    pairs = cosine_neardup_lsh(
        sf_dir, threshold=threshold, n_bands=n_bands, band_bits=band_bits
    )
    cc = connected_components(pairs, "vec_a", "vec_b")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"vec_id": b["node"], "cluster_id": b["cluster_id"]})

    return cc.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


# --- kNN: product-quantization scale path ---------------------------------


def _pq_kmeans(X: np.ndarray, ks: int, iters: int = 10, seed: int = 7) -> np.ndarray:
    """Euclidean k-means for one PQ subspace (unnormalized subvectors)."""
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), min(ks, len(X)), replace=False)].copy()
    for _ in range(iters):
        # argmin ||x - c||^2 == argmax (2 x.c - ||c||^2): one matmul
        a = np.argmax(2.0 * (X @ C.T) - (C * C).sum(axis=1)[None, :], axis=1)
        for j in range(len(C)):
            m = a == j
            if m.any():
                C[j] = X[m].mean(axis=0)
    return C


def pq_codebooks(sf_dir: str, m: int = 16, ks: int = 64,
                 sample_cap: int = 200_000) -> list[np.ndarray]:
    """Per-subspace codebooks from a driver-side bounded sample (the
    IVF pattern: training data is capped, never the corpus)."""
    ids, mat = _load_matrix(sf_dir)
    mat = _normalize(mat)
    if len(mat) > sample_cap:
        rng = np.random.default_rng(13)
        mat = mat[rng.choice(len(mat), sample_cap, replace=False)]
    d = mat.shape[1] // m
    return [
        _pq_kmeans(mat[:, i * d:(i + 1) * d], ks, seed=7 + i) for i in range(m)
    ]


def _pq_encode(mat: np.ndarray, books: list[np.ndarray]) -> np.ndarray:
    """(n, m) uint8 codes — nearest centroid per subspace, one matmul
    per subspace."""
    m = len(books)
    d = mat.shape[1] // m
    codes = np.empty((len(mat), m), dtype=np.uint8)
    for i, C in enumerate(books):
        sub = mat[:, i * d:(i + 1) * d]
        codes[:, i] = np.argmax(
            2.0 * (sub @ C.T) - (C * C).sum(axis=1)[None, :], axis=1
        ).astype(np.uint8)
    return codes


class _Encode:
    """(vec_id, pq_code): each vector's ``m`` subspace codes as bytes."""

    def __init__(self, books_ref):
        self.books = ray.get(books_ref)

    def __call__(self, b: pa.Table) -> pa.Table:
        mat = _normalize(batch_matrix(b["embedding"]))
        codes = _pq_encode(mat, self.books)
        m = len(self.books)
        code_arr = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(m), len(codes), [None, pa.py_buffer(codes.tobytes())]
        )
        return pa.table({"vec_id": b["vec_id"], "pq_code": code_arr})


def pq_encode(sf_dir: str, m: int = 16, ks: int = 64) -> ray.data.Dataset:
    """The compression artifact: (vec_id, pq_code fixed-size binary) —
    EMB_DIM float64s (512 B) become ``m`` bytes per vector (32x here,
    512x with float64 vs 16 subspaces of a 1024-dim model).  Codebooks
    broadcast once; encoding is one matmul per subspace per batch."""
    books_ref = ray.put(pq_codebooks(sf_dir, m, ks))
    return read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        stage_fn(_Encode, books_ref), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


class _PQTopK:
    """PQ-ADC shortlist + exact local rerank, emitting exact-cosine
    local top-k (same output contract as _BatchTopK, so the final
    merge is shared)."""

    def __init__(self, qref, k: int, shortlist: int):
        self.qids, self.q, self.books = ray.get(qref)
        self.k, self.shortlist = k, shortlist
        # ADC lookup tables: per subspace, centroid . query-subvector
        m = len(self.books)
        d = self.q.shape[1] // m
        self.lut = [
            self.books[i] @ self.q[:, i * d:(i + 1) * d].T  # (ks, nq)
            for i in range(m)
        ]

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy()
        mat = _normalize(batch_matrix(b["embedding"]))
        codes = _pq_encode(mat, self.books)
        scores = np.zeros((len(ids), len(self.qids)))
        for i, lut in enumerate(self.lut):
            scores += lut[codes[:, i], :]  # approximate cosine
        s = min(self.shortlist, len(ids))
        short = np.argpartition(-scores, s - 1, axis=0)[:s]  # (s, nq)
        out_q, out_v, out_c = [], [], []
        for j, qid in enumerate(self.qids):
            cand = short[:, j]
            exact = mat[cand] @ self.q[j]  # rerank: true cosine
            k = min(self.k, len(cand))
            top = np.argpartition(-exact, k - 1)[:k]
            out_q.append(np.full(k, qid, dtype=np.int64))
            out_v.append(ids[cand][top])
            out_c.append(exact[top])
        return pa.table({
            "qid": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_v)),
            "cos": pa.array(np.concatenate(out_c)),
        })


def knn_embeddings_pq(
    sf_dir: str,
    k: int = DEFAULT_K,
    m: int = 16,
    ks: int = 64,
    shortlist: int = 50,
) -> ray.data.Dataset:
    """(qid, vec_id, rank): PQ-accelerated cosine top-k.

    The memory-bandwidth scale path: the scan scores ``m``-byte codes
    through per-query ADC lookup tables (a table gather + adds instead
    of a (n, dim) matmul), keeps a per-batch ``shortlist`` per query,
    and reranks the shortlist with exact cosine before the shared
    global merge — so emitted candidates carry exact scores and the
    result equals brute force whenever each true neighbor survives its
    batch's shortlist (recall-tested; 0.99 at the fixture's m=16/ks=64/
    shortlist=50 on random unit vectors, the hardest case for PQ).
    Approximate by design => no SQL oracle (same policy as IVF).
    """
    qids, qmat = _load_matrix(sf_dir, where_mod=QUERY_MOD)
    books = pq_codebooks(sf_dir, m, ks)
    qref = ray.put((qids, _normalize(qmat), books))
    cands = read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        stage_fn(_PQTopK, qref, k, shortlist),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return _merge_topk(cands, k)


def ensure_centroids_sidecar(sf_dir: str, nlist: int = 16,
                             sample_rows: int = 20_000) -> str:
    """Deterministic (cluster, centroid list<double>) parquet: the
    k-means codebook trained driver-side (same bounded sample + seed as
    the IVF path), cached under /tmp/graft_synth.  Single source of
    centroids for BOTH the engine's assignment scan and the DuckDB
    oracle, so the argmax comparison tests the distributed scan, not
    centroid training drift."""
    import os

    import pyarrow.parquet as pq

    from ..synth import PAGES_ROOT

    name = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(PAGES_ROOT, name, f"centroids_{nlist}.parquet")
    if not os.path.exists(out):
        _, mat = _load_matrix(sf_dir)
        cent = _kmeans(_normalize(mat[:sample_rows]), nlist)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(cent.ravel().astype(np.float64)), cent.shape[1]
        ).cast(pa.list_(pa.float64()))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = f"{out}.tmp.{os.getpid()}"
        pq.write_table(
            pa.table({"cluster": pa.array(np.arange(nlist, dtype=np.int64)),
                      "centroid": arr}),
            tmp,
        )
        os.replace(tmp, out)
    return out


class _Assign:
    """(vec_id, cluster): each row's argmax-dot centroid."""

    def __init__(self, cref):
        self.cent = ray.get(cref)

    def __call__(self, b: pa.Table) -> pa.Table:
        mat = batch_matrix(b["embedding"])
        scores = mat @ self.cent.T  # (n, nlist)
        return pa.table({
            "vec_id": b["vec_id"],
            "cluster": pa.array(np.argmax(scores, axis=1).astype(np.int64)),
        })


def kmeans_assign(sf_dir: str, nlist: int = 16) -> ray.data.Dataset:
    """(vec_id, cluster): nearest-centroid assignment of every vector —
    the partitioning step of embedding-space clustering / IVF build,
    exposed as its own operator.

    Centroids come from the deterministic sidecar (broadcast once via
    ``ray.put``); each batch is ONE matmul + argmax.  Raw (unnormalized)
    row vectors are used on both sides: for a fixed row, argmax over
    centroids of dot(e, c) equals argmax of dot(e/|e|, c), so skipping
    the row normalization removes a whole class of float divergence vs
    the SQL oracle.  Ties (never observed on the fixture) break to the
    smaller cluster id in both engines.
    """
    import pyarrow.parquet as pq

    cent_tbl = pq.read_table(ensure_centroids_sidecar(sf_dir, nlist))
    cent = batch_matrix(cent_tbl["centroid"])
    return read_embeddings(sf_dir, columns=["vec_id", "embedding"]).map_batches(
        stage_fn(_Assign, ray.put(cent)), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
