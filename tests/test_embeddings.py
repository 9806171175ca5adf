"""Embedding similarity-search + near-dup golden tests (DuckDB / numpy
oracles, same dual-implementation style as the reference's suite)."""

import duckdb
import numpy as np
import pytest

from rios_ray.pipelines import embeddings as E

SF = "/root/testdata/sf0.001"
EMB = f"{SF}/embeddings.parquet"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{EMB}')")
    return c


def test_knn_vs_duckdb(ray_session, con):
    got = (
        E.knn_embeddings(SF, k=10)
        .to_pandas()
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )
    want = con.execute(f"""
        WITH q AS (SELECT vec_id AS qid, embedding AS qe
                     FROM embeddings WHERE vec_id % {E.QUERY_MOD} = 0),
        d AS (SELECT q.qid, e.vec_id, list_cosine_similarity(e.embedding, q.qe) AS cos
                FROM embeddings e CROSS JOIN q)
        SELECT qid, vec_id,
               row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank
          FROM d QUALIFY rank <= 10
         ORDER BY qid, rank""").df()
    assert got["qid"].tolist() == want["qid"].tolist()
    assert got["vec_id"].tolist() == want["vec_id"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()
    # rank 1 of each query is the query vector itself (cos = 1)
    r1 = got[got["rank"] == 1]
    assert (r1["qid"] == r1["vec_id"]).all()


def test_ivf_probe_all_equals_bruteforce(ray_session):
    """nprobe == nlist scores every row — must reproduce the exact
    ranks (checks the IVF plumbing with no approximation slack)."""
    exact = E.knn_embeddings(SF, k=10).to_pandas().sort_values(["qid", "rank"])
    ivf = (
        E.knn_embeddings_ivf(SF, k=10, nlist=8, nprobe=8)
        .to_pandas()
        .sort_values(["qid", "rank"])
    )
    assert exact["vec_id"].tolist() == ivf["vec_id"].tolist()
    assert exact["qid"].tolist() == ivf["qid"].tolist()


def test_ivf_partial_probe_recall(ray_session):
    """Random unit vectors are IVF's worst case — still, probing half
    the cells must recover well over half the true neighbors."""
    exact = E.knn_embeddings(SF, k=10).to_pandas()
    ivf = E.knn_embeddings_ivf(SF, k=10, nlist=8, nprobe=4).to_pandas()
    a = set(zip(exact["qid"], exact["vec_id"]))
    b = set(zip(ivf["qid"], ivf["vec_id"]))
    assert len(a & b) / len(a) >= 0.5


def test_neardup_exact_vs_duckdb(ray_session, con):
    got = E.cosine_neardup(SF, threshold=0.8).to_pandas()
    got_pairs = set(zip(got["vec_a"], got["vec_b"]))
    want = con.execute(f"""
        WITH corpus AS ({E.NEARDUP_CORPUS_SQL})
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
         WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.8""").df()
    want_pairs = set(zip(want["vec_a"], want["vec_b"]))
    assert got_pairs == want_pairs
    # every 10th vector's perturbed copy must be found
    ids = con.execute("SELECT vec_id FROM embeddings WHERE vec_id % 10 = 0").df()
    expect = {(int(v), int(v) + E.EMB_COPY_OFFSET) for v in ids["vec_id"]}
    assert expect <= got_pairs


def test_neardup_lsh_equals_exact(ray_session):
    exact = E.cosine_neardup(SF, threshold=0.8).to_pandas()
    lsh = E.cosine_neardup_lsh(SF, threshold=0.8).to_pandas()
    assert set(zip(exact["vec_a"], exact["vec_b"])) == set(
        zip(lsh["vec_a"], lsh["vec_b"])
    )


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((200, 16))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    c1 = E._kmeans(m, 4)
    c2 = E._kmeans(m, 4)
    assert np.array_equal(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)


def test_pq_encode_shape_and_compression(ray_session):
    from rios_ray.pipelines.embeddings import pq_encode

    t = pq_encode(SF, m=16, ks=32).to_pandas()
    assert len(t) > 0
    assert all(len(c) == 16 for c in t["pq_code"])  # 16 bytes per vector


def test_pq_knn_recall_vs_brute(ray_session):
    from rios_ray.pipelines.embeddings import knn_embeddings, knn_embeddings_pq

    brute = knn_embeddings(SF, k=10).to_pandas()
    pq_res = knn_embeddings_pq(SF, k=10, m=16, ks=32, shortlist=50).to_pandas()
    got = pq_res.groupby("qid")["vec_id"].apply(set)
    want = brute.groupby("qid")["vec_id"].apply(set)
    recalls = [len(got[q] & want[q]) / len(want[q]) for q in want.index]
    import numpy as np

    assert np.mean(recalls) >= 0.85, np.mean(recalls)
    # emitted ranks are exact-cosine ranks within the returned set
    assert (pq_res.groupby("qid")["rank"].max() == 10).all()


def test_kmeans_assign_vs_duckdb(ray_session, con):
    """Nearest-centroid assignment == DuckDB argmax over the shared
    centroid sidecar (raw dot products; row norm can't flip an argmax)."""
    from rios_ray.pipelines.embeddings import (
        ensure_centroids_sidecar,
        kmeans_assign,
    )

    path = ensure_centroids_sidecar(SF, nlist=16)
    got = (
        kmeans_assign(SF, nlist=16)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    want = con.sql(f"""
        WITH c AS (SELECT cluster, centroid FROM read_parquet('{path}')),
        s AS (SELECT e.vec_id, c.cluster,
                     row_number() OVER (
                         PARTITION BY e.vec_id
                         ORDER BY list_inner_product(e.embedding, c.centroid) DESC,
                                  c.cluster) AS rn
                FROM embeddings e CROSS JOIN c)
        SELECT vec_id, cluster FROM s WHERE rn = 1 ORDER BY vec_id
    """).df()
    assert got["vec_id"].tolist() == want["vec_id"].tolist()
    assert got["cluster"].tolist() == want["cluster"].tolist()
    # every cluster id valid; multiple clusters actually used
    assert got["cluster"].between(0, 15).all() and got["cluster"].nunique() > 4


def test_cosine_neardup_cap_enforced(ray_session, force_strategy):
    """The O(n^2) baseline runs while its matrix fits the broadcast cap
    and refuses past it, pointing at the LSH scale path."""
    from rios_ray.pipelines import embeddings as E

    force_strategy("broadcast")
    assert E.cosine_neardup(SF).count() > 0
    force_strategy("partitioned")
    with pytest.raises(ValueError, match="cosine_neardup_lsh"):
        E.cosine_neardup(SF)
