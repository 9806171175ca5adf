"""Dedup golden tests: Ray pipelines vs DuckDB / brute-force oracles.

Same dual-implementation style as the reference's tests
(/root/reference/rios/riostests/riostestutils.py:3-10): oracle computed
by an independent engine (DuckDB SQL, plain Python sets), compared
exactly.
"""

import duckdb
import pyarrow.parquet as pq
import pytest

from rios_ray.dedup import hashing as H
from rios_ray.dedup.shingles import doc_grams
from rios_ray.pipelines import dedup as D

SF = "/root/testdata/sf0.001"
DOCS = f"{SF}/documents.parquet"

GRAMS_CTE = r"""
    g0 AS (SELECT doc_id, string_split(text,' ') AS words, text FROM docs),
    g1 AS (SELECT doc_id,
                  CASE WHEN len(words) < 3 THEN [text]
                       ELSE list_distinct(list_transform(
                              generate_series(1, len(words) - 2),
                              i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                  END AS grams
             FROM g0),
    grams AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g1)
"""


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW docs AS SELECT * FROM read_parquet('{DOCS}')")
    return c


@pytest.fixture(scope="module")
def gram_sets():
    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    return {
        i: set(doc_grams(x))
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }


def test_exact_dedup(ray_session, con):
    got = (
        D.exact_dedup(SF, key="md5")  # oracle-parity key (default: fnv)
        .to_pandas()
        .sort_values("text_md5")
        .reset_index(drop=True)
    )
    want = con.execute(rf"""
        WITH corpus AS (
            SELECT doc_id, text FROM docs
            UNION ALL
            SELECT doc_id + {D.COPY_OFFSET} AS doc_id, text
              FROM docs WHERE doc_id % 10 = 0
        )
        SELECT md5(trim(regexp_replace(lower(text),'\s+',' ','g'))) AS text_md5,
               min(doc_id) AS keep_id, count(*) AS n_docs
          FROM corpus GROUP BY 1 ORDER BY 1""").df()
    assert got["text_md5"].tolist() == want["text_md5"].tolist()
    assert got["keep_id"].tolist() == want["keep_id"].tolist()
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    # the synthetic copies must actually produce duplicate groups
    assert (want["n_docs"] > 1).any()


def test_jaccard_pairs_vs_sql(ray_session, con):
    """Ray gram-shuffle pipeline == DuckDB with identical df-cap semantics."""
    got = D.jaccard_pairs(SF, threshold=0.5, df_cap=64).to_pandas()
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    want = con.execute(rf"""
        WITH {GRAMS_CTE},
        df AS (SELECT gram, count(*) AS df FROM grams GROUP BY gram),
        ok AS (SELECT g.doc_id, g.gram, g.n_grams
                 FROM grams g JOIN df USING (gram) WHERE df.df <= 64),
        pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
              FROM ok a JOIN ok b ON a.gram = b.gram AND a.doc_id < b.doc_id
             GROUP BY 1, 2, 3, 4)
        SELECT doc_a, doc_b,
               CAST(shared AS DOUBLE) / (n_a + n_b - shared) AS jaccard
          FROM pairs
         WHERE CAST(shared AS DOUBLE) / (n_a + n_b - shared) >= 0.5
         ORDER BY doc_a, doc_b""").df()
    assert len(want) > 0  # fixture must contain near-dupes
    assert got["doc_a"].tolist() == want["doc_a"].tolist()
    assert got["doc_b"].tolist() == want["doc_b"].tolist()
    assert got["jaccard"].tolist() == want["jaccard"].tolist()  # bit-exact


def _true_jaccard_pairs(gram_sets, threshold):
    ids = sorted(gram_sets)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            ga, gb = gram_sets[a], gram_sets[b]
            inter = len(ga & gb)
            j = inter / (len(ga) + len(gb) - inter)
            if j >= threshold:
                out[(a, b)] = j
    return out


def test_minhash_equals_exact(ray_session, gram_sets):
    """LSH candidates + exact verify == brute-force true Jaccard.

    With 256 perms x 64 bands x 4 rows, P[miss a 0.5-pair] =
    (1 - 0.5^4)^64 ~= 1.6%, and fixture pairs sit well above 0.5, so
    equality is deterministic in practice for this fixture.
    """
    got = D.minhash_pairs(SF, threshold=0.5).to_pandas()
    got_pairs = {
        (a, b): j
        for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
    }
    want = _true_jaccard_pairs(gram_sets, 0.5)
    assert set(got_pairs) == set(want)
    for k in want:
        assert got_pairs[k] == pytest.approx(want[k], abs=0)


def test_simhash_pairs_vs_bruteforce(ray_session):
    """Banded pipeline finds exactly the brute-force Hamming<=3 pairs
    (pigeonhole guarantees recall 1 — no probabilistic slack)."""
    sims = D.simhashes(SF).to_pandas()
    ids = sims["doc_id"].to_numpy()
    hs = sims["simhash"].to_numpy()
    import numpy as np

    ia, ib = np.triu_indices(len(ids), k=1)
    hd = H.hamming64(hs[ia], hs[ib])
    ok = hd <= 3
    want = {
        (int(a), int(b)): int(d)
        for a, b, d in zip(ids[ia][ok], ids[ib][ok], hd[ok])
    }
    got = D.simhash_pairs(SF, max_hamming=3).to_pandas()
    got_pairs = {
        (int(a), int(b)): int(d)
        for a, b, d in zip(got["doc_a"], got["doc_b"], got["hamming"])
    }
    assert got_pairs == want
    assert len(want) > 0  # near-dupes in the fixture collide on simhash


def test_fnv1a_reference_vectors():
    """FNV-1a 64 known-answer vectors (public test vectors)."""
    got = H.fnv1a64(["", "a", "foobar"])
    assert got[0] == 0xCBF29CE484222325
    assert got[1] == 0xAF63DC4C8601EC8C
    assert got[2] == 0x85944171F73967E8


def test_fnv1a_arrow_matches_scalar():
    """Buffer-fed Arrow FNV path is hash-identical to the list path,
    incl. empties, nulls (hash as ""), offsets after slicing, and
    large_string."""
    import numpy as np
    import pyarrow as pa

    vals = ["", "a", "foobar", "word gram text", "x" * 300, "émoji ✓"]
    want = H.fnv1a64(vals)
    assert (H.fnv1a64_arrow(pa.array(vals)) == want).all()
    assert (H.fnv1a64_arrow(pa.array(vals, type=pa.large_string())) == want).all()
    sliced = pa.array(["pad"] + vals).slice(1)
    assert (H.fnv1a64_arrow(sliced) == want).all()
    with_null = pa.array(["a", None, "b"])
    got = H.fnv1a64_arrow(with_null)
    assert got[1] == H.fnv1a64([""])[0]
    assert (got[[0, 2]] == H.fnv1a64(["a", "b"])).all()
    chunked = pa.chunked_array([["a"], ["foobar"]])
    assert (H.fnv1a64_arrow(chunked) == H.fnv1a64(["a", "foobar"])).all()


def test_gram_hash_flat_matches_doc_grams():
    """Vectorized shingle hashing == per-doc doc_grams path (distinct
    hash sets per doc), incl. short/empty/whitespace docs."""
    import numpy as np
    import pyarrow as pa

    from rios_ray.dedup.shingles import doc_grams, gram_hash_flat

    texts = [
        "",
        "   ",
        "one two",
        "a b c d e a b c",
        "x \t y\nz  w",
        "dup dup dup dup",
        "the quick brown fox jumps over the lazy dog",
    ]
    h, d = gram_hash_flat(pa.array(texts), 3)
    for i, t in enumerate(texts):
        want = sorted(set(H.fnv1a64(doc_grams(t, 3)).tolist()))
        got = sorted(h[d == i].tolist())
        assert got == want, (i, t)


def test_connected_components_shapes(ray_session, force_strategy):
    """Chain (forces multiple propagation rounds), triangle, isolated
    pair — labels must be the component-min everywhere."""
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.graph import connected_components

    # chain 10-11-12-13-14, triangle 1-2-3 (+ redundant edge), pair 7-8
    edges = pa.table(
        {
            "doc_a": [10, 11, 12, 13, 1, 2, 1, 7],
            "doc_b": [11, 12, 13, 14, 2, 3, 3, 8],
        }
    )
    want = {1: 1, 2: 1, 3: 1, 7: 7, 8: 7,
            10: 10, 11: 10, 12: 10, 13: 10, 14: 10}
    # both strategies: the single-task local solve and the distributed
    # per-round propagation
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = (
            connected_components(ray.data.from_arrow(edges))
            .to_pandas()
            .set_index("node")["cluster_id"]
            .to_dict()
        )
        assert got == want, strategy


def test_minhash_clusters(ray_session):
    """Clusters agree with a driver-side union-find over the verified
    pairs, and cluster_id is the component min (the keep-id)."""
    from rios_ray.pipelines.dedup import minhash_clusters, minhash_pairs

    sf = "/root/testdata/sf0.001"
    pairs = minhash_pairs(sf, threshold=0.5).to_pandas()
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    got = (
        minhash_clusters(sf, threshold=0.5)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    assert got == want
    assert all(cid <= d for d, cid in got.items())


def test_winnow_pairs_properties(ray_session):
    """Every injected exact copy pairs with its original above any
    threshold; pair counts are symmetric-free (a < b) and bounded by
    the smaller fingerprint set."""
    from rios_ray.pipelines.dedup import COPY_OFFSET, winnow_pairs
    from rios_ray.text.analysis import winnow_fingerprint_one

    sf = "/root/testdata/sf0.001"
    # uncapped: exact copies share their FULL fingerprint set
    got = winnow_pairs(sf, min_shared=5, df_cap=10**9).to_pandas()
    assert (got["doc_a"] < got["doc_b"]).all()
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    copies = docs[docs["doc_id"] % 10 == 0]
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    by_pair = dict(zip(zip(got["doc_a"], got["doc_b"]), got["shared"]))
    for _, r in copies.iterrows():
        fp = winnow_fingerprint_one(r["text"])
        if len(fp) >= 5:
            key = (r["doc_id"], r["doc_id"] + COPY_OFFSET)
            assert key in pairs, key
            assert by_pair[key] == len(fp)
    # capped default: shared counts only shrink (hot boilerplate
    # fingerprints dropped whole), never grow, and stay a < b
    capped = winnow_pairs(sf, min_shared=5).to_pandas()
    assert (capped["doc_a"] < capped["doc_b"]).all()
    capped_by_pair = dict(
        zip(zip(capped["doc_a"], capped["doc_b"]), capped["shared"])
    )
    for key, shared in capped_by_pair.items():
        assert key in by_pair and shared <= by_pair[key], key


def test_connected_components_long_chain(ray_session, force_strategy):
    """A 300-node chain (diameter >> the old 64-round budget) converges
    on both paths thanks to pointer-doubling / per-round compression."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rios_ray.functions.graph import connected_components

    n = 300
    edges = pa.table({
        "doc_a": pa.array(np.arange(n - 1, dtype=np.int64)),
        "doc_b": pa.array(np.arange(1, n, dtype=np.int64)),
    })
    for strategy in ("broadcast", "partitioned"):
        force_strategy(strategy)
        got = (
            connected_components(ray.data.from_arrow(edges))
            .to_pandas()
        )
        assert len(got) == n and (got["cluster_id"] == 0).all(), strategy


def test_winnow_df_cap_drop_metric(ray_session, tmp_path, monkeypatch):
    """A synthetic hot bucket (one fingerprint in > df_cap docs) is
    dropped whole AND reported through MetricsCollector — truncation is
    never silent (stage winnow_pairs / partition df_cap_dropped)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod
    import ray

    from rios_ray.pipelines import dedup as D
    from rios_ray.runtime import MetricsCollector

    # corpus where every doc shares one hot 8-gram span ("HOTSPAN0!")
    # plus a unique tail: the hot fingerprint's bucket has df = n_docs
    n = 40
    docs = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(
            ["HOTSPAN0!" + f"unique tail {i:03d} " * 3 for i in range(n)]
        ),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["t"] * n),
        "n_chars": pa.array([60] * n, type=pa.int64()),
    })
    sf = str(tmp_path / "sfhot")
    import os
    os.makedirs(sf, exist_ok=True)
    pq_mod.write_table(docs, os.path.join(sf, "documents.parquet"))

    collector = MetricsCollector.remote()  # already @ray.remote(num_cpus=0)
    out = D.winnow_pairs(sf, min_shared=1, df_cap=8, metrics=collector)
    out.count()  # execute
    # the drop reports are fire-and-forget remote calls from workers:
    # poll until the actor has processed them (no ordering guarantee
    # between a worker's add.remote and the driver's summary.remote)
    import time

    key = "winnow_pairs/df_cap_dropped"
    summary = {}
    for _ in range(100):
        summary = ray.get(collector.summary.remote())
        if key in summary:
            break
        time.sleep(0.1)
    assert key in summary and summary[key]["rows"] > 8, summary


def test_exact_dedup_fnv_matches_md5_groups(ray_session):
    """The vectorized FNV key (scale default) produces the same dedup
    GROUPS as the md5 oracle-parity key: identical (keep_id, n_docs)
    multisets (keys differ, grouping must not)."""
    from rios_ray.pipelines.dedup import exact_dedup

    sf = "/root/testdata/sf0.001"
    md5 = exact_dedup(sf, key="md5").to_pandas()
    fnv = exact_dedup(sf, key="fnv").to_pandas()
    a = sorted(zip(md5["keep_id"], md5["n_docs"]))
    b = sorted(zip(fnv["keep_id"], fnv["n_docs"]))
    assert a == b and len(a) > 0
    # fnv keys are 16-hex-char strings (schema-compatible with md5's 32)
    assert fnv["text_md5"].str.len().eq(16).all()


def test_edit_distance_pairs_vs_duckdb(ray_session, con):
    """Pipeline output (minhash-verified pairs + batched Levenshtein)
    matches the exact-Jaccard pair set with DuckDB levenshtein; the
    max_dist filter is a strict subset."""
    from rios_ray.pipelines.dedup import edit_distance_pairs

    got = edit_distance_pairs(SF, threshold=0.5).to_pandas()
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    want = con.execute("""
        WITH g0 AS (SELECT doc_id, string_split(text,' ') AS words, text FROM docs),
        g1 AS (SELECT doc_id,
                      CASE WHEN len(words) < 3 THEN [text]
                           ELSE list_distinct(list_transform(
                                  generate_series(1, len(words) - 2),
                                  i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                      END AS grams FROM g0),
        grams AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g1),
        pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
                    FROM grams a JOIN grams b
                      ON a.gram = b.gram AND a.doc_id < b.doc_id
                   GROUP BY 1, 2, 3, 4),
        jp AS (SELECT doc_a, doc_b FROM pairs
                WHERE CAST(shared AS DOUBLE) / (n_a + n_b - shared) >= 0.5)
        SELECT jp.doc_a, jp.doc_b,
               levenshtein(da.text, db.text) AS edit_dist
          FROM jp JOIN docs da ON da.doc_id = jp.doc_a
                  JOIN docs db ON db.doc_id = jp.doc_b
         ORDER BY 1, 2""").df()
    assert len(got) > 0
    assert got["doc_a"].tolist() == want["doc_a"].tolist()
    assert got["doc_b"].tolist() == want["doc_b"].tolist()
    assert got["edit_dist"].tolist() == want["edit_dist"].tolist()
    cap = int(got["edit_dist"].median())
    sub = edit_distance_pairs(SF, threshold=0.5, max_dist=cap).to_pandas()
    assert len(sub) < len(got)
    assert (sub["edit_dist"] <= cap).all()


def test_neardup_pagerank_vs_duckdb_and_fallback(ray_session, con, force_strategy):
    """2-iteration PageRank over the pair graph matches the unrolled
    fsum-join oracle BIT-exactly; the partitioned fallback is
    path-equal; rank mass stays 1 (every out-edge lands in-graph)."""
    import numpy as np

    from rios_ray.pipelines.dedup import neardup_pagerank

    force_strategy("broadcast")
    got = neardup_pagerank(SF, threshold=0.5, iters=2).to_pandas(
    ).sort_values("doc_id").reset_index(drop=True)
    want = con.execute("""
        WITH g0 AS (SELECT doc_id, string_split(text,' ') AS words, text FROM docs),
        g1 AS (SELECT doc_id,
                      CASE WHEN len(words) < 3 THEN [text]
                           ELSE list_distinct(list_transform(
                                  generate_series(1, len(words) - 2),
                                  i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                      END AS grams FROM g0),
        grams AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g1),
        pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
                    FROM grams a JOIN grams b
                      ON a.gram = b.gram AND a.doc_id < b.doc_id
                   GROUP BY 1, 2, 3, 4),
        jp AS (SELECT doc_a, doc_b FROM pairs
                WHERE CAST(shared AS DOUBLE) / (n_a + n_b - shared) >= 0.5),
        edges AS (SELECT doc_a AS src, doc_b AS dst FROM jp
                  UNION ALL SELECT doc_b, doc_a FROM jp),
        deg AS (SELECT src, count(*) AS deg FROM edges GROUP BY 1),
        nn AS (SELECT count(*) AS n FROM deg),
        consts AS (SELECT CAST(1.0 AS DOUBLE) / n AS r0,
                          (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / n AS base
                     FROM nn),
        c1 AS (SELECT e.dst AS node, fsum((SELECT r0 FROM consts) / d.deg) AS s
                 FROM edges e JOIN deg d ON d.src = e.src GROUP BY 1),
        r1 AS (SELECT node, (SELECT base FROM consts)
                            + CAST(0.85 AS DOUBLE) * s AS rank FROM c1),
        c2 AS (SELECT e.dst AS node, fsum(r1.rank / d.deg) AS s
                 FROM edges e JOIN r1 ON r1.node = e.src
                 JOIN deg d ON d.src = e.src GROUP BY 1)
        SELECT node AS doc_id, (SELECT base FROM consts)
                               + CAST(0.85 AS DOUBLE) * s AS rank
          FROM c2 ORDER BY 1""").df()
    assert len(got) > 0
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert np.array_equal(got["rank"].to_numpy(), want["rank"].to_numpy())
    # probability mass conserved (undirected graph: no dangling nodes)
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    # the partitioned plan is path-equal
    force_strategy("partitioned")
    got2 = neardup_pagerank(SF, threshold=0.5, iters=2)
    got2 = got2.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got2["doc_id"].tolist() == want["doc_id"].tolist()
    assert np.array_equal(got2["rank"].to_numpy(), want["rank"].to_numpy())


def test_neardup_triangles_vs_duckdb(ray_session, con, force_strategy):
    """Per-vertex triangle counts (degree-ordered compact-forward
    enumeration) match the literal SQL 3-way self-join over the same
    verified pair set; broadcast and partitioned paths are path-equal;
    corner sum is divisible by 3."""
    from rios_ray.pipelines.dedup import neardup_triangles

    force_strategy("broadcast")
    got = neardup_triangles(SF, threshold=0.5).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    want = con.execute("""
        WITH g0 AS (SELECT doc_id, string_split(text,' ') AS words, text FROM docs),
        g1 AS (SELECT doc_id, CASE WHEN len(words) < 3 THEN [text]
                    ELSE list_distinct(list_transform(
                         generate_series(1, len(words)-2),
                         i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
               END AS grams FROM g0),
        grams AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g1),
        p0 AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                      a.n_grams AS n_a, b.n_grams AS n_b, count(*) AS shared
                 FROM grams a JOIN grams b
                   ON a.gram = b.gram AND a.doc_id < b.doc_id GROUP BY 1,2,3,4),
        e AS (SELECT doc_a AS a, doc_b AS b FROM p0
               WHERE CAST(shared AS DOUBLE)/(n_a+n_b-shared) >= 0.5),
        tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
                  FROM e e1 JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b
                  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b),
        corners AS (SELECT x AS node FROM tri UNION ALL SELECT y FROM tri
                    UNION ALL SELECT z FROM tri)
        SELECT node AS doc_id, count(*) AS n_triangles
          FROM corners GROUP BY 1 ORDER BY 1""").df()
    assert len(got) > 0
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_triangles"].tolist() == want["n_triangles"].tolist()
    assert got["n_triangles"].sum() % 3 == 0
    force_strategy("partitioned")
    got2 = neardup_triangles(SF, threshold=0.5
                             ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got2["doc_id"].tolist() == want["doc_id"].tolist()
    assert got2["n_triangles"].tolist() == want["n_triangles"].tolist()


def test_pair_member_collision_run_scan():
    """_pair_member must survive forged 64-bit key collisions: only the
    real (b1, b2) pair is a member, and equal-key runs are scanned past
    the first slot (ADVICE r4)."""
    import numpy as np

    from rios_ray.pipelines.dedup import _pair_member

    # three edges sharing ONE forged wkey + a normal edge
    wk_e = np.array([5, 5, 5, 9], dtype=np.uint64)
    b1_e = np.array([1, 1, 2, 7], dtype=np.int64)
    b2_e = np.array([2, 3, 4, 8], dtype=np.int64)
    order = np.lexsort((b2_e, b1_e, wk_e))
    ks, eb1, eb2 = wk_e[order], b1_e[order], b2_e[order]

    # queries: present (deep in the run), present (first), absent pair
    # with colliding key, absent key entirely, present (normal)
    q_wk = np.array([5, 5, 5, 6, 9], dtype=np.uint64)
    q_b1 = np.array([2, 1, 9, 1, 7], dtype=np.int64)
    q_b2 = np.array([4, 2, 9, 2, 8], dtype=np.int64)
    got = _pair_member(ks, eb1, eb2, q_wk, q_b1, q_b2)
    assert got.tolist() == [True, True, False, False, True]

    # empty edge set
    z = np.zeros(0, np.uint64)
    zi = np.zeros(0, np.int64)
    assert _pair_member(z, zi, zi, q_wk, q_b1, q_b2).tolist() == [False] * 5
