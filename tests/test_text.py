"""Text-analysis golden tests: Ray pipeline vs DuckDB / numpy oracle.

Mirrors the reference's dual-implementation check style
(/root/reference/rios/riostests/riostestutils.py:3-10): the oracle is
computed by an independent engine (DuckDB's RE2 SQL, plain numpy) and
compared exactly.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rios_ray.pipelines import text as T
from rios_ray.text import analysis as A

SF = "/root/testdata/sf0.001"
DOCS = f"{SF}/documents.parquet"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW docs AS SELECT * FROM read_parquet('{DOCS}')")
    return c


def _cmp(ray_tbl, sql_tbl, cols):
    ray_tbl = ray_tbl.sort_by("doc_id")
    sql_tbl = sql_tbl.sort_by("doc_id")
    assert ray_tbl.num_rows == sql_tbl.num_rows
    for c in cols:
        a, b = ray_tbl[c].to_pylist(), sql_tbl[c].to_pylist()
        assert a == b, f"column {c} mismatch"


def test_token_stats(ray_session, con):
    got = T.token_stats(SF).to_arrow_refs()
    import pyarrow as pa
    import ray

    got = pa.concat_tables([t for t in ray.get(got) if t.num_rows])
    want = con.execute(r"""
        SELECT doc_id,
               length(text) AS n_chars_txt,
               len(regexp_extract_all(text, '\S+')) AS n_tokens,
               len(regexp_extract_all(text, '[A-Za-z]+')) AS n_alpha,
               len(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
               len(regexp_extract_all(text, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+')) AS n_bpe
          FROM docs""").arrow()
    _cmp(got, want, ["n_chars_txt", "n_tokens", "n_alpha", "n_punct", "n_bpe"])


def test_quality_bitexact(ray_session, con):
    got = T.quality(SF).to_pandas().sort_values("doc_id")
    en = A.STOPWORD_RES["en"]
    want = con.execute(rf"""
        SELECT doc_id,
               LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
             + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
                 / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
             + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
                 / GREATEST(length(text),1)) * 10.0))*0.2 AS quality
          FROM docs ORDER BY doc_id""").df()
    # bit-exact float64 equality — same IEEE ops in the same order
    assert np.array_equal(got["quality"].to_numpy(), want["quality"].to_numpy())


def test_lang_id(ray_session, con):
    got = T.lang_id(SF).to_pandas().sort_values("doc_id")
    cases = " ".join(f"WHEN c_{l} = m THEN '{l}'" for l in A.LANG_PRIORITY)
    counts = ", ".join(
        rf"len(regexp_extract_all(lower(text),'{A.STOPWORD_RES[l]}')) AS c_{l}"
        for l in A.LANG_PRIORITY
    )
    want = con.execute(rf"""
        WITH c AS (SELECT doc_id, {counts} FROM docs),
             m AS (SELECT *, GREATEST(c_en,c_de,c_fr,c_es,c_zh) AS m FROM c)
        SELECT doc_id, CASE WHEN m=0 THEN 'und' {cases} END AS lang_pred
          FROM m ORDER BY doc_id""").df()
    assert got["lang_pred"].tolist() == want["lang_pred"].tolist()


def test_md5_fingerprint(ray_session, con):
    got = T.fingerprints(SF).to_pandas().sort_values("doc_id")
    want = con.execute(r"""
        SELECT doc_id, md5(trim(regexp_replace(lower(text),'\s+',' ','g'))) AS text_md5
          FROM docs ORDER BY doc_id""").df()
    assert got["text_md5"].tolist() == want["text_md5"].tolist()
    assert (got["fp_size"] >= 0).all()


def test_winnow_properties():
    """Winnowing invariants: deterministic, containment under append,
    robust to where the duplicate sits (pure-numpy unit test)."""
    a = "the quick brown fox jumps over the lazy dog " * 4
    fp1 = A.winnow_fingerprint_one(a)
    fp2 = A.winnow_fingerprint_one(a)
    assert np.array_equal(fp1, fp2)
    # a document containing `a` verbatim shares most fingerprint hashes
    b = "PREFIX 123 " + a + " SUFFIX"
    fpb = A.winnow_fingerprint_one(b)
    shared = np.intersect1d(fp1, fpb)
    assert len(shared) >= 0.8 * len(fp1)
    # unrelated text shares (almost) nothing
    c = A.winnow_fingerprint_one("zyx wvu tsr qpo nml kji hgf edc ba " * 8)
    assert len(np.intersect1d(fp1, c)) <= 0.05 * len(fp1)
    # short-input edge cases
    assert len(A.winnow_fingerprint_one("")) == 0
    assert len(A.winnow_fingerprint_one("abc")) == 0  # < k
    assert len(A.winnow_fingerprint_one("abcdefgh")) == 1  # exactly one gram


def test_winnow_flat_matches_per_doc():
    """The vectorized flat-buffer kernel is bit-identical to the per-doc
    reference across edge cases (empty, <k, ==k, n<=w, unicode, nulls,
    sliced/chunked/large_string inputs)."""
    rng = np.random.default_rng(7)
    texts = [
        "".join(chr(int(c)) for c in rng.integers(32, 1000, int(rng.integers(0, 60))))
        for _ in range(200)
    ]
    texts += ["", "ab", "abcdefg", "abcdefgh", "abcdefghi", "x" * 100,
              "hello world " * 50]
    arr = pa.array(texts, type=pa.string())
    for variant in (
        arr,
        arr.slice(3, 150),
        pa.chunked_array([arr.slice(0, 80), arr.slice(80)]),
        arr.cast(pa.large_string()),
    ):
        flat = variant.combine_chunks() if isinstance(variant, pa.ChunkedArray) else variant
        vals, doc_of = A.winnow_fingerprints_flat(variant)
        for i in range(len(flat)):
            assert np.array_equal(
                A.winnow_fingerprint_one(flat[i].as_py()), vals[doc_of == i]
            )
    # nulls behave as empty docs
    vals, doc_of = A.winnow_fingerprints_flat(pa.array(["abcdefghij", None]))
    assert not (doc_of == 1).any() and len(vals) == len(
        A.winnow_fingerprint_one("abcdefghij")
    )


def test_top_token_pages_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import top_token_pages

    got = top_token_pages(SF, k=50).to_pandas().sort_values("rank").reset_index(drop=True)
    want = con.execute(r"""
        SELECT doc_id, n_tokens,
               row_number() OVER (ORDER BY n_tokens DESC, doc_id) AS rank
          FROM (SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens FROM docs)
        QUALIFY rank <= 50 ORDER BY rank""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()


def test_pii_scan_synthetic():
    """Crafted PII strings: counts and redaction are exact."""
    import pyarrow as pa

    texts = [
        "contact me at alice.smith+spam@example.co.uk today",
        "call +1 (555) 123-4567 or 555 867 5309 now",
        "server at 192.168.0.1 and 10.0.0.255 responded",
        "no pii here at all",
        "mixed: bob@x.io from 127.0.0.1 phone 020 7946 0958",
    ]
    b = pa.table({"doc_id": pa.array(range(5)), "text": pa.array(texts)})
    out = A.pii_scan(b)
    assert out["n_email"].to_pylist() == [1, 0, 0, 0, 1]
    assert out["n_ipv4"].to_pylist() == [0, 0, 2, 0, 1]
    assert out["n_phone"].to_pylist()[1] >= 1 and out["n_phone"].to_pylist()[4] >= 1
    red = out["redacted"].to_pylist()
    assert red[0] == "contact me at [PII] today"
    assert "192.168.0.1" not in red[2] and "[PII]" in red[2]
    assert red[3] == "no pii here at all"
    assert "bob@x.io" not in red[4] and "127.0.0.1" not in red[4]


def test_pii_vs_duckdb(ray_session, con):
    """Engine-vs-engine parity on the real documents table (both RE2)."""
    import pyarrow as pa
    import ray

    from __ray_entry__ import _pii_sql

    got = pa.concat_tables(
        [t for t in ray.get(T.pii(SF).to_arrow_refs()) if t.num_rows]
    )
    want = con.execute(_pii_sql().replace("documents", "docs")).arrow()
    _cmp(got, want, ["n_email", "n_phone", "n_ipv4", "redacted"])


def test_decontaminate_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import DECON_EVERY, DECON_TOKENS, decontaminate

    got = decontaminate(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = con.execute(f"""
        WITH bench AS (
            SELECT array_to_string(
                       list_slice(string_split(text, ' '), 1, {DECON_TOKENS}),
                       ' ') AS gram
              FROM docs WHERE doc_id % {DECON_EVERY} = 0
        )
        SELECT d.doc_id, count(*) AS n_hits
          FROM docs d JOIN bench b ON contains(d.text, b.gram)
         WHERE d.doc_id % {DECON_EVERY} <> 0
         GROUP BY d.doc_id ORDER BY d.doc_id
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_hits"].tolist() == want["n_hits"].tolist()
    assert len(got) > 0, "fixture should contain at least one contaminated doc"


def test_decontaminate_ngram_equals_substring(ray_session):
    """The hashed-membership scale path (one searchsorted per batch,
    cost independent of probe count) matches the per-probe substring
    scan exactly on the gate config; with a dense multi-probe bench set
    it is the token-ALIGNED subset of the substring result (substring
    additionally matches probes mid-token, e.g. 'a key part' inside
    'data key part' — the fixture contains such cases)."""
    from rios_ray.pipelines.text import decontaminate

    a = decontaminate(SF, method="substring").to_pandas()
    b = decontaminate(SF, method="ngram").to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert len(a) > 0
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["n_hits"].tolist() == b["n_hits"].tolist()

    kw = {"every": 10, "probes_per_doc": 5}
    a = decontaminate(SF, method="substring", **kw).to_pandas().set_index("doc_id")
    b = decontaminate(SF, method="ngram", **kw).to_pandas().set_index("doc_id")
    assert len(b) > 0
    assert set(b.index) <= set(a.index)  # aligned matches are a subset
    joined = a.join(b, how="inner", lsuffix="_s", rsuffix="_n")
    assert (joined["n_hits_n"] <= joined["n_hits_s"]).all()
    # the fixture genuinely exercises the semantic difference
    assert set(a.index) - set(b.index)


def test_vocab_topk_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import vocab_topk

    got = vocab_topk(SF, k=50).to_pandas()
    want = con.execute("""
        WITH tok AS (
            SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
              FROM docs
        )
        SELECT token, count(*) AS df FROM tok
         GROUP BY token ORDER BY df DESC, token LIMIT 50
    """).df()
    assert got["token"].tolist() == want["token"].tolist()
    assert got["df"].tolist() == want["df"].tolist()


def test_token_quantiles_vs_numpy(ray_session):
    """Quantile rule (smallest value with cumfreq >= ceil(q*n)) checked
    against a direct numpy computation over all token counts."""
    from rios_ray.pipelines.text import token_quantiles

    got = token_quantiles(SF)
    t = pq.read_table(DOCS, columns=["text"])
    n = np.array([len(s.split()) for s in t["text"].to_pylist()])
    # NOTE: \S+ count == str.split() token count for whitespace text
    n.sort()
    for _, row in got.iterrows():
        rank = int(np.ceil(row["q"] * len(n)))
        assert row["value"] == n[rank - 1], row["q"]


def test_stratified_sample_vs_duckdb(ray_session, con):
    """Deterministic per-stratum sampling: keep-all / drop-all / half
    rates reproduce the identical integer-hash predicate in SQL."""
    got = (
        T.stratified_sample(SF, rates={"src0": 1.0, "src1": 0.0}, default_rate=0.5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = con.execute("""
        SELECT doc_id, lang, source, n_chars FROM docs
         WHERE (((CAST(doc_id AS HUGEINT) % 4294967296) * 2654435761) % 4294967296) % 10000 <
               CASE source WHEN 'src0' THEN 10000
                           WHEN 'src1' THEN 0
                           ELSE 5000 END
         ORDER BY doc_id
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["source"].tolist() == want["source"].tolist()
    assert "src1" not in set(got["source"])           # drop-all stratum
    n_src0 = (got["source"] == "src0").sum()
    assert n_src0 == (want["source"] == "src0").sum() and n_src0 > 0


def test_repetition_stats_edges(ray_session):
    """Hand-computed repetition fractions, incl. short-doc edges."""
    import pyarrow as pa

    from rios_ray.text.analysis import repetition_stats

    batch = pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "a a a a",          # 1 distinct/4; top 2-gram 'a a' 3/3; dup3 3/3 ('a a a' x2... all dup)
                "x",                 # single word: no 2/3-grams
                "p q",               # two words: one 2-gram, no 3-gram
                "a b c a b c a b",   # mixed repeats
                "",                  # empty text -> [''] one word
            ],
        }
    )
    out = repetition_stats(batch).to_pandas().set_index("doc_id")
    assert out.loc[1, "word_rep_frac"] == 1.0 - 1.0 / 4.0
    assert out.loc[1, "top2gram_frac"] == 1.0          # 'a a' is every 2-gram
    assert out.loc[1, "dup3gram_frac"] == 1.0          # 'a a a' twice
    assert out.loc[2, "word_rep_frac"] == 0.0
    assert out.loc[2, "top2gram_frac"] == 0.0
    assert out.loc[2, "dup3gram_frac"] == 0.0
    assert out.loc[3, "top2gram_frac"] == 1.0          # single 2-gram
    assert out.loc[3, "dup3gram_frac"] == 0.0
    # doc 4: words a b c a b c a b -> 8 words, 3 distinct
    assert out.loc[4, "word_rep_frac"] == 1.0 - 3.0 / 8.0
    # 2-grams: ab bc ca ab bc ca ab -> ab x3 of 7
    assert out.loc[4, "top2gram_frac"] == 3.0 / 7.0
    # 3-grams: abc bca cab abc bca cab -> all 6 occurrences duplicated
    assert out.loc[4, "dup3gram_frac"] == 1.0
    assert out.loc[5, "word_rep_frac"] == 0.0          # [''] one distinct word


def test_repetition_matches_duckdb(ray_session):
    """Pipeline vs the oracle's SQL shape at sf0.001 (bit-exact doubles)."""
    import duckdb

    from rios_ray import synth
    from rios_ray.pipelines.text import repetition

    got = repetition("/root/testdata/sf0.001").to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    want = con.sql("""
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS words FROM documents),
        uw AS (SELECT doc_id, count(DISTINCT word) AS nd, count(*) AS nt
                 FROM (SELECT doc_id, unnest(words) AS word FROM w) GROUP BY 1),
        g2 AS (SELECT doc_id, unnest(list_transform(generate_series(1, len(words)-1),
                      i -> words[i] || ' ' || words[i+1])) AS gram
                 FROM w WHERE len(words) >= 2),
        g2c AS (SELECT doc_id, gram, count(*) AS c FROM g2 GROUP BY 1, 2),
        g2s AS (SELECT doc_id, max(c) AS maxc, sum(c) AS tot FROM g2c GROUP BY 1),
        g3 AS (SELECT doc_id, unnest(list_transform(generate_series(1, len(words)-2),
                      i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS gram
                 FROM w WHERE len(words) >= 3),
        g3c AS (SELECT doc_id, gram, count(*) AS c FROM g3 GROUP BY 1, 2),
        g3s AS (SELECT doc_id, sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS dupc,
                       sum(c) AS tot FROM g3c GROUP BY 1)
        SELECT u.doc_id,
               1.0 - CAST(nd AS DOUBLE) / nt AS word_rep_frac,
               coalesce(CAST(maxc AS DOUBLE) / g2s.tot, 0.0) AS top2gram_frac,
               coalesce(CAST(dupc AS DOUBLE) / g3s.tot, 0.0) AS dup3gram_frac
          FROM uw u LEFT JOIN g2s USING (doc_id) LEFT JOIN g3s USING (doc_id)
         ORDER BY doc_id
    """).df().reset_index(drop=True)
    for c in ("word_rep_frac", "top2gram_frac", "dup3gram_frac"):
        assert got[c].tolist() == want[c].tolist(), c


def test_corpus_clean(ray_session):
    """Composite cleaning: every kept doc passes all three filters, and
    injected exact copies are deduped to the min doc_id."""
    from rios_ray.pipelines.dedup import COPY_OFFSET
    from rios_ray.pipelines.text import corpus_clean

    got = corpus_clean("/root/testdata/sf0.001").to_pandas()
    assert len(got) > 0
    assert (got["quality"] >= 0.7).all()
    assert (got["word_rep_frac"] <= 0.6).all()
    ids = set(got["doc_id"])
    # an injected copy (id + offset) survives only if its original was
    # filtered out — never alongside it
    assert not any(i - COPY_OFFSET in ids for i in ids if i >= COPY_OFFSET)


def test_paragraph_dedup_vs_duckdb(ray_session, con):
    # token-level separator: aggressive dedup, exercises empty-survivor
    # docs; plus a multi-token separator closer to real paragraphs
    for sep in (" ", " the "):
        got = T.paragraph_dedup(SF, sep=sep).to_pandas()
        want = con.execute(f"""
            WITH s AS (SELECT doc_id, string_split(text, '{sep}') AS l FROM docs),
            p0 AS (SELECT doc_id, unnest(l) AS para,
                          generate_subscripts(l, 1) AS i FROM s),
            p AS (SELECT * FROM p0 WHERE para <> ''),
            k AS (SELECT doc_id, i, para,
                         row_number() OVER (PARTITION BY para
                                            ORDER BY doc_id, i) AS rn FROM p)
            SELECT doc_id, string_agg(para, '{sep}' ORDER BY i) AS text
              FROM k WHERE rn = 1 GROUP BY doc_id
        """).df()
        g = dict(zip(got["doc_id"], got["text"]))
        w = dict(zip(want["doc_id"], want["text"]))
        assert g == w and len(g) > 0


def test_paragraph_dedup_first_doc_intact(ray_session):
    # the lowest doc_id's paragraphs are all first occurrences -> its
    # text survives byte-identical
    got = T.paragraph_dedup(SF, sep=" the ").to_pandas()
    first = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pandas()
    first = first.sort_values("doc_id").iloc[0]
    out = got[got["doc_id"] == first["doc_id"]]["text"].iloc[0]
    assert out == first["text"]


def test_mg_compress_superset_guarantee():
    # any item with true freq > n/k must survive compression
    rng = np.random.default_rng(21)
    counts = rng.integers(1, 50, 500).astype(np.int64)
    counts[7] = 5000  # a true heavy hitter
    counts[13] = 3000
    keys = np.arange(500)
    for k in (5, 20, 100):
        kept, kc = __import__("rios_ray.functions.sketch", fromlist=["x"]).mg_compress(
            keys, counts, k)
        n = counts.sum()
        heavy = set(keys[counts > n / k])
        assert heavy <= set(kept)
        assert len(kept) <= k - 1 or len(keys) <= k - 1


def test_heavy_hitter_tokens_vs_duckdb(ray_session, con):
    for k in (30, 60):
        got = T.heavy_hitter_tokens(SF, k=k).to_pandas()
        want = con.execute(f"""
            WITH w AS (SELECT unnest(string_split(text, ' ')) AS token FROM docs),
            w2 AS (SELECT token FROM w WHERE token <> ''),
            t AS (SELECT count(*) AS total FROM w2)
            SELECT token, count(*) AS n FROM w2, t
             GROUP BY token, t.total HAVING count(*) * {k} > t.total""").df()
        g = dict(zip(got["token"], got["n"]))
        w = dict(zip(want["token"], want["n"]))
        assert g == w


def test_doc_zscores_vs_duckdb(ray_session, con):
    got = T.doc_zscores(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = con.execute("""
        WITH s AS (SELECT CAST(sum(n_chars) AS BIGINT) AS s,
                          CAST(sum(n_chars*n_chars) AS BIGINT) AS sq,
                          count(*) AS n FROM docs)
        SELECT doc_id, n_chars,
               (CAST(n_chars AS DOUBLE) - CAST(s AS DOUBLE)/n)
               / sqrt(CAST(sq AS DOUBLE)/n
                      - (CAST(s AS DOUBLE)/n)*(CAST(s AS DOUBLE)/n)) AS z
          FROM docs, s ORDER BY doc_id""").df()
    assert (got["doc_id"] == want["doc_id"]).all()
    np.testing.assert_array_equal(got["z"].to_numpy(), want["z"].to_numpy())


def test_doc_length_token_corr_vs_duckdb(ray_session, con):
    got = T.doc_length_token_corr(SF).to_pandas()
    want = con.execute(r"""
        WITH t AS (SELECT length(text) AS x,
                          len(regexp_extract_all(text, '\S+')) AS y FROM docs),
        s AS (SELECT CAST(sum(x) AS BIGINT) sx, CAST(sum(y) AS BIGINT) sy,
                     CAST(sum(x*y) AS BIGINT) sxy, CAST(sum(x*x) AS BIGINT) sxx,
                     CAST(sum(y*y) AS BIGINT) syy, count(*) n FROM t)
        SELECT n, ((CAST(sxy AS DOUBLE)/n) - (CAST(sx AS DOUBLE)/n)*(CAST(sy AS DOUBLE)/n))
               / sqrt(((CAST(sxx AS DOUBLE)/n) - (CAST(sx AS DOUBLE)/n)*(CAST(sx AS DOUBLE)/n))
                    * ((CAST(syy AS DOUBLE)/n) - (CAST(sy AS DOUBLE)/n)*(CAST(sy AS DOUBLE)/n))) AS corr
          FROM s""").df()
    assert int(got["n"][0]) == int(want["n"][0])
    assert got["corr"][0] == want["corr"][0]  # bit-exact
    assert 0.5 < got["corr"][0] <= 1.0  # length and tokens correlate


def test_tfidf_top_terms_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import tfidf_top_terms

    got = (
        tfidf_top_terms(SF, n=5)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    want = con.sql("""
        WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                       FROM docs),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
        dfx AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
        s AS (SELECT tf.doc_id, tf.term, tf.tf, dfx.df,
                     row_number() OVER (PARTITION BY tf.doc_id
                                        ORDER BY tf.tf * 1.0 / dfx.df DESC,
                                                 tf.term) AS rank
                FROM tf JOIN dfx USING (term))
        SELECT doc_id, term, tf, df, rank FROM s WHERE rank <= 5
         ORDER BY doc_id, rank
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["term"].tolist() == want["term"].tolist()
    assert got["tf"].tolist() == want["tf"].tolist()
    assert got["df"].tolist() == want["df"].tolist()
    # every document present with exactly n rows (docs have >= 5 terms)
    assert (got.groupby("doc_id").size() == 5).all()


def test_bigram_lm_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import bigram_lm

    got = (
        bigram_lm(SF, min_count=2)
        .to_pandas()
        .sort_values(["w1", "w2"])
        .reset_index(drop=True)
    )
    want = con.sql("""
        WITH s AS (SELECT doc_id, string_split(text, ' ') AS l FROM docs),
        t AS (SELECT doc_id, unnest(l) AS w, generate_subscripts(l, 1) AS i FROM s),
        bg AS (SELECT a.w AS w1, b.w AS w2
                 FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
        p AS (SELECT w1, w2, count(*) AS pair_n FROM bg GROUP BY 1, 2)
        SELECT w1, w2, pair_n FROM p WHERE pair_n >= 2 ORDER BY w1, w2
    """).df()
    assert got["w1"].tolist() == want["w1"].tolist()
    assert got["w2"].tolist() == want["w2"].tolist()
    assert got["pair_n"].tolist() == want["pair_n"].tolist()
    # conditional probabilities sum to <= 1 per context and equal the
    # exact int division (bitwise)
    import numpy as np
    np.testing.assert_array_equal(
        got["cond_p"].to_numpy(),
        got["pair_n"].to_numpy().astype(np.float64)
        / got["w1_n"].to_numpy().astype(np.float64),
    )


def test_doc_bigram_coverage_vs_duckdb(ray_session, con):
    from rios_ray.pipelines.text import doc_bigram_coverage

    got = (
        doc_bigram_coverage(SF, min_count=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = con.sql("""
        WITH s AS (SELECT doc_id, string_split(text, ' ') AS l FROM docs),
        t AS (SELECT doc_id, unnest(l) AS w, generate_subscripts(l, 1) AS i FROM s),
        bg AS (SELECT a.doc_id, a.w AS w1, b.w AS w2
                 FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
        lm AS (SELECT w1, w2 FROM (SELECT w1, w2, count(*) AS n
                                     FROM bg GROUP BY 1, 2) WHERE n >= 5),
        sc AS (SELECT bg.doc_id, count(*) AS n_bigrams, count(lm.w1) AS n_known
                 FROM bg LEFT JOIN lm ON bg.w1 = lm.w1 AND bg.w2 = lm.w2
                GROUP BY 1)
        SELECT doc_id, n_bigrams, n_known FROM sc ORDER BY doc_id
    """).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_bigrams"].tolist() == want["n_bigrams"].tolist()
    assert got["n_known"].tolist() == want["n_known"].tolist()
    # coverage is the exact int division, and known <= total everywhere
    import numpy as np
    np.testing.assert_array_equal(
        got["coverage"].to_numpy(),
        np.divide(got["n_known"], got["n_bigrams"],
                  out=np.zeros(len(got)), where=got["n_bigrams"] > 0),
    )
    assert (got["n_known"] <= got["n_bigrams"]).all()


def test_bigram_coverage_fallback_path_equal(ray_session, tmp_path, force_strategy):
    """The partitioned membership plan equals the broadcast plan
    exactly, including zero-bigram and all-unknown documents."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pqm

    from rios_ray.pipelines.text import doc_bigram_coverage

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "common pair common pair common pair common pair common pair",
            "one",                                          # zero bigrams
            "totally unique words here never repeated",      # all unknown
            "common pair common pair common pair common pair again",
        ]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["t"] * 4),
        "n_chars": pa.array([10] * 4, type=pa.int64()),
    })
    sf = str(tmp_path / "sfedge")
    os.makedirs(sf, exist_ok=True)
    pqm.write_table(docs, os.path.join(sf, "documents.parquet"))
    force_strategy("broadcast")
    a = (doc_bigram_coverage(sf, min_count=3)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    force_strategy("partitioned")
    b = (doc_bigram_coverage(sf, min_count=3)
         .to_pandas().sort_values("doc_id").reset_index(drop=True)[list(a.columns)])
    assert a.equals(b)
    assert len(a) == 4 and (a.loc[a.doc_id == 1, "n_bigrams"] == 0).all()
    assert (a.loc[a.doc_id == 2, "n_known"] == 0).all()


def test_levenshtein_batch_vs_scalar_and_duckdb():
    """Batched DP (prefix-min vectorization) matches a scalar DP oracle
    and DuckDB's levenshtein on random + degenerate pairs."""
    import random
    import string

    import duckdb

    from rios_ray.text.analysis import levenshtein_batch

    def scalar(a, b):
        la, lb = len(a), len(b)
        prev = list(range(la + 1))
        for j in range(1, lb + 1):
            cur = [j] + [0] * la
            for i in range(1, la + 1):
                cur[i] = min(prev[i] + 1, cur[i - 1] + 1,
                             prev[i - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[la]

    rng = random.Random(3)
    pairs = [("", ""), ("abc", ""), ("", "xyz"), ("same", "same"),
             ("kitten", "sitting")]
    for _ in range(200):
        a = "".join(rng.choices(string.ascii_lowercase + " ",
                                k=rng.randrange(0, 40)))
        b = "".join(rng.choices(string.ascii_lowercase + " ",
                                k=rng.randrange(0, 40)))
        pairs.append((a, b))
    got = levenshtein_batch([p[0] for p in pairs], [p[1] for p in pairs])
    assert got.tolist() == [scalar(a, b) for a, b in pairs]
    con = duckdb.connect()
    for (a, b), g in zip(pairs[:40], got[:40]):
        assert con.sql("SELECT levenshtein(?, ?)",
                       params=[a, b]).fetchone()[0] == g


def test_quality_weighted_sample_vs_duckdb(ray_session, con):
    """The ENTIRE keep decision (bit-exact quality x Knuth bucket) is
    SQL-reproducible, and the sample upweights quality."""
    from rios_ray.pipelines.text import quality_weighted_sample

    got = quality_weighted_sample(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    en = A.STOPWORD_RES["en"]
    want = con.execute(rf"""
        WITH q AS (
            SELECT doc_id,
                   LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
                 + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
                     / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
                 + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
                     / GREATEST(length(text),1)) * 10.0))*0.2 AS quality
              FROM docs
        )
        SELECT doc_id, quality FROM q
         WHERE ((doc_id % 4294967296) * 2654435761) % 4294967296 % 10000
               < CAST(floor(quality * 10000) AS BIGINT)
         ORDER BY doc_id""").df()
    assert len(got) > 0
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert np.array_equal(got["quality"].to_numpy(), want["quality"].to_numpy())
    # sampled mean quality exceeds the corpus mean (importance property)
    corpus = con.execute(rf"""
        SELECT avg(LEAST(1.0, len(regexp_extract_all(text,'\S+'))/64.0)*0.5
                 + LEAST(1.0, (len(regexp_extract_all(lower(text),'{en}'))
                     / GREATEST(len(regexp_extract_all(text,'\S+')),1)) * 8.0)*0.3
                 + (1.0 - LEAST(1.0, (len(regexp_extract_all(text,'[^\w\s]'))
                     / GREATEST(length(text),1)) * 10.0))*0.2) FROM docs
    """).fetchone()[0]
    assert got["quality"].mean() > corpus


def test_token_percentile_rank_vs_duckdb(ray_session, con):
    """Broadcast-histogram percentile rank == SQL window functions
    (rank()-1 and percent_rank), bit-exact including the division."""
    from rios_ray.pipelines.text import token_percentile_rank

    got = token_percentile_rank(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    want = con.execute(r"""
        WITH t AS (SELECT doc_id,
                          len(regexp_extract_all(text, '\S+')) AS n_tokens
                     FROM docs)
        SELECT doc_id, n_tokens,
               rank() OVER (ORDER BY n_tokens) - 1 AS n_smaller,
               percent_rank() OVER (ORDER BY n_tokens) AS pct_rank
          FROM t ORDER BY doc_id""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()
    assert got["n_smaller"].tolist() == want["n_smaller"].tolist()
    assert np.array_equal(got["pct_rank"].to_numpy(),
                          want["pct_rank"].to_numpy())
    assert got["pct_rank"].max() > 0.9 and got["pct_rank"].min() == 0.0


def test_bm25_scores_bit_exact_vs_duckdb(ray_session, con):
    """BM25 against the fixed term set matches the SQL mirror
    bit-for-bit (integer corpus stats, shared IEEE op chains, fixed-
    order term sum — DuckDB's Kahan fsum is NOT exact on these
    mixed-sign values, which is why the oracle pivots instead)."""
    from rios_ray.pipelines.text import bm25_scores

    got = bm25_scores(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = con.execute("""
        WITH q(term) AS (VALUES ('data'), ('join'), ('vector'), ('dup')),
        dd AS (SELECT doc_id, string_split(text, ' ') AS toks,
                      len(string_split(text, ' ')) AS dl FROM docs),
        stats AS (SELECT count(*) AS n,
                         CAST(CAST(sum(dl) AS BIGINT) AS DOUBLE) / count(*) AS avgdl
                    FROM dd),
        tf AS (SELECT dd.doc_id, q.term, dd.dl,
                      len(list_filter(dd.toks, x -> x = q.term)) AS tf
                 FROM dd CROSS JOIN q
                WHERE len(list_filter(dd.toks, x -> x = q.term)) > 0),
        df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
        idf AS (SELECT term, ln(((SELECT n FROM stats) - df + CAST(0.5 AS DOUBLE))
                                / (df + CAST(0.5 AS DOUBLE))) AS idf FROM df),
        sc AS (SELECT tf.doc_id, tf.term,
                      idf.idf * ((tf.tf * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
                      / (tf.tf + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE)
                         - CAST(0.75 AS DOUBLE) + CAST(0.75 AS DOUBLE)
                           * (tf.dl / (SELECT avgdl FROM stats))))) AS s
                 FROM tf JOIN idf USING (term))
        SELECT doc_id,
               ((COALESCE(max(CASE WHEN term = 'data' THEN s END), CAST(0.0 AS DOUBLE))
                 + COALESCE(max(CASE WHEN term = 'join' THEN s END), CAST(0.0 AS DOUBLE)))
                + COALESCE(max(CASE WHEN term = 'vector' THEN s END), CAST(0.0 AS DOUBLE)))
               + COALESCE(max(CASE WHEN term = 'dup' THEN s END), CAST(0.0 AS DOUBLE)) AS score
          FROM sc GROUP BY 1 ORDER BY 1""").df()
    assert len(got) > 0
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert np.array_equal(got["score"].to_numpy(), want["score"].to_numpy())
    # the rare term carries the only positive idf (df << n/2), so docs
    # containing 'dup' score higher on average than the rest
    import pyarrow.parquet as pq
    texts = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pandas()
    has_dup = set(texts.loc[[("dup" in t.split(" ")) for t in texts["text"]], "doc_id"])
    if has_dup:
        g = got.set_index("doc_id")["score"]
        dup_mean = g[g.index.isin(has_dup)].mean()
        rest_mean = g[~g.index.isin(has_dup)].mean()
        assert dup_mean > rest_mean


def test_bigram_pmi_vs_duckdb(ray_session):
    """PMI collocation scorer: exact-int marginals, bitwise lift, and
    libm-log pmi vs the driver oracle at sf0.001."""
    import sys

    import numpy as np

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod

    got = entrymod.queries()["bigram_pmi"](SF).to_pandas()
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    want = c.execute(entrymod.oracle_sql()["bigram_pmi"]).df()
    assert len(got) == len(want) > 0
    cols = ["w1", "w2", "pair_n", "w1_n", "w2_n", "total_n", "lift", "pmi"]
    g = got[cols].sort_values(["w1", "w2"]).reset_index(drop=True)
    w = want[cols].sort_values(["w1", "w2"]).reset_index(drop=True)
    for c in cols[:6]:
        assert g[c].tolist() == w[c].tolist(), c
    assert np.array_equal(g["lift"].to_numpy(), w["lift"].to_numpy())
    assert np.array_equal(g["pmi"].to_numpy(), w["pmi"].to_numpy())
    assert (got["total_n"] == got["total_n"].iloc[0]).all()
    # marginal identity: when min_count filters nothing (true at this
    # sf: every pair survives), sum of pair_n per w1 equals w1_n
    if len(got) == len(want):
        chk = got.groupby("w1")["pair_n"].sum()
        w1n = got.drop_duplicates("w1").set_index("w1")["w1_n"]
        full = chk[chk.index.isin(w1n.index)]
        # identity holds exactly on contexts fully retained by the filter
        assert (w1n.loc[full.index] >= full).all()
