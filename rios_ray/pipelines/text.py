"""Text-analysis pipelines over the documents table.

Each pipeline is one or two stateless vectorized ``map_batches`` stages
(pyarrow RE2 kernels — the same regex engine DuckDB uses, so the oracle
SQL in ``__ray_entry__.py`` is bit-identical).  Streaming end to end:
nothing is materialized except the caller's consumption.
"""

from __future__ import annotations

import numpy as np
import ray
import ray.data

from ..sources.documents import read_documents
from ..text import analysis as A

BATCH_SIZE = 16384


def _one_stage(sf_dir: str, fn, columns: list[str]) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=columns)
    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


def token_stats(sf_dir: str) -> ray.data.Dataset:
    """doc_id + n_chars_txt / n_tokens / n_alpha / n_punct / n_bpe."""
    return _one_stage(sf_dir, A.token_stats, ["doc_id", "text"]).drop_columns(["text"])


def quality(sf_dir: str) -> ray.data.Dataset:
    """doc_id + [0,1] quality score (length / stopword / punct ratios)."""
    return _one_stage(sf_dir, A.quality_score, ["doc_id", "text"]).select_columns(
        ["doc_id", "quality"]
    )


def repetition(sf_dir: str) -> ray.data.Dataset:
    """doc_id + Gopher-style repetition fractions (word / top-2-gram /
    dup-3-gram) — the within-document quality companion to the
    cross-document dedup pipelines."""
    return _one_stage(sf_dir, A.repetition_stats, ["doc_id", "text"]).select_columns(
        ["doc_id", "word_rep_frac", "top2gram_frac", "dup3gram_frac"]
    )


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """doc_id + lang_pred (stopword n-gram heuristic, 'und' fallback)."""
    return _one_stage(sf_dir, A.lang_id, ["doc_id", "text"]).select_columns(
        ["doc_id", "lang_pred"]
    )


def fingerprints(sf_dir: str) -> ray.data.Dataset:
    """doc_id + normalized-text md5 + winnowing fingerprint size."""
    ds = _one_stage(sf_dir, A.md5_fingerprint, ["doc_id", "text"])
    ds = ds.map_batches(
        A.winnow_fingerprints, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    return ds.select_columns(["doc_id", "text_md5", "fp_size"])


def top_token_pages(sf_dir: str, k: int = 100):
    """Top-k documents by token count (sort/limit surface).

    Scalable top-k: per-batch local top-k (one argpartition) before the
    single tiny final merge — the global ``ds.sort`` is avoided the same
    way the kNN merge avoids it (pre-aggregate-before-shuffle for
    order statistics).  Ties broken on doc_id ascending.
    """
    import numpy as np
    import pyarrow as pa

    from ..functions.agg import gather_final

    def local_topk(b: pa.Table) -> pa.Table:
        n = b["n_tokens"].to_numpy()
        ids = b["doc_id"].to_numpy()
        # the batch-local selection must use the SAME total order as the
        # final merge (value desc, id asc) — a value-only argpartition
        # can discard the tie-winner at the k-th boundary
        top = np.lexsort((ids, -n))[: min(k, len(n))]
        return pa.table({"doc_id": pa.array(ids[top]), "n_tokens": pa.array(n[top])})

    def final(b: pa.Table) -> pa.Table:
        n = b["n_tokens"].to_numpy()
        ids = b["doc_id"].to_numpy()
        order = np.lexsort((ids, -n))[:k]
        return pa.table(
            {
                "doc_id": pa.array(ids[order]),
                "n_tokens": pa.array(n[order]),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    ds = token_stats(sf_dir).select_columns(["doc_id", "n_tokens"])
    local = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    return gather_final(local, final)


def pii(sf_dir: str) -> ray.data.Dataset:
    """doc_id + per-pattern PII match counts + redacted text.

    One stateless vectorized stage (pyarrow RE2 count + global replace);
    patterns and replace order defined in ``analysis.PII_RES``.
    """
    return _one_stage(sf_dir, A.pii_scan, ["doc_id", "text"]).select_columns(
        ["doc_id", "n_email", "n_phone", "n_ipv4", "redacted"]
    )


DECON_TOKENS = 3  # leading-token n-gram used as the benchmark probe
DECON_EVERY = 100  # every doc_id % DECON_EVERY == 0 doc seeds the bench set


def _gram_keys(tok_flat: "np.ndarray", starts: "np.ndarray", n: int):
    """u64 keys of the token n-grams starting at ``starts`` within the
    flat token array — an order-sensitive chained mix of per-token FNV
    hashes (no joined-string allocation per position)."""
    import numpy as np
    import pyarrow as pa

    from ..dedup.hashing import fnv1a64_arrow

    h = fnv1a64_arrow(pa.array(tok_flat, type=pa.string()))
    mix = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        key = h[starts].copy()
        for j in range(1, n):
            key = key * mix ^ h[starts + j]
    return key


def decontaminate(sf_dir: str, tokens: int = DECON_TOKENS,
                  every: int = DECON_EVERY, method: str = "substring",
                  probes_per_doc: int = 1):
    """Benchmark decontamination: flag corpus documents containing any
    benchmark probe, one output row per contaminated doc with the
    number of probes found (probe multiplicity counted, each probe at
    most once per doc).

    The "benchmark" set is derived deterministically (every
    ``every``-th doc's first ``tokens`` whitespace tokens); real use
    substitutes published eval-set n-grams.  Probes are small by
    construction (eval suites ≪ corpus), so both methods are broadcast
    semi-joins — shipped once via ``ray.put``, no shuffle:

    - ``"substring"``: one vectorized ``match_substring`` memmem scan
      per probe per batch.  Right for tens-to-hundreds of probes;
      O(probes) full-column scans if someone loads 100k probes.
    - ``"ngram"`` (the scale path): hash every token-aligned n-gram of
      each document once and test membership against the SORTED probe-
      key array with one searchsorted per batch (the
      ``doc_bigram_coverage`` membership trick) — cost is
      O(doc_tokens + log probes) per batch regardless of probe count.
      Token-ALIGNED matching is the standard eval-decontamination
      definition; it differs from substring only when a probe matches
      mid-token (e.g. probe "a b" inside "xa b").

    Returns contaminated (doc_id, n_hits) rows, doc_id ascending not
    guaranteed (order-insensitive result).
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    def keep_bench(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(b["doc_id"].to_numpy() % every == 0))

    bench = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        keep_bench, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    # ``probes_per_doc`` > 1 seeds the doc's first N overlapping
    # (stride-1) grams — the bench.py knob for driving the probe count
    # to 10^5 (real use loads the published eval-set n-grams instead).
    # The j=0 probe keeps the oracle's list_slice semantics (short docs
    # yield short probes); extra probes require full n-grams.
    grams = []
    for t in bench["text"]:
        toks = t.split(" ")
        grams.append(" ".join(toks[:tokens]))
        for j in range(1, probes_per_doc):
            seg = toks[j:j + tokens]
            if len(seg) == tokens:
                grams.append(" ".join(seg))
    # an empty probe (empty bench doc) would match_substring('') every
    # row and flag the whole corpus — drop them (oracle SQL mirrors)
    grams = [g for g in grams if g]

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    if method == "ngram":
        # token-aligned matching can only represent FULL n-gram probes;
        # short-doc probes (oracle's list_slice tail) are dropped here,
        # documented — the equality test covers the fixture where none
        # exist.  Duplicate probes count once per occurrence in the
        # bench list (mirrors the substring loop): unique keys + counts.
        full = [g for g in grams if g.count(" ") == tokens - 1]
        pk = _gram_keys(
            np.concatenate([g.split(" ") for g in full])
            if full else np.zeros(0, object),
            np.arange(0, len(full) * tokens, tokens, dtype=np.int64),
            tokens,
        )
        ukeys, mult = np.unique(pk, return_counts=True)
        probes_ref = ray.put((ukeys, mult.astype(np.int64)))

        def flag_ngram(b: pa.Table) -> pa.Table:
            known, weight = ray.get(probes_ref)
            b = b.filter(pa.array(b["doc_id"].to_numpy() % every != 0))
            df = b.to_pandas()
            tok = df["text"].str.split(" ")
            lens = tok.str.len().to_numpy().astype(np.int64)
            n_grams = np.maximum(lens - tokens + 1, 0)
            hits = np.zeros(len(df), dtype=np.int64)
            if n_grams.sum() and len(known):
                flat = np.concatenate(tok.to_numpy())
                doc_tok0 = np.cumsum(lens) - lens
                within = np.arange(int(n_grams.sum()), dtype=np.int64) - np.repeat(
                    np.cumsum(n_grams) - n_grams, n_grams
                )
                starts = np.repeat(doc_tok0, n_grams) + within
                keys = _gram_keys(flat, starts, tokens)
                pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
                hit = known[pos] == keys
                doc_of = np.repeat(np.arange(len(df), dtype=np.int64), n_grams)
                # each probe at most once per doc: dedupe (doc, probe) pairs
                packed = np.unique(doc_of[hit] * np.int64(len(known)) + pos[hit])
                hits = np.bincount(
                    packed // len(known),
                    weights=weight[packed % len(known)].astype(np.float64),
                    minlength=len(df),
                ).astype(np.int64)
            mask = hits > 0
            return pa.table({
                "doc_id": pa.array(df["doc_id"].to_numpy()[mask], type=pa.int64()),
                "n_hits": pa.array(hits[mask]),
            })

        return ds.map_batches(
            flag_ngram, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=BATCH_SIZE,
        )

    grams_ref = ray.put(grams)

    def flag(b: pa.Table) -> pa.Table:
        probes = ray.get(grams_ref)  # zero-copy local fetch after first batch
        b = b.filter(pa.array(b["doc_id"].to_numpy() % every != 0))
        hits = np.zeros(b.num_rows, dtype=np.int64)
        for g in probes:
            hits += pc.match_substring(b["text"], g).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
        mask = hits > 0
        return pa.table(
            {
                "doc_id": b["doc_id"].filter(pa.array(mask)),
                "n_hits": pa.array(hits[mask]),
            }
        )

    return ds.map_batches(
        flag, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


def vocab_topk(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Corpus vocabulary by document frequency: top-k tokens by the
    number of distinct documents containing them.

    The scale shape for a corpus-wide term statistic: per-batch
    DISTINCT (doc, token) -> local token->df partial (one row per
    distinct token per batch enters the exchange, not one per token
    occurrence), the combiner-first grouped sum, then the shared
    distributed top-k — no global sort, no driver materialization of
    the vocabulary.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import distributed_topk, hash_grouped_aggregate

    def local_df(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        tok = df["text"].str.split(" ")
        exploded = pd.DataFrame(
            {
                "doc_id": df["doc_id"].repeat(tok.str.len()),
                "token": np.concatenate(tok.to_numpy()),
            }
        )
        counts = (
            exploded.drop_duplicates(["doc_id", "token"])["token"]
            .value_counts()
            .rename_axis("token")
            .reset_index(name="df_part")
        )
        return pa.table(
            {
                "token": pa.array(counts["token"], type=pa.string()),
                "df_part": pa.array(counts["df_part"].to_numpy(), type=pa.int64()),
            }
        )

    ds = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        local_df, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    per_token = hash_grouped_aggregate(ds, ["token"], [("df_part", "sum", "df")])
    return distributed_topk(per_token, k, ["df", "token"], [False, True])


QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)


def token_quantiles(sf_dir: str, qs: tuple = QUANTILES):
    """Exact distributed quantiles of per-document token counts.

    The raster A5 pattern (histogram -> median/mode,
    ``stats.py::median_mode_from_hist``) applied to text: token counts
    are small integers, so a unit-width histogram is EXACT — per-batch
    grouped-count partials shuffle one row per distinct count per
    batch, the merged histogram is tiny (bounded by max doc length),
    and the driver reads quantiles off the cumulative sum.  Quantile
    rule: smallest value with cumfreq >= ceil(q * n) — mirrored
    exactly by the oracle SQL's window cumsum.
    """
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate
    from ..text.analysis import TOKEN_RE

    def count_tokens(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b["text"], TOKEN_RE).cast(pa.int64())
        return pa.table({"n_tokens": n})

    ds = read_documents(sf_dir, columns=["text"]).map_batches(
        count_tokens, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    hist = hash_grouped_aggregate(
        ds, ["n_tokens"], [(None, "count", "c")], final_mode="tree"
    ).to_pandas()
    hist = hist.sort_values("n_tokens").reset_index(drop=True)
    cum = hist["c"].cumsum()
    total = int(cum.iloc[-1])
    rows = []
    for q in qs:
        import math

        rank = math.ceil(q * total)
        idx = int((cum >= rank).idxmax())
        rows.append({"q": float(q), "value": int(hist["n_tokens"][idx])})
    return pd.DataFrame(rows)


BM25_TERMS = ("data", "join", "vector", "dup")  # mixed document frequencies


def bm25_scores(sf_dir: str, terms: tuple = BM25_TERMS,
                k1: float = 1.2, b: float = 0.75) -> ray.data.Dataset:
    """(doc_id, score): Okapi BM25 relevance of every document against
    a fixed query-term set — the retrieval-scoring operator, with
    BIT-EXACT float parity against the SQL oracle.

    Exactness plan: corpus stats (n docs, per-term document frequency,
    total token count) are INTEGERS from a combiner exchange; ``avgdl``
    and each per-(doc,term) score are fixed chains of single IEEE ops
    mirrored literally in the SQL (all constants forced to DOUBLE there
    — bare decimals parse as DECIMAL and diverge); the per-doc sum over
    the FIXED term set is a left-associated chain of adds in term order
    (unmatched terms contribute 0.0), mirrored by an explicit
    parenthesized COALESCE-pivot in the SQL — NOT an aggregate: BM25
    scores are mixed-sign, and DuckDB's ``fsum`` is Kahan-compensated
    (observed 1-ulp off the exactly-rounded sum on 3 mixed-sign terms),
    so only a fixed-order scalar chain is engine-mirrorable.  ``ln`` is
    bit-identical libm on this platform (verified for the HLL oracle).

    Two passes (the corpus-statistic shape): stats first, then a
    streaming score scan with the tiny (term, df, idf) table broadcast.
    Tokens are ``text.split(" ")`` — the oracle's ``string_split``.
    """
    import math

    import pyarrow as pa

    from ..functions.agg import hash_grouped_aggregate

    terms = tuple(terms)
    t_index = {t: i for i, t in enumerate(terms)}

    def _tf_dl(b_: pa.Table):
        """(tf matrix docs x terms, dl vector) for one batch."""
        tok = [s.split(" ") for s in b_["text"].to_pylist()]
        dl = np.fromiter((len(t) for t in tok), dtype=np.int64, count=len(tok))
        flat = np.concatenate(tok) if tok else np.zeros(0, object)
        doc_of = np.repeat(np.arange(len(tok)), dl)
        tf = np.zeros((len(tok), len(terms)), dtype=np.int64)
        for t, j in t_index.items():
            hit = flat == t
            if hit.any():
                tf[:, j] = np.bincount(doc_of[hit], minlength=len(tok))
        return tf, dl

    def stats_partial(b_: pa.Table) -> pa.Table:
        tf, dl = _tf_dl(b_)
        return pa.table({
            "term_idx": pa.array(np.arange(len(terms) + 1, dtype=np.int64)),
            "df": pa.array(np.concatenate([(tf > 0).sum(axis=0), [0]])),
            "n_docs": pa.array([0] * len(terms) + [len(dl)], type=pa.int64()),
            "sum_dl": pa.array([0] * len(terms) + [int(dl.sum())], type=pa.int64()),
        })

    stats = hash_grouped_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            stats_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=BATCH_SIZE,
        ),
        ["term_idx"],
        [("df", "sum", "df"), ("n_docs", "sum", "n_docs"),
         ("sum_dl", "sum", "sum_dl")],
        final_mode="tree",
    ).to_pandas().set_index("term_idx")
    n = int(stats["n_docs"].sum())
    avgdl = float(int(stats["sum_dl"].sum())) / n  # exact ints, one division
    df = np.array([int(stats.loc[j, "df"]) for j in range(len(terms))])
    idf = np.array([
        math.log((n - int(d) + 0.5) / (int(d) + 0.5)) for d in df
    ])
    ref = ray.put(idf)

    def score(b_: pa.Table) -> pa.Table:
        idf_ = ray.get(ref)
        tf, dl = _tf_dl(b_)
        tf_f = tf.astype(np.float64)
        dl_f = dl.astype(np.float64)
        num = tf_f * (k1 + 1.0)
        den = tf_f + k1 * (1.0 - b + b * (dl_f / avgdl)[:, None])
        per_term = idf_[None, :] * (num / den)
        matched = tf > 0
        keep = matched.any(axis=1)
        # fixed-order left-associated chain over the term set, 0.0 for
        # unmatched — the only summation order SQL can mirror exactly
        contrib = np.where(matched, per_term, 0.0)
        scores = contrib[:, 0]
        for j in range(1, len(terms)):
            scores = scores + contrib[:, j]
        return pa.table({
            "doc_id": b_["doc_id"].filter(pa.array(keep)),
            "score": pa.array(scores[keep], type=pa.float64()),
        })

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def token_percentile_rank(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_tokens, n_smaller, pct_rank): every document's global
    token-count percentile rank — the ``PERCENT_RANK() OVER (ORDER BY
    n_tokens)`` window function WITHOUT a global sort.

    Token counts are small integers, so the exact unit-width histogram
    (the ``token_quantiles`` exchange — one row per distinct count per
    batch) is tiny; the driver turns it into a sorted value array +
    exclusive cumulative counts, broadcasts once, and a second
    streaming pass over the corpus reads each document's
    strictly-smaller count with one searchsorted per batch.  Rank
    semantics mirror SQL exactly: ``n_smaller = rank() - 1`` and
    ``pct_rank = n_smaller / (N - 1)`` (0.0 when N = 1) — one float
    division, bit-identical across engines.  Two passes over the text
    (the q17 correlated-statistic shape): the histogram is a function
    of the whole corpus, and re-scanning streams where materializing
    one row per document would not.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate
    from ..text.analysis import TOKEN_RE

    def count_tokens(b: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(b["text"], TOKEN_RE).cast(pa.int64())
        return pa.table({"n_tokens": n})

    hist = hash_grouped_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            count_tokens, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=BATCH_SIZE,
        ),
        ["n_tokens"], [(None, "count", "c")], final_mode="tree",
    ).to_pandas().sort_values("n_tokens")
    vals = hist["n_tokens"].to_numpy()
    counts = hist["c"].to_numpy()
    cum_before = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    total = int(counts.sum())
    ref = ray.put((vals, cum_before, total))

    def attach(b: pa.Table) -> pa.Table:
        v, cb, n_total = ray.get(ref)
        n = pc.count_substring_regex(b["text"], TOKEN_RE).cast(pa.int64())
        nn = n.to_numpy(zero_copy_only=False)
        smaller = cb[np.searchsorted(v, nn, side="left")]
        pct = (
            smaller / (n_total - 1)
            if n_total > 1
            else np.zeros(len(nn), dtype=np.float64)
        )
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": n,
            "n_smaller": pa.array(smaller),
            "pct_rank": pa.array(pct, type=pa.float64()),
        })

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        attach, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


# deterministic sampling: Knuth multiplicative hash of doc_id into
# 10k buckets.  Chosen over a byte-hash because the identical integer
# expression is SQL-computable (on HUGEINT/NUMERIC(38) — the raw
# product needs ~64+32 bits at web-scale ids), so the sample is
# oracle-checkable; production would swap in splitmix64.  The numpy
# side computes in uint64 after reducing doc_id mod 2^32, which is
# congruent and overflow-free for any non-negative int64 doc_id.
SAMPLE_MULT = 2654435761
SAMPLE_MOD = 4294967296
SAMPLE_BUCKETS = 10000


def stratified_sample(
    sf_dir: str,
    rates: dict[str, float] | None = None,
    key_col: str = "source",
    default_rate: float = 0.5,
) -> ray.data.Dataset:
    """Deterministic per-stratum sampling — the corpus-mixing primitive
    (rates = per-source mixing weights for training-data recipes).

    A row is kept iff ``hash(doc_id) % 10000 < rate[stratum] * 10000``:
    a pure row-local predicate, so the operator is a single stateless
    ``map_batches`` filter — no shuffle, no RNG state, and re-running a
    failed shard reproduces the same sample (resumability contract).
    Thresholds are resolved per batch via dictionary-encode + a numpy
    gather over stratum codes (no Python loop over rows).
    """
    import numpy as np
    import pyarrow as pa

    rates = dict(rates or {})

    def sample(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (
            ((ids % np.uint64(SAMPLE_MOD)) * np.uint64(SAMPLE_MULT))
            % np.uint64(SAMPLE_MOD)
        ).astype(np.int64) % SAMPLE_BUCKETS
        strat = b[key_col].combine_chunks().dictionary_encode()
        names = strat.dictionary.to_pylist()
        thr = np.array(
            [int(rates.get(n, default_rate) * SAMPLE_BUCKETS) for n in names],
            dtype=np.int64,
        )
        codes = strat.indices.to_numpy(zero_copy_only=False)
        return b.filter(pa.array(bucket < thr[codes]))

    return read_documents(
        sf_dir, columns=["doc_id", "lang", key_col, "n_chars"]
    ).map_batches(
        sample, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


def quality_weighted_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic importance sampling by quality score: keep each
    document with probability equal to its [0,1] quality — the
    soft-curation alternative to corpus_clean's hard threshold (high-
    quality text is kept almost surely, low-quality text survives at a
    rate proportional to its score, so the sampled mix upweights
    quality without a cliff).

    Row-local and RNG-free like :func:`stratified_sample`: keep iff
    ``knuth_bucket(doc_id) < floor(quality * 10000)``.  The quality
    kernel is bit-exact vs SQL (same IEEE ops in the same order), the
    threshold is one exact float->int floor, and the bucket is integer
    arithmetic — so the sample is reproducible per shard (resumability)
    and the oracle gates the ENTIRE keep decision, not just counts.
    One stateless map_batches; no shuffle.
    """
    import numpy as np
    import pyarrow as pa

    def sample(b: pa.Table) -> pa.Table:
        b = A.quality_score(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (
            ((ids % np.uint64(SAMPLE_MOD)) * np.uint64(SAMPLE_MULT))
            % np.uint64(SAMPLE_MOD)
        ).astype(np.int64) % SAMPLE_BUCKETS
        q = b["quality"].to_numpy(zero_copy_only=False)
        thr = np.floor(q * SAMPLE_BUCKETS).astype(np.int64)
        keep = bucket < thr
        return pa.table({
            "doc_id": b["doc_id"].filter(pa.array(keep)),
            "quality": pa.array(q[keep]),
        })

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        sample, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def corpus_clean(
    sf_dir: str,
    min_quality: float = 0.7,
    max_word_rep: float = 0.6,
    lang: str = "en",
) -> ray.data.Dataset:
    """End-to-end corpus cleaning — the composed LLM-data pipeline:

    1. language-ID filter (keep ``lang`` predictions),
    2. quality-score floor,
    3. word-repetition ceiling,
    4. exact dedup among the survivors (normalized-md5 groups, min
       doc_id wins).

    Steps 1-3 plus the md5 are ONE streamed batch pass (all signals are
    batch-local); the dedup is a single keyed exchange whose kernel
    keeps each group's min-doc_id row.  Runs over the duplicate-injected
    corpus (``dedup.dup_corpus``) so step 4 has real work.
    Returns (doc_id, quality, word_rep_frac) of kept docs.
    """
    from ..functions.agg import hash_partitioned_groups
    from .dedup import dup_corpus

    def signals(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        b = A.quality_score(b)
        b = A.lang_id(b)
        b = A.repetition_stats(b)
        b = A.md5_fingerprint(b)
        q = b["quality"].to_numpy(zero_copy_only=False)
        r = b["word_rep_frac"].to_numpy(zero_copy_only=False)
        keep = pc.and_(
            pa.array((q >= min_quality) & (r <= max_word_rep)),
            pc.equal(b["lang_pred"], lang),
        )
        return b.filter(keep).select(
            ["doc_id", "text_md5", "quality", "word_rep_frac"]
        )

    survivors = dup_corpus(sf_dir).map_batches(
        signals, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )

    def first_per_md5(tbl):
        import numpy as np
        import pyarrow as pa

        md5 = tbl["text_md5"].to_numpy(zero_copy_only=False)
        did = tbl["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, md5))
        first = np.r_[True, md5[order][1:] != md5[order][:-1]]
        return tbl.take(pa.array(order[first])).select(
            ["doc_id", "quality", "word_rep_frac"]
        )

    return hash_partitioned_groups(survivors, ["text_md5"], first_per_md5)


def paragraph_dedup(sf_dir: str, sep: str = " ") -> ray.data.Dataset:
    """CCNet-style paragraph-level exact dedup: split every document
    into paragraphs, keep only the globally FIRST occurrence of each
    distinct paragraph (ordered by ``(doc_id, position)``), and rebuild
    each document from its surviving paragraphs in original order.

    On a real crawl ``sep`` is ``"\\n"``; the synthetic corpus has no
    newlines, so the driver query runs at token granularity (``sep=" "``)
    — identical code path, oracle-checkable.

    Scale shape (two keyed exchanges, both content-bounded):

    1. **explode** — vectorized ``split_pattern`` + offset arithmetic,
       one row per non-empty paragraph, no per-row Python;
    2. **first-occurrence** — exchange keyed by paragraph text; each
       partition keeps one winner per paragraph with a single composite
       Arrow sort (``ranked_head_per_key`` with n=1, the distributed
       ``row_number() = 1``);
    3. **reassemble** — exchange keyed by doc_id; per partition one
       sort + ``binary_join`` over a rebuilt large-list column.

    At 10^12-document scale the paragraph strings cross exchange 1 once
    (like the dedup gram exchange); if paragraph bytes dominate, the
    alternative is hashing paragraphs to u128 for the winner vote and
    re-joining winners to text by ``(doc_id, idx)`` — one more exchange,
    ~32 bytes/row instead of paragraph bytes.  Not needed at bench scale.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import hash_partitioned_groups
    from ..stages.skew import ranked_head_per_key

    def explode(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern(b["text"], sep)
        la = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) else lists
        flat = la.flatten()
        n = pc.list_value_length(la).to_numpy().astype(np.int64)
        doc = b["doc_id"].to_numpy()
        starts = np.concatenate([[0], np.cumsum(n)[:-1]]) if len(n) else np.zeros(0, np.int64)
        idx = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(starts, n)
        t = pa.table({
            "doc_id": pa.array(np.repeat(doc, n)),
            "idx": pa.array(idx),
            "para": flat,
        })
        return t.filter(pc.not_equal(t["para"], ""))

    def first_only(tbl: pa.Table) -> pa.Table:
        return ranked_head_per_key(
            tbl, "para", 1, [("doc_id", "ascending"), ("idx", "ascending")]
        ).drop_columns(["rank"])

    def reassemble(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("doc_id", "ascending"), ("idx", "ascending")])
        doc = tbl["doc_id"].to_numpy()
        if not len(doc):
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "text": pa.array([], type=pa.string())})
        new = np.concatenate([[True], doc[1:] != doc[:-1]])
        starts = np.flatnonzero(new)
        offsets = np.append(starts, len(doc)).astype(np.int64)
        paras = tbl["para"]
        paras = paras.combine_chunks() if isinstance(paras, pa.ChunkedArray) else paras
        lst = pa.LargeListArray.from_arrays(pa.array(offsets), paras)
        return pa.table({
            "doc_id": pa.array(doc[starts]),
            "text": pc.binary_join(lst, sep).cast(pa.string()),
        })

    exploded = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    kept = hash_partitioned_groups(exploded, ["para"], first_only)
    return hash_partitioned_groups(kept, ["doc_id"], reassemble)


def heavy_hitter_tokens(sf_dir: str, k: int = 30) -> ray.data.Dataset:
    """EXACT tokens with frequency > n/k via a Misra-Gries candidate
    pass + an exact verify scan (``functions/sketch.py``): per-batch
    counters are compressed to k-1 rows (bounded combiner), the merged
    survivor set is a guaranteed superset of the true heavy hitters,
    and a second scan counts only those candidates.  Output
    ``(token, n)`` where ``n * k > total``, integer math both sides.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import gather_final, gathered_blocks, rename_aggregates
    from ..functions.sketch import mg_compress, mg_partial

    def explode(b: pa.Table):
        words = pc.split_pattern(b["text"], " ")
        words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        flat = words.flatten()
        return flat.filter(pc.not_equal(flat, ""))

    def partial(b: pa.Table) -> pa.Table:
        keys, counts = mg_partial(explode(b), k)
        return pa.table({"token": keys, "c": pa.array(counts)})

    docs = read_documents(sf_dir, columns=["text"])
    partials = docs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["token"]).aggregate([("c", "sum")])
        counts = g["c_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        kept, kc = mg_compress(np.arange(len(counts)), counts, k)
        return pa.table({"token": pc.take(g["token"].combine_chunks(),
                                          pa.array(kept))})

    import ray as _ray

    # candidate set: bounded at k-1 rows per input block, so gathering
    # the partials is a tiny driver-side merge (not a data materialize)
    cand = merge(pa.concat_tables(gathered_blocks(partials)))
    cand_ref = _ray.put(cand["token"].combine_chunks().cast(pa.string()))

    def exact_partial(b: pa.Table) -> pa.Table:
        flat = explode(b)
        hit = flat.filter(pc.is_in(flat, value_set=_ray.get(cand_ref)))
        vc = hit.value_counts()
        toks = vc.field(0).cast(pa.string())
        ns = vc.field(1).cast(pa.int64())
        # null-token row carries this batch's total token count
        return pa.table({
            "token": pa.concat_arrays([toks, pa.array([None], type=pa.string())]),
            "n": pa.concat_arrays([ns, pa.array([len(flat)], type=pa.int64())]),
        })

    counted = docs.map_batches(
        exact_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def final(tbl: pa.Table) -> pa.Table:
        is_tot = pc.is_null(tbl["token"])
        total = int(pc.sum(tbl.filter(is_tot)["n"]).as_py())
        g = tbl.filter(pc.invert(is_tot)).group_by(["token"]).aggregate([("n", "sum")])
        g = rename_aggregates(g, [("n", "sum")], ["n"])
        keep = pc.greater(pc.multiply(g["n"], pa.scalar(k, type=pa.int64())),
                          pa.scalar(total, type=pa.int64()))
        return g.filter(keep)

    return gather_final(counted, final)


def doc_zscores(sf_dir: str) -> ray.data.Dataset:
    """Feature standardization: each document's length z-score against
    the corpus, ``(doc_id, n_chars, z)``.

    The two-pass broadcast-scalar shape: pass 1 is one
    :func:`global_int_sums` pass for the exact integer (sum,
    sum-of-squares, count) — no keyed exchange, OverflowError instead
    of wrapping; pass 2 is a row-local map using the identical float64
    expression as the SQL oracle, so z-scores hash bit-equal.
    """
    import numpy as np
    import pyarrow as pa

    from ..functions.agg import global_int_sums

    docs = read_documents(sf_dir, columns=["doc_id", "n_chars"])

    def terms(b: pa.Table) -> dict:
        x = b["n_chars"]
        return {"s": x, "sq": (x, x), "n": b.num_rows}

    g = global_int_sums(docs, terms)
    s, sq, n = g["s"], g["sq"], g["n"]
    mean = s / n
    std = float(np.sqrt(sq / n - mean * mean))

    def z(b: pa.Table) -> pa.Table:
        x = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_chars": b["n_chars"],
            "z": pa.array((x - mean) / std),
        })

    return docs.map_batches(z, batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=BATCH_SIZE)


def doc_length_token_corr(sf_dir: str) -> ray.data.Dataset:
    """Pearson correlation of document length vs token count — the
    statistical-profiling scalar, computed from exact integer
    (sum x, sum y, sum xy, sum x^2, sum y^2, n) so the final float
    expression is bit-identical to the SQL oracle's regardless of
    reduction order.  One :func:`global_int_sums` pass (no keyed
    exchange, no merge stage) and a one-row ``(n, corr)`` result."""
    import numpy as np
    import pyarrow as pa

    from ..functions.agg import global_int_sums, in_memory
    from ..text.analysis import token_stats

    def terms(b: pa.Table) -> dict:
        t = token_stats(b)
        x, y = t["n_chars_txt"], t["n_tokens"]
        return {"sx": x, "sy": y, "sxy": (x, y), "sxx": (x, x), "syy": (y, y),
                "n": t.num_rows}

    g = global_int_sums(read_documents(sf_dir, columns=["doc_id", "text"]), terms)
    n = g["n"]
    cov = g["sxy"] / n - (g["sx"] / n) * (g["sy"] / n)
    vx = g["sxx"] / n - (g["sx"] / n) * (g["sx"] / n)
    vy = g["syy"] / n - (g["sy"] / n) * (g["sy"] / n)
    return in_memory(pa.table({
        "n": pa.array([n], type=pa.int64()),
        "corr": pa.array([cov / np.sqrt(vx * vy)], type=pa.float64()),
    }))


def lang_confusion(sf_dir: str) -> ray.data.Dataset:
    """Model-evaluation rollup: confusion counts of the table's labeled
    ``lang`` vs the n-gram classifier's ``lang_pred`` — one vectorized
    scoring stage feeding the combiner-first grouped count (bounded
    keys: |langs|^2)."""
    ds = _one_stage(sf_dir, A.lang_id, ["doc_id", "text", "lang"]).select_columns(
        ["lang", "lang_pred"]
    )
    from ..functions.agg import grouped_count

    return grouped_count(ds, ["lang", "lang_pred"], alias="n_docs",
                         final_mode="tree")


def tfidf_top_terms(sf_dir: str, n: int = 5) -> ray.data.Dataset:
    """Per-document top-``n`` terms by tf/df relevance (the rational
    TF-IDF ordering: for a fixed document, rank by tf * idf(df) is
    order-equivalent to rank by tf/df under any monotone idf — using
    the exact rational keeps the score engine-bitwise for the oracle).

    Output (doc_id, term, tf, df, rank), rank 1..n per document,
    ties broken by term.

    Scale shape: per-batch (doc, term, tf) pre-count (docs are whole
    rows, so a batch holds complete documents and the count is final) ->
    materialized once (one row per DISTINCT term per doc — the same
    bounded footprint the df aggregate needs) -> combiner-first df
    aggregate -> strategy-selecting lookup join to attach df (broadcast
    under the cap, partitioned exchange past it) -> per-doc vectorized
    rank inside one keyed exchange.  No global sort; nothing row-wise.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import (
        hash_grouped_aggregate,
        hash_partitioned_groups,
    )
    from ..functions.join import auto_lookup_join

    def local_tf(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        tok = df["text"].str.split(" ")
        exploded = pd.DataFrame(
            {
                "doc_id": df["doc_id"].repeat(tok.str.len()),
                "term": np.concatenate(tok.to_numpy()),
            }
        )
        counts = (
            exploded.groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        return pa.table(
            {
                "doc_id": pa.array(counts["doc_id"].to_numpy(), type=pa.int64()),
                "term": pa.array(counts["term"], type=pa.string()),
                "tf": pa.array(counts["tf"].to_numpy(), type=pa.int64()),
            }
        )

    tf = (
        read_documents(sf_dir, columns=["doc_id", "text"])
        .map_batches(local_tf, batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=BATCH_SIZE)
        .materialize()  # consumed twice: df aggregate + join left side
    )
    df_tbl = hash_grouped_aggregate(tf, ["term"], [(None, "count", "df")])
    joined = auto_lookup_join(
        tf, df_tbl, "term", "term",
        [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())],
        [("df", pa.int64(), "df")],
    )

    def rank_topn(tbl: pa.Table) -> pa.Table:
        score = (
            tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
            / tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        tbl = tbl.append_column("_score", pa.array(score))
        tbl = tbl.sort_by([
            ("doc_id", "ascending"), ("_score", "descending"),
            ("term", "ascending"),
        ])
        doc = tbl["doc_id"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], doc[1:] != doc[:-1]]) if len(doc) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(doc)))
        rank = np.arange(len(doc), dtype=np.int64) - np.repeat(starts, sizes) + 1
        keep = rank <= n
        out = tbl.drop_columns(["_score"]).filter(pa.array(keep))
        return out.append_column("rank", pa.array(rank[keep]))

    return hash_partitioned_groups(joined, ["doc_id"], rank_topn)


def _local_bigram_counts(b: "pa.Table"):
    """Batch-local bigram combiner: vectorized boundary-masked shift
    over the batch's flat token array (no per-doc loop), pre-counted to
    distinct (w1, w2) before the keyed exchange."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    df = b.to_pandas()
    tok = df["text"].str.split(" ")
    lens = tok.str.len().to_numpy().astype(np.int64)
    if lens.sum() == 0:
        return pa.table({"w1": pa.array([], type=pa.string()),
                         "w2": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64())})
    flat = np.concatenate(tok.to_numpy())
    keep = np.ones(len(flat), dtype=bool)
    keep[np.cumsum(lens) - 1] = False  # last token of each doc
    idx = np.flatnonzero(keep)
    pairs = (
        pd.DataFrame({"w1": flat[idx], "w2": flat[idx + 1]})
        .groupby(["w1", "w2"], sort=False)
        .size()
        .reset_index(name="n")
    )
    return pa.table(
        {
            "w1": pa.array(pairs["w1"], type=pa.string()),
            "w2": pa.array(pairs["w2"], type=pa.string()),
            "n": pa.array(pairs["n"].to_numpy(), type=pa.int64()),
        }
    )


def bigram_lm(sf_dir: str, min_count: int = 5) -> ray.data.Dataset:
    """Bigram language-model training counts over whitespace tokens:
    (w1, w2, pair_n, w1_n, cond_p) with cond_p = pair_n / w1_n — the
    conditional-probability table a CCNet-style perplexity filter
    trains on.

    Scale shape: per-batch bigram pre-count (vectorized boundary-masked
    shift over the batch's flat token array — no per-doc loop) ->
    combiner-first (w1, w2) sum -> tiny second aggregate for the w1
    context totals (over the already-aggregated pair table) ->
    strategy-selecting join to attach totals -> threshold.  cond_p is
    one exact-int division, so it hash-compares bitwise vs the oracle.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate
    from ..functions.join import auto_lookup_join

    ds = read_documents(sf_dir, columns=["text"]).map_batches(
        _local_bigram_counts, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    pairs = hash_grouped_aggregate(
        ds, ["w1", "w2"], [("n", "sum", "pair_n")]
    ).materialize()  # consumed twice: context totals + join left side
    ctx = hash_grouped_aggregate(pairs, ["w1"], [("pair_n", "sum", "w1_n")])
    joined = auto_lookup_join(
        pairs, ctx, "w1", "w1",
        [("w1", pa.string()), ("w2", pa.string()), ("pair_n", pa.int64())],
        [("w1_n", pa.int64(), "w1_n")],
    )

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["pair_n"], min_count))
        p = (
            b["pair_n"].to_numpy(zero_copy_only=False).astype(np.float64)
            / b["w1_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        return b.append_column("cond_p", pa.array(p))

    return joined.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def doc_bigram_coverage(sf_dir: str, min_count: int = 5) -> ray.data.Dataset:
    """Per-document bigram-LM coverage: (doc_id, n_bigrams, n_known,
    coverage) where a bigram is KNOWN when the corpus-level LM table
    (:func:`bigram_lm`) holds it with pair_n >= ``min_count`` — the
    out-of-vocabulary-rate fluency filter (the integer-exact core of a
    CCNet-style perplexity gate: rare-bigram documents are the ones a
    real LM scores as high-perplexity).

    Model-broadcast scoring shape: while the LM table
    :func:`~rios_ray.functions.join.fits_broadcast`, its sorted u64 key
    array ships once via ``ray.put`` and membership is one vectorized
    :func:`~rios_ray.functions.join.sorted_lookup` per batch while the
    document scan streams.  A larger LM (a 100 TB corpus can hold
    billions of frequent bigram types) takes the partitioned membership
    exchange (``partitioned_exists_join`` on the u64 key + per-doc
    grouped count): same result, no driver/worker array beyond
    partition size.
    coverage = n_known / n_bigrams is one exact-int division, so the
    comparison is bitwise either way.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import hash_grouped_aggregate

    lm = bigram_lm(sf_dir, min_count=min_count).materialize()
    # known-pair KEYS: u64 mix of (w1, w2) FNV hashes (the 8-byte-per-
    # gram trick of the gram-dedup exchange)
    from ..dedup.hashing import fnv1a64_arrow

    def pair_key(w1_arr, w2_arr) -> np.ndarray:
        with np.errstate(over="ignore"):
            return fnv1a64_arrow(w1_arr) * np.uint64(0x9E3779B97F4A7C15) ^ fnv1a64_arrow(w2_arr)

    import ray as _ray

    from ..functions.join import fits_broadcast, sorted_lookup

    if not fits_broadcast(lm):
        return _bigram_coverage_partitioned(sf_dir, lm, pair_key)

    def lm_keys() -> np.ndarray:
        parts = [
            pair_key(t["w1"], t["w2"])
            for t in _ray.get(lm.to_arrow_refs())
            if t.num_rows
        ]
        keys = np.concatenate(parts) if parts else np.zeros(0, np.uint64)
        return np.sort(keys)

    kref = _ray.put(lm_keys())

    def score(b: pa.Table) -> pa.Table:
        known_sorted = _ray.get(kref)
        df = b.to_pandas()
        tok = df["text"].str.split(" ")
        lens = tok.str.len().to_numpy().astype(np.int64)
        doc_ids = df["doc_id"].to_numpy()
        n_bi = np.maximum(lens - 1, 0)
        if lens.sum() == 0:
            known = np.zeros(len(df), dtype=np.int64)
        else:
            flat = np.concatenate(tok.to_numpy())
            keep = np.ones(len(flat), dtype=bool)
            keep[np.cumsum(lens) - 1] = False
            idx = np.flatnonzero(keep)
            w1 = pa.array(flat[idx], type=pa.string())
            w2 = pa.array(flat[idx + 1], type=pa.string())
            _, hit = sorted_lookup(known_sorted, pair_key(w1, w2))
            doc_of = np.repeat(np.arange(len(df)), n_bi)
            known = np.bincount(doc_of[hit], minlength=len(df)).astype(np.int64)
        cov = np.divide(known, n_bi, out=np.zeros(len(df)), where=n_bi > 0)
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "n_bigrams": pa.array(n_bi),
            "n_known": pa.array(known),
            "coverage": pa.array(cov),
        })

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def _bigram_coverage_partitioned(sf_dir: str, lm, pair_key) -> ray.data.Dataset:
    """Scale fallback for :func:`doc_bigram_coverage`: no broadcast —
    doc bigrams explode to (doc_id, key) rows, a partitioned EXISTS
    join against the LM key set keeps the known ones, and two grouped
    counts rebuild (n_bigrams, n_known) per doc.  Exchange volume is
    one u64 key row per doc bigram occurrence (16 B/row), partition-
    bounded memory everywhere."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import hash_grouped_aggregate
    from ..functions.join import partitioned_exists_join, partitioned_lookup_join

    def explode_keys(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        tok = df["text"].str.split(" ")
        lens = tok.str.len().to_numpy().astype(np.int64)
        n_bi = np.maximum(lens - 1, 0)
        if lens.sum() == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "key": pa.array([], type=pa.int64())})
        flat = np.concatenate(tok.to_numpy())
        keep = np.ones(len(flat), dtype=bool)
        keep[np.cumsum(lens) - 1] = False
        idx = np.flatnonzero(keep)
        keys = pair_key(pa.array(flat[idx], type=pa.string()),
                        pa.array(flat[idx + 1], type=pa.string()))
        doc_of = np.repeat(df["doc_id"].to_numpy(), n_bi)
        return pa.table({"doc_id": pa.array(doc_of, type=pa.int64()),
                         "key": pa.array(keys.view(np.int64))})

    def lm_key_rows(b: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(pair_key(b["w1"], b["w2"]).view(np.int64))})

    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    exploded = docs.map_batches(
        explode_keys, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    ).materialize()  # consumed twice: total count + exists join
    lm_keys_ds = lm.map_batches(
        lm_key_rows, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    totals = hash_grouped_aggregate(
        exploded, ["doc_id"], [(None, "count", "n_bigrams")]
    )
    known_rows = partitioned_exists_join(
        exploded, lm_keys_ds, "key", "key",
        [("doc_id", pa.int64()), ("key", pa.int64())],
    )
    known = hash_grouped_aggregate(
        known_rows, ["doc_id"], [(None, "count", "n_known")]
    )
    # LEFT-join semantics assembled from the inner lookup + two anti
    # joins: docs with zero KNOWN bigrams are absent from `known`, and
    # docs with zero bigrams at all are absent from `totals` — both
    # must still emit a row (the broadcast path and the SQL oracle do)
    joined = partitioned_lookup_join(
        totals, known, "doc_id", "doc_id",
        [("doc_id", pa.int64()), ("n_bigrams", pa.int64())],
        [("n_known", pa.int64(), "n_known")],
    )
    no_known = partitioned_exists_join(
        totals, known, "doc_id", "doc_id",
        [("doc_id", pa.int64()), ("n_bigrams", pa.int64())],
        anti=True,
    )

    def zero_known(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_known", pa.array(np.zeros(b.num_rows, dtype=np.int64))
        )

    no_bigrams = partitioned_exists_join(
        docs.select_columns(["doc_id"]), totals, "doc_id", "doc_id",
        [("doc_id", pa.int64())],
        anti=True,
    )

    def all_zero(b: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(b.num_rows, dtype=np.int64))
        return b.append_column("n_bigrams", z).append_column("n_known", z)

    full = joined.union(
        no_known.map_batches(
            zero_known, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        no_bigrams.map_batches(
            all_zero, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
    )

    def finish(b: pa.Table) -> pa.Table:
        n_bi = b["n_bigrams"].to_numpy(zero_copy_only=False)
        kn = b["n_known"].to_numpy(zero_copy_only=False)
        cov = np.divide(kn, n_bi, out=np.zeros(len(kn)), where=n_bi > 0)
        return b.append_column("coverage", pa.array(cov))

    return full.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


def bigram_pmi(sf_dir: str, min_count: int = 5) -> ray.data.Dataset:
    """Pointwise mutual information of adjacent token pairs:
    (w1, w2, pair_n, w1_n, w2_n, total_n, lift, pmi) over pairs with
    ``pair_n >= min_count`` — the classic collocation / association
    scorer a phrase-mining pass runs over a corpus.

    Exactness: all four counts are exact int64; ``lift =
    (pair_n * total_n) / (w1_n * w2_n)`` is ONE IEEE division of two
    exact integer products, so it hash-compares bitwise vs the SQL
    oracle; ``pmi = ln(lift)`` is computed with libm ``math.log`` (the
    same correctly-rounded log DuckDB's ``ln`` calls) because numpy's
    SIMD log is <1 ulp but not identical — measured mismatches on this
    corpus.  The integer products stay below 2**63 while
    ``pair_n * total_n`` does — at larger corpus scales emit only the
    counts and divide downstream in extended precision.

    Scale shape: one batch-combined pair exchange, two tiny total
    aggregates over the already-aggregated pair table, two
    strategy-selecting joins to attach the marginals, a bounded
    per-block partial sum for the global total.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import hash_grouped_aggregate
    from ..functions.join import auto_lookup_join

    ds = read_documents(sf_dir, columns=["text"]).map_batches(
        _local_bigram_counts, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )
    pairs = hash_grouped_aggregate(
        ds, ["w1", "w2"], [("n", "sum", "pair_n")]
    ).materialize()  # consumed 4x: two marginals, the total, the left side

    w1_tot = hash_grouped_aggregate(pairs, ["w1"], [("pair_n", "sum", "w1_n")])
    w2_tot = hash_grouped_aggregate(pairs, ["w2"], [("pair_n", "sum", "w2_n")])

    from ..functions.agg import global_int_sums

    # 0 on a bigram-less corpus
    total_n = global_int_sums(pairs, lambda b: {"n": b["pair_n"]})["n"]

    j1 = auto_lookup_join(
        pairs, w1_tot, "w1", "w1",
        [("w1", pa.string()), ("w2", pa.string()), ("pair_n", pa.int64())],
        [("w1_n", pa.int64(), "w1_n")],
    )
    j2 = auto_lookup_join(
        j1, w2_tot, "w2", "w2",
        [("w1", pa.string()), ("w2", pa.string()), ("pair_n", pa.int64()),
         ("w1_n", pa.int64())],
        [("w2_n", pa.int64(), "w2_n")],
    )

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["pair_n"], min_count))
        pn = b["pair_n"].to_numpy(zero_copy_only=False)
        w1n = b["w1_n"].to_numpy(zero_copy_only=False)
        w2n = b["w2_n"].to_numpy(zero_copy_only=False)
        if len(pn) and (int(pn.max()) * total_n >= 2 ** 63
                        or int(w1n.max()) * int(w2n.max()) >= 2 ** 63):
            # enforce the documented int64 boundary LOUDLY — numpy
            # multiplication would wrap silently where the oracle raises
            raise OverflowError(
                "bigram_pmi: integer products exceed int64; emit counts "
                "only and divide downstream in extended precision")
        num = pn * total_n
        den = w1n * w2n
        lift = num.astype(np.float64) / den.astype(np.float64)
        # libm log, not np.log: numpy's SIMD log is <1 ulp but NOT the
        # correctly-rounded glibc log DuckDB's ln uses — measured
        # mismatches on this corpus.  The loop runs over the AGGREGATED
        # pair table (bounded), not the corpus scan.
        import math

        pmi = np.fromiter((math.log(x) for x in lift), dtype=np.float64,
                          count=len(lift))
        return pa.table({
            "w1": b["w1"], "w2": b["w2"], "pair_n": b["pair_n"],
            "w1_n": b["w1_n"], "w2_n": b["w2_n"],
            "total_n": pa.array(np.full(len(pn), total_n, dtype=np.int64)),
            "lift": pa.array(lift),
            "pmi": pa.array(pmi),
        })

    return j2.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=BATCH_SIZE)
