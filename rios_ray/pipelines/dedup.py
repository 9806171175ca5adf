"""Dedup pipelines over the documents table (Ray-Data-first).

Shuffle strategy (the part that matters at 100 TB):

- exact: per-batch *partial* (md5 -> min id, count) combiner inside
  ``map_batches`` so the one ``groupby`` shuffle moves one row per
  distinct key per batch, not one row per document.
- n-gram Jaccard: gram-keyed shuffle with an explicit document-
  frequency cap (``df_cap``) — the skew control; a gram shared by F
  docs emits O(F^2) pairs, so hot grams are dropped from candidate
  generation on BOTH engine and oracle sides (identical semantics).
- MinHash+LSH: fixed 256-perm signatures, 64 bands x 4 rows; band
  buckets shuffle tiny (band, key, doc_id) rows; candidates are
  verified with the *exact* Jaccard (texts fetched via two hash
  joins), so the output equals the exact operator wherever LSH recall
  is 1 — with these parameters, a true pair at j >= 0.8 is missed with
  probability (1 - 0.8^4)^64 < 1e-14.
- SimHash: 4-band pigeonhole on the 64-bit hash guarantees every pair
  within Hamming distance 3 shares a band (no probabilistic recall);
  band rows carry the hash so verification is local to the bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..dedup import hashing as H
from ..dedup.shingles import (
    DEFAULT_NGRAM,
    gram_hash_arrays,
    gram_hash_arrays_vec,
    gram_hash_flat,
)
from ..functions.join import fits_broadcast, partitioned_exists_join, partitioned_lookup_join
from ..sources.documents import read_documents
from ..text.analysis import md5_fingerprint

BATCH_SIZE = 4096
COPY_OFFSET = 1_000_000
NUM_PERM = 256
N_BANDS = 64


# SQL fragment mirrored by dup_corpus() — kept next to the code it must
# match; __ray_entry__ imports it for the oracle.
DUP_CORPUS_SQL = f"""
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + {COPY_OFFSET} AS doc_id, text
      FROM documents WHERE doc_id % 10 = 0
"""


def dup_corpus(sf_dir: str) -> ray.data.Dataset:
    """documents plus exact copies of every 10th doc (id + 1e6).

    Deterministic, derivable by the oracle from the same view — no
    side files.  Gives the exact-dedup operator real duplicate groups
    to find (the raw table has near-dupes but no exact dupes).
    """
    def with_copies(b: pa.Table) -> pa.Table:
        # pyarrow has no modulo kernel — numpy view, zero-copy
        keep = pa.array(b["doc_id"].to_numpy() % 10 == 0)
        dup = b.filter(keep)
        dup = dup.set_column(
            dup.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(dup["doc_id"], COPY_OFFSET),
        )
        return pa.concat_tables([b, dup])

    # one read of the (heavy) text column; copies appended per batch
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        with_copies, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


# --- exact dedup ----------------------------------------------------------


def exact_dedup(sf_dir: str, key: str = "fnv") -> ray.data.Dataset:
    """(text_md5, keep_id, n_docs) — hash-partitioned first-wins dedup.

    ``key`` picks the dedup key kernel:

    - ``"fnv"`` (default, the scale path): vectorized FNV-1a 64-bit
      over the normalized text — one flat-buffer numpy pass per batch,
      no per-row Python.  64-bit collisions over a corpus of n docs
      merge distinct texts with P ~ n^2/2^65 (~3e-8 at a billion docs);
      acceptable for training-data dedup, where a false merge drops one
      real document.
    - ``"md5"``: per-row hashlib digests (C speed per call, but a
      Python loop) — collision-free in practice and exactly matching
      DuckDB's ``md5()``, so this is the oracle-parity option the
      driver query uses.

    Either way: per-batch combine, then the vectorized two-level
    aggregate (functions.agg.hash_grouped_aggregate — Ray's Aggregate
    operator pays per-group Python overhead; at web scale every digest
    is its own group, so that overhead is O(corpus))."""
    from ..functions.agg import hash_grouped_aggregate
    from ..text.analysis import _normalize

    def with_md5(b: pa.Table) -> pa.Table:
        b = md5_fingerprint(b)
        return pa.table({"text_md5": b["text_md5"], "doc_id": b["doc_id"]})

    def with_fnv(b: pa.Table) -> pa.Table:
        from ..dedup.hashing import fnv1a64_arrow

        h = fnv1a64_arrow(_normalize(b["text"]))
        # hex for schema compatibility with the md5 variant
        keys = np.char.mod("%016x", h)  # h is uint64; %x needs no sign
        return pa.table({
            "text_md5": pa.array(keys, type=pa.string()),
            "doc_id": b["doc_id"],
        })

    ds = dup_corpus(sf_dir).map_batches(
        with_md5 if key == "md5" else with_fnv,
        batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE,
    )
    return hash_grouped_aggregate(
        ds,
        ["text_md5"],
        [("doc_id", "min", "keep_id"), (None, "count", "n_docs")],
    )


# --- exact n-gram Jaccard pairs ------------------------------------------


def _run_pair_indices(
    new: np.ndarray, df_cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Global sorted-row index pairs (ia, ib) for every run of equal
    keys (``new`` is True at each run's first row), skipping runs of
    size < 2 or > ``df_cap``.  Runs are batched BY SIZE so the pair
    template (``triu_indices``) is built once per distinct run size and
    broadcast over all runs of that size — the loop count is bounded by
    ``df_cap`` (distinct sizes), not by the bucket count, and every
    emission is a flat vectorized add."""
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(new))
    sizes = ends - starts
    sel = sizes >= 2
    if df_cap is not None:
        sel &= sizes <= df_cap
    starts_q, sizes_q = starts[sel], sizes[sel]
    if not len(starts_q):
        z = np.zeros(0, dtype=np.int64)
        return z, z
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for n in np.unique(sizes_q):
        s = starts_q[sizes_q == n]  # all runs of this exact size
        ia, ib = np.triu_indices(int(n), k=1)
        out_a.append((s[:, None] + ia[None, :]).ravel())
        out_b.append((s[:, None] + ib[None, :]).ravel())
    return np.concatenate(out_a), np.concatenate(out_b)


def _gram_partition_pairs(df_cap: int, key: str = "gram_h"):
    """All (doc_a, doc_b, n_a, n_b) pairs for every gram bucket in one
    hash partition, fully vectorized (integer gram-hash buckets sort
    directly; a string gram column is dictionary-encoded first)."""

    def fn(tbl: pa.Table) -> pa.Table:
        col = tbl.column(key)
        if pa.types.is_integer(col.type):
            codes = col.to_numpy()
        else:
            codes = col.combine_chunks().dictionary_encode().indices.to_numpy()
        ids = tbl["doc_id"].to_numpy()
        ng = tbl["n_grams"].to_numpy()
        order = np.lexsort((ids, codes))
        codes_s, ids_s, ng_s = codes[order], ids[order], ng[order]
        new = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        ia, ib = _run_pair_indices(new, df_cap)
        return pa.table(
            {
                "doc_a": pa.array(ids_s[ia]),
                "doc_b": pa.array(ids_s[ib]),
                "n_a": pa.array(ng_s[ia]),
                "n_b": pa.array(ng_s[ib]),
            }
        )

    return fn


def jaccard_pairs(
    sf_dir: str,
    n: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
    df_cap: int = 64,
) -> ray.data.Dataset:
    """(doc_a, doc_b, jaccard) for all pairs with exact word-n-gram
    Jaccard >= threshold, computed fully distributed.

    docs -> explode distinct gram HASHES (u64 — the gram string never
    leaves the map stage, cutting exchange bytes to 8/gram) ->
    groupby(gram_h) pair emission (df-capped) -> groupby(pair)
    shared-count -> jaccard filter.  Exact up to 64-bit FNV collisions
    (P ~ g^2/2^65 over a df-capped bucket).
    """
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups

    def explode_hashed(b: pa.Table) -> pa.Table:
        h, doc_of = gram_hash_flat(b["text"], n)
        counts = np.bincount(doc_of, minlength=b.num_rows).astype(np.int64)
        ids = b["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_of]),
                "gram_h": pa.array(h.view(np.int64)),
                "n_grams": pa.array(counts[doc_of]),
            }
        )

    grams = read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        explode_hashed,
        batch_format="pyarrow",
        zero_copy_batch=True,
        # batch_size=None: a row-count batch here drives Ray's task
        # bundling for the fused read+map chain (2 tasks on a 5000-doc
        # table = zero parallelism); per-read-block batches keep the
        # gram hashing spread across the pool (BASELINE.md lesson 5)
        batch_size=None,
    )
    pairs = hash_partitioned_groups(grams, ["gram_h"], _gram_partition_pairs(df_cap))

    shared = hash_grouped_aggregate(
        pairs, ["doc_a", "doc_b", "n_a", "n_b"], [(None, "count", "shared")]
    )

    def finish(b: pa.Table) -> pa.Table:
        sh = b["shared"].to_numpy().astype(np.int64)
        na = b["n_a"].to_numpy().astype(np.int64)
        nb = b["n_b"].to_numpy().astype(np.int64)
        j = sh / (na + nb - sh)
        out = pa.table(
            {"doc_a": b["doc_a"], "doc_b": b["doc_b"], "jaccard": pa.array(j)}
        )
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return shared.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )


# --- MinHash + LSH --------------------------------------------------------


def _band_rows(num_perm: int, n_bands: int, ngram: int):
    a, b_ = H.minhash_params(num_perm)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        hashes, offsets, _ = gram_hash_arrays_vec(batch["text"], ngram)
        sig = H.minhash_signatures(hashes, offsets, a, b_)
        keys = H.band_keys(sig, n_bands)  # (n_docs, n_bands)
        n_docs = len(ids)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n_docs)),
                "key": pa.array(keys.ravel()),
                "doc_id": pa.array(np.repeat(ids, n_bands)),
            }
        )

    return fn


def _band_partition_pairs(tbl: pa.Table) -> pa.Table:
    """All candidate pairs for every (band, key) bucket in one hash
    partition (vectorized lexsort + run scan; a doc emits exactly one
    row per band, so buckets hold distinct doc_ids by construction)."""
    band = tbl["band"].to_numpy()
    key = tbl["key"].to_numpy()
    ids = tbl["doc_id"].to_numpy()
    order = np.lexsort((ids, key, band))
    band_s, key_s, ids_s = band[order], key[order], ids[order]
    new = np.concatenate(
        [[True], (band_s[1:] != band_s[:-1]) | (key_s[1:] != key_s[:-1])]
    )
    ia, ib = _run_pair_indices(new)
    return pa.table({"doc_a": pa.array(ids_s[ia]), "doc_b": pa.array(ids_s[ib])})


def minhash_candidates(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    num_perm: int = NUM_PERM,
    n_bands: int = N_BANDS,
) -> ray.data.Dataset:
    """Distinct candidate pairs from LSH band-bucket collisions."""
    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    bands = docs.map_batches(
        _band_rows(num_perm, n_bands, ngram),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,  # read-block granularity (see explode_hashed note)
    )
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups

    pairs = hash_partitioned_groups(bands, ["band", "key"], _band_partition_pairs)
    # dedupe across bands (vectorized two-level aggregate)

    return hash_grouped_aggregate(
        pairs, ["doc_a", "doc_b"], [(None, "count", "_nb")]
    ).drop_columns(["_nb"])


def _attach_texts(pairs, docs, key_col: str, out_col: str):
    """Hash-partitioned lookup join: attach each pair's ``key_col``
    document text as ``out_col`` (same exchange volume as a hash join,
    none of Ray's join-operator actor-pool fixed cost — measured: two
    chained ``Dataset.join`` calls cost ~11 s on a 500-doc input; this
    path ~1 s)."""
    left_cols = [("doc_a", pa.int64()), ("doc_b", pa.int64())]
    if out_col == "text_b":
        left_cols.append(("text_a", pa.string()))
    return partitioned_lookup_join(
        pairs,
        docs,
        key_col,
        "doc_id",
        left_cols,
        [("text", pa.string(), out_col)],
    )


def _verify_jaccard(threshold: float, ngram: int):
    """Exact per-pair Jaccard, vectorized over the whole batch: gram
    hashes for both text columns at once, then one lexsort — a match is
    exactly one adjacent cross-side duplicate (hashes are distinct
    within a side per row)."""

    def fn(b: pa.Table) -> pa.Table:
        n = b.num_rows
        ha, da = gram_hash_flat(b["text_a"], ngram)
        hb, db = gram_hash_flat(b["text_b"], ngram)
        na = np.bincount(da, minlength=n)
        nb = np.bincount(db, minlength=n)
        rows = np.concatenate([da, db])
        hs = np.concatenate([ha, hb])
        side = np.concatenate(
            [np.zeros(len(ha), dtype=np.int8), np.ones(len(hb), dtype=np.int8)]
        )
        order = np.lexsort((side, hs, rows))
        r, h, s = rows[order], hs[order], side[order]
        dup = (r[1:] == r[:-1]) & (h[1:] == h[:-1]) & (s[1:] != s[:-1])
        inter = np.bincount(r[1:][dup], minlength=n)
        out_j = inter / (na + nb - inter)
        out = pa.table(
            {"doc_a": b["doc_a"], "doc_b": b["doc_b"], "jaccard": pa.array(out_j)}
        )
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return fn


def minhash_pairs(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
    num_perm: int = NUM_PERM,
    n_bands: int = N_BANDS,
) -> ray.data.Dataset:
    """(doc_a, doc_b, jaccard): LSH candidates verified with exact
    Jaccard — same output as :func:`jaccard_pairs` wherever LSH recall
    is 1 (see module docstring for the recall bound)."""
    cands = minhash_candidates(sf_dir, ngram, num_perm, n_bands)
    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    j = _attach_texts(cands, docs, "doc_a", "text_a")
    j = _attach_texts(j, docs, "doc_b", "text_b")
    return j.map_batches(
        _verify_jaccard(threshold, ngram),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


# --- SimHash --------------------------------------------------------------


def simhashes(sf_dir: str, ngram: int = DEFAULT_NGRAM) -> ray.data.Dataset:
    """(doc_id, simhash) — 64-bit SimHash per document."""

    def fn(b: pa.Table) -> pa.Table:
        hashes, offsets, _ = gram_hash_arrays_vec(b["text"], ngram)
        sims = H.simhash64(hashes, offsets)
        return pa.table({"doc_id": b["doc_id"], "simhash": pa.array(sims)})

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,  # read-block granularity (see explode_hashed note)
    )


def simhash_pairs(
    sf_dir: str, max_hamming: int = 3, ngram: int = DEFAULT_NGRAM
) -> ray.data.Dataset:
    """(doc_a, doc_b, hamming) pairs within Hamming distance
    ``max_hamming`` — exact by pigeonhole with 4 bands (band rows carry
    the full hash, so verification is bucket-local; no second join)."""
    n_bands = max_hamming + 1

    def band_rows(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        sims = b["simhash"].to_numpy()
        keys = H.simhash_bands(sims, n_bands)
        n = len(ids)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
                "key": pa.array(keys.ravel()),
                "doc_id": pa.array(np.repeat(ids, n_bands)),
                "simhash": pa.array(np.repeat(sims, n_bands)),
            }
        )

    def emit_verified(tbl: pa.Table) -> pa.Table:
        # all (band, key) buckets of one hash partition at once
        band = tbl["band"].to_numpy()
        key = tbl["key"].to_numpy()
        ids = tbl["doc_id"].to_numpy()
        sims = tbl["simhash"].to_numpy()
        order = np.lexsort((ids, key, band))
        band_s, key_s, ids_s, sims_s = band[order], key[order], ids[order], sims[order]
        new = np.concatenate(
            [[True], (band_s[1:] != band_s[:-1]) | (key_s[1:] != key_s[:-1])]
        )
        ia, ib = _run_pair_indices(new)
        hd = H.hamming64(sims_s[ia], sims_s[ib]).astype(np.int64)
        ok = hd <= max_hamming
        return pa.table(
            {
                "doc_a": pa.array(ids_s[ia][ok]),
                "doc_b": pa.array(ids_s[ib][ok]),
                "hamming": pa.array(hd[ok]),
            }
        )

    bands = simhashes(sf_dir, ngram).map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_SIZE
    )
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups

    pairs = hash_partitioned_groups(bands, ["band", "key"], emit_verified)
    # a pair can match in multiple bands — dedupe (hamming is identical)

    return hash_grouped_aggregate(
        pairs, ["doc_a", "doc_b"], [("hamming", "min", "hamming")]
    )


def ensure_simhash_sidecar(sf_dir: str, ngram: int = DEFAULT_NGRAM) -> str:
    """Deterministic (doc_id, simhash:int64) parquet for the sf dir.

    No Ray involved — a pure numpy pass over the documents parquet,
    cached under /tmp/graft_synth.  This is the independent input the
    DuckDB exact-Hamming oracle reads to gate ``simhash_pairs``'s
    distributed pigeonhole join (the simhash computation itself is
    golden-tested in tests/test_dedup.py).
    """
    import os

    import pyarrow.parquet as pq

    from ..sources.documents import documents_path
    from ..synth import PAGES_ROOT

    name = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(PAGES_ROOT, name, f"simhashes_n{ngram}.parquet")
    if not os.path.exists(out):
        tbl = pq.read_table(documents_path(sf_dir), columns=["doc_id", "text"])
        # deliberately the scalar per-doc path (not gram_hash_arrays_vec):
        # the sidecar then independently cross-checks the vectorized
        # pipeline's shingling, not just the pair join
        hashes, offsets, _ = gram_hash_arrays(tbl["text"].to_pylist(), ngram)
        sims = H.simhash64(hashes, offsets).view(np.int64)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = f"{out}.tmp.{os.getpid()}"
        pq.write_table(
            pa.table({"doc_id": tbl["doc_id"], "simhash": pa.array(sims)}), tmp
        )
        os.replace(tmp, out)
    return out


# --- Clustering (pairs -> components -> keep decisions) -------------------


def minhash_clusters(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """(doc_id, cluster_id) for every document in a near-duplicate
    pair: the fuzzy-dedup completion step.  Verified MinHash pairs
    become transitive duplicate CLUSTERS via distributed connected
    components (``functions/graph.py``); ``cluster_id`` is the min doc
    id of the component, i.e. the canonical document to keep — docs
    with ``doc_id != cluster_id`` are the drop set.  Documents in no
    pair are implicitly their own (size-1) cluster and are not emitted.
    """
    from ..functions.graph import connected_components

    pairs = minhash_pairs(sf_dir, ngram=ngram, threshold=threshold)
    cc = connected_components(pairs, "doc_a", "doc_b")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["node"], "cluster_id": b["cluster_id"]})

    return cc.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def winnow_df_cap(sf_dir: str) -> int:
    """Default winnow document-frequency cap, tied to corpus size: a
    fingerprint present in more than 1% of documents is boilerplate,
    not copied-span evidence, and its O(df^2) pair fan-out is dropped
    whole (never truncated — a DROPPED bucket is SQL-expressible, a
    truncated one is not).  1% keeps the worst-case pair volume at
    ~n_buckets x (n/100)^2 / 2 — measured 1.1M pairs at sf0.1 vs 63M
    at a 10% cap on the (adversarially collision-heavy) synthetic
    corpus.  Floor of 64 keeps tiny test corpora from capping away
    genuine duplicate groups.  Corpus size comes from parquet metadata
    (no scan)."""
    import pyarrow.parquet as pq

    from ..sources.documents import documents_path

    n_docs = pq.ParquetFile(documents_path(sf_dir)).metadata.num_rows
    n_corpus = n_docs + n_docs // 10  # + injected duplicate copies
    return max(64, n_corpus // 100)


def winnow_pairs(
    sf_dir: str, min_shared: int = 40, df_cap: int | None = None,
    metrics=None,
) -> ray.data.Dataset:
    """MOSS-style shared-span detection: (doc_a, doc_b, shared) for
    document pairs sharing at least ``min_shared`` winnowing
    fingerprints (Schleimer/Wilkerson/Aiken SIGMOD'03 — the k-gram
    window-min hashes of ``text/analysis.py``), over the duplicate-
    injected corpus.

    Where Jaccard/MinHash measure whole-document similarity, shared
    winnow fingerprints localize COPIED SPANS (each fingerprint pins an
    8-char window), so this is the boilerplate / quotation / partial-
    plagiarism detector.  Same exchange shape as the gram dedup:
    explode per-doc fingerprint sets (already distinct per doc) ->
    fingerprint-keyed exchange -> vectorized per-bucket pair emission
    -> combiner-first pair counts -> threshold.

    ``df_cap`` bounds the per-fingerprint fan-out (a fingerprint shared
    by F docs emits O(F^2) pairs): buckets PAST the cap are dropped
    whole — deterministic and mirrored exactly by the SQL oracle's
    HAVING-df filter, so the capped default stays oracle-gated.  The
    default is :func:`winnow_df_cap` (10% of the corpus).  Truncation
    is never silent: pass ``metrics`` (a ``runtime.MetricsCollector``
    actor handle) and every dropped bucket reports its row count under
    stage ``winnow_pairs`` / partition ``df_cap_dropped``.
    """
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups
    from ..text.analysis import winnow_fingerprints_flat

    if df_cap is None:
        df_cap = winnow_df_cap(sf_dir)

    def explode_fp(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        vals, doc_of = winnow_fingerprints_flat(b["text"])
        return pa.table(
            {"doc_id": pa.array(ids[doc_of]), "wmin": pa.array(vals.view(np.int64))}
        )

    exploded = dup_corpus(sf_dir).map_batches(
        explode_fp, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        codes = tbl["wmin"].to_numpy()
        ids = tbl["doc_id"].to_numpy()
        if not len(codes):
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64())})
        order = np.lexsort((ids, codes))
        codes_s, ids_s = codes[order], ids[order]
        new = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        if metrics is not None:
            starts = np.flatnonzero(new)
            sizes = np.diff(np.append(starts, len(new)))
            dropped = sizes[sizes > df_cap]
            if len(dropped):
                metrics.add.remote(
                    "winnow_pairs", "df_cap_dropped",
                    int(dropped.sum()), 0,
                )
        ia, ib = _run_pair_indices(new, df_cap)
        # raw pairs only: the shared-count partial combine happens in
        # hash_grouped_aggregate's per-block group_by, which Ray fuses
        # into this same task — a pre-count here would run twice
        return pa.table({"doc_a": pa.array(ids_s[ia]), "doc_b": pa.array(ids_s[ib])})

    pairs = hash_partitioned_groups(exploded, ["wmin"], bucket_pairs)
    shared = hash_grouped_aggregate(
        pairs, ["doc_a", "doc_b"], [(None, "count", "shared")]
    )

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["shared"], min_shared))

    return shared.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def edit_distance_pairs(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
    max_dist: int | None = None,
    num_perm: int = NUM_PERM,
    n_bands: int = N_BANDS,
) -> ray.data.Dataset:
    """(doc_a, doc_b, edit_dist): exact Levenshtein distance for every
    verified near-duplicate pair — the character-level verification
    stage a fuzzy-dedup pipeline runs AFTER set-similarity candidates
    (n-gram Jaccard can score high on reordered text; edit distance
    cannot), optionally filtered to ``edit_dist <= max_dist``.

    Distributed shape: LSH candidates -> exact-Jaccard verify (the
    ``minhash_pairs`` exchange) -> texts re-attached by two partitioned
    lookup joins -> one ``levenshtein_batch`` kernel call per batch
    (DP vectorized across the pair batch; see text/analysis.py).  Pair
    count — not corpus size — bounds the DP cost, and pairs are already
    df-capped upstream.
    """
    pairs = minhash_pairs(sf_dir, ngram, threshold, num_perm, n_bands)
    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    j = _attach_texts(pairs.select_columns(["doc_a", "doc_b"]), docs,
                      "doc_a", "text_a")
    j = _attach_texts(j, docs, "doc_b", "text_b")

    def dist(b: pa.Table) -> pa.Table:
        from ..text.analysis import levenshtein_batch

        d = levenshtein_batch(
            b["text_a"].to_pylist(), b["text_b"].to_pylist()
        )
        out = pa.table({
            "doc_a": b["doc_a"],
            "doc_b": b["doc_b"],
            "edit_dist": pa.array(d, type=pa.int64()),
        })
        if max_dist is not None:
            out = out.filter(pa.array(d <= max_dist))
        return out

    return j.map_batches(
        dist, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    )


def neardup_pagerank(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
    iters: int = 2,
    damping: float = 0.85,
) -> ray.data.Dataset:
    """(doc_id, rank): PageRank over the undirected near-duplicate
    graph — which documents sit at the CENTER of duplicate families
    (rank concentrates on hub texts copied everywhere; the keep-priority
    signal a curation pipeline uses instead of min-id).

    The iterative-message-passing shape with BIT-EXACT float parity:
    every per-node in-sum is the exact order-independent float sum
    (``functions.agg.grouped_exact_float_sum``; the oracle's Kahan
    ``fsum`` coincides exactly on these same-sign contributions), and
    every scalar step (1/n, (1-d)/n, rank/deg, d*s, base+x) is a single
    IEEE op shared with the oracle SQL, so after any number of
    iterations the ranks match the unrolled-join oracle bit-for-bit.

    Scale shape: edges come from the verified-pair exchange; per
    iteration, rank/deg ships to the edge scan (broadcast while the
    degree table :func:`~rios_ray.functions.join.fits_broadcast` — the
    pair-graph node set is the DUPLICATED corpus slice, far smaller
    than the corpus; otherwise a partitioned lookup join), and the
    in-sum exchange carries combiner-sized exponent-bucket states, not
    edge rows.
    """
    import pandas as pd

    from ..functions.agg import grouped_exact_float_sum, hash_grouped_aggregate, in_memory

    pairs = minhash_pairs(sf_dir, ngram=ngram, threshold=threshold)

    def symmetrize(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([
                b["doc_a"].combine_chunks().cast(pa.int64()),
                b["doc_b"].combine_chunks().cast(pa.int64()),
            ]),
            "dst": pa.concat_arrays([
                b["doc_b"].combine_chunks().cast(pa.int64()),
                b["doc_a"].combine_chunks().cast(pa.int64()),
            ]),
        })

    edges = pairs.select_columns(["doc_a", "doc_b"]).map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=BATCH_SIZE,
    ).materialize()
    deg_ds = hash_grouped_aggregate(edges, ["src"], [(None, "count", "deg")]).materialize()
    n_nodes = deg_ds.count()
    if n_nodes == 0:
        return in_memory(pa.table({"doc_id": pa.array([], pa.int64()),
                                   "rank": pa.array([], pa.float64())}))
    # one shared IEEE op per scalar, mirrored literally in the oracle
    r0 = 1.0 / n_nodes
    base = (1.0 - damping) / n_nodes

    if fits_broadcast(deg_ds):
        deg_df = deg_ds.to_pandas().sort_values("src")
        nodes = deg_df["src"].to_numpy()
        degs = deg_df["deg"].to_numpy().astype(np.float64)
        rank = np.full(n_nodes, r0, dtype=np.float64)
        for _ in range(iters):
            ref = ray.put((nodes, rank / degs))

            def contrib(b: pa.Table) -> pa.Table:
                ks, cs = ray.get(ref)
                src = b["src"].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(ks, src)  # every src is a node
                return pa.table({
                    "dst": b["dst"],
                    "c": pa.array(cs[pos], type=pa.float64()),
                })

            sums = grouped_exact_float_sum(
                edges.map_batches(contrib, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None),
                ["dst"], "c", out_sum="s", out_n="_n").to_pandas()
            s = np.zeros(n_nodes, dtype=np.float64)
            pos = np.searchsorted(nodes, sums["dst"].to_numpy())
            s[pos] = sums["s"].to_numpy()
            rank = base + damping * s  # elementwise: one mul + one add
        return in_memory(pa.table({
            "doc_id": pa.array(nodes, type=pa.int64()),
            "rank": pa.array(rank, type=pa.float64()),
        }))

    # partitioned path: rank travels as a dataset, joined to edges per
    # iteration (same float ops, exchange-sized by nodes, not corpus)
    def init_rank(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "node": b["src"],
            "deg": b["deg"].cast(pa.float64()),
            "rank": pa.array(np.full(n, r0), type=pa.float64()),
        })

    ranks = deg_ds.map_batches(init_rank, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
    for _ in range(iters):
        def with_contrib(b: pa.Table) -> pa.Table:
            r = b["rank"].to_numpy(zero_copy_only=False)
            d = b["deg"].to_numpy(zero_copy_only=False)
            return pa.table({"dst": b["dst"], "c": pa.array(r / d)})

        joined = partitioned_lookup_join(
            edges, ranks, "src", "node",
            [("dst", pa.int64())],
            [("rank", pa.float64(), "rank"), ("deg", pa.float64(), "deg")],
        ).map_batches(with_contrib, batch_format="pyarrow",
                      zero_copy_batch=True, batch_size=None)
        sums = grouped_exact_float_sum(joined, ["dst"], "c", out_sum="s", out_n="_n")

        def update(b: pa.Table) -> pa.Table:
            s = b["s"].to_numpy(zero_copy_only=False)
            return pa.table({
                "node": b["dst"],
                "deg": b["deg"].cast(pa.float64()),
                "rank": pa.array(base + damping * s, type=pa.float64()),
            })

        ranks = partitioned_lookup_join(
            sums, deg_ds, "dst", "src",
            [("dst", pa.int64()), ("s", pa.float64())],
            [("deg", pa.int64(), "deg")],
        ).map_batches(update, batch_format="pyarrow",
                      zero_copy_batch=True, batch_size=None).materialize()

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["node"], "rank": b["rank"]})

    return ranks.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)


def _pair_member(ks, eb1, eb2, wk, b1, b2):
    """Exact vectorized membership of (b1, b2) pairs in the edge set
    sorted by (wkey, b1, b2): searchsorted on the key, then scan the
    (almost always length-1) equal-key run comparing real pairs."""
    n = len(ks)
    if n == 0:
        return np.zeros(len(wk), bool)
    pos = np.searchsorted(ks, wk)
    closed = np.zeros(len(wk), bool)
    live = pos < n
    while live.any():
        p = pos[live]
        same = ks[p] == wk[live]
        hit = same & (eb1[p] == b1[live]) & (eb2[p] == b2[live])
        closed[np.flatnonzero(live)[hit]] = True
        # keep scanning only unresolved rows still inside their run
        nxt = np.flatnonzero(live)[same & ~hit]
        live = np.zeros(len(wk), bool)
        live[nxt] = True
        pos[nxt] += 1
        live &= pos < n
    return closed


def neardup_triangles(
    sf_dir: str,
    ngram: int = DEFAULT_NGRAM,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """(doc_id, n_triangles): per-document triangle count in the
    near-duplicate graph — the local clustering signal (a document in
    many triangles sits inside a dense copy-family; bridges between
    families sit in none).

    The scale-correct enumeration is degree-ordered "compact-forward":
    every edge is oriented from its lower-(degree, id) endpoint to the
    higher one, wedges are generated ONLY between out-edges of a common
    source (out-degree is bounded by O(sqrt(m)) under this orientation,
    so wedge fan-out is bounded by arboricity, not by hub degree^2),
    and each triangle closes exactly once.  Wedge generation is the
    size-grouped vectorized pair emission of the dedup exchanges
    (``_run_pair_indices``); closure is one sorted-u64 membership test
    against the oriented-edge key set (broadcast while the oriented
    edges :func:`~rios_ray.functions.join.fits_broadcast`; otherwise a
    partitioned exists-join).
    Output counts are exact integers — the oracle is the literal 3-way
    self-join.
    """
    from ..functions.agg import hash_grouped_aggregate, hash_partitioned_groups

    pairs = minhash_pairs(sf_dir, ngram=ngram, threshold=threshold).select_columns(
        ["doc_a", "doc_b"]).materialize()

    # degree per endpoint (undirected)
    def both_ends(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            b["doc_a"].combine_chunks().cast(pa.int64()),
            b["doc_b"].combine_chunks().cast(pa.int64()),
        ])})

    deg = hash_grouped_aggregate(
        pairs.map_batches(both_ends, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["node"], [(None, "count", "deg")]).to_pandas().sort_values("node")
    nodes = deg["node"].to_numpy()
    degs = deg["deg"].to_numpy().astype(np.int64)
    deg_ref = ray.put((nodes, degs))

    def orient(b: pa.Table) -> pa.Table:
        """src -> dst with (deg, id) order: src is the smaller endpoint."""
        ks, ds = ray.get(deg_ref)
        a = b["doc_a"].to_numpy(zero_copy_only=False)
        c = b["doc_b"].to_numpy(zero_copy_only=False)
        da = ds[np.searchsorted(ks, a)]
        dc = ds[np.searchsorted(ks, c)]
        a_first = (da < dc) | ((da == dc) & (a < c))
        return pa.table({
            "src": pa.array(np.where(a_first, a, c), type=pa.int64()),
            "dst": pa.array(np.where(a_first, c, a), type=pa.int64()),
        })

    oriented = pairs.map_batches(
        orient, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    # membership keys of ORIENTED edges (order-sensitive mix, same as
    # the gram-pair trick).  The 64-bit key is only an INDEX: every
    # candidate hit is verified against the actual (src, dst) pair, so
    # a key collision can never fabricate a triangle — the counts are
    # exact integers, full stop.
    def edge_keys(t: pa.Table) -> np.ndarray:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            return s * np.uint64(0x9E3779B97F4A7C15) ^ d

    if fits_broadcast(oriented):
        if oriented.count():
            parts = [t for t in ray.get(oriented.to_arrow_refs()) if t.num_rows]
            wk_all = np.concatenate([edge_keys(t) for t in parts])
            b1_all = np.concatenate(
                [t["src"].to_numpy(zero_copy_only=False) for t in parts])
            b2_all = np.concatenate(
                [t["dst"].to_numpy(zero_copy_only=False) for t in parts])
            order = np.lexsort((b2_all, b1_all, wk_all))
            keys = (wk_all[order], b1_all[order], b2_all[order])
        else:
            keys = (np.zeros(0, np.uint64), np.zeros(0, np.int64),
                    np.zeros(0, np.int64))
        keys_ref = ray.put(keys)

        def close_wedges(t: pa.Table) -> pa.Table:
            """Wedges between out-edges of each src; emit per-corner
            triangle-count partials for the closed ones.  Out-neighbors
            are ordered by the SAME (deg, id) rank used to orient edges,
            so a closed wedge's (b1, b2) is exactly the stored oriented
            closing edge."""
            ks, eb1, eb2 = ray.get(keys_ref)
            dks, dds = ray.get(deg_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            dst = t["dst"].to_numpy(zero_copy_only=False)
            ddeg = dds[np.searchsorted(dks, dst)]
            order = np.lexsort((dst, ddeg, src))
            src, dst = src[order], dst[order]
            new = np.concatenate([[True], src[1:] != src[:-1]]) if len(src) else np.zeros(0, bool)
            ia, ib = _run_pair_indices(new)
            if not len(ia):
                return pa.table({"node": pa.array([], pa.int64()),
                                 "n_part": pa.array([], pa.int64())})
            b1, b2 = dst[ia], dst[ib]  # b1 before b2 in (deg, id) order
            with np.errstate(over="ignore"):
                wk = b1.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) \
                    ^ b2.astype(np.uint64)
            closed = _pair_member(ks, eb1, eb2, wk, b1, b2)
            corners = np.concatenate([src[ia][closed], b1[closed], b2[closed]])
            u, c = np.unique(corners, return_counts=True)
            return pa.table({"node": pa.array(u, type=pa.int64()),
                             "n_part": pa.array(c, type=pa.int64())})

        partials = hash_partitioned_groups(oriented, ["src"], close_wedges)
    else:
        def wedges(t: pa.Table) -> pa.Table:
            dks, dds = ray.get(deg_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            dst = t["dst"].to_numpy(zero_copy_only=False)
            ddeg = dds[np.searchsorted(dks, dst)]
            order = np.lexsort((dst, ddeg, src))
            src, dst = src[order], dst[order]
            new = np.concatenate([[True], src[1:] != src[:-1]]) if len(src) else np.zeros(0, bool)
            ia, ib = _run_pair_indices(new)
            b1, b2 = dst[ia], dst[ib]
            return pa.table({
                "a": pa.array(src[ia], type=pa.int64()),
                "b1": pa.array(b1, type=pa.int64()),
                "b2": pa.array(b2, type=pa.int64()),
            })

        wedge_ds = hash_partitioned_groups(oriented, ["src"], wedges)

        # Exact closure: the closing edge (b1 -> b2) is stored oriented
        # with src == b1 (out-neighbors were ordered by the same
        # (deg, id) rank that oriented the edges), so partitioning both
        # sides by b1 co-locates every wedge with its candidate closing
        # edge; the verify is a real two-column merge — no hash key in
        # the correctness path at all.
        def wedge_side(t: pa.Table) -> pa.Table:
            return pa.table({
                "a": t["a"], "b1": t["b1"], "b2": t["b2"],
                "_side": pa.array(np.ones(t.num_rows, np.int8)),
            })

        def edge_side(t: pa.Table) -> pa.Table:
            return pa.table({
                "a": pa.nulls(t.num_rows, pa.int64()),
                "b1": t["src"].cast(pa.int64()),
                "b2": t["dst"].cast(pa.int64()),
                "_side": pa.array(np.zeros(t.num_rows, np.int8)),
            })

        u = wedge_ds.map_batches(
            wedge_side, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ).union(oriented.map_batches(
            edge_side, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ))

        def verify(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas()
            w = df[df["_side"] == 1]
            e = df[df["_side"] == 0][["b1", "b2"]].drop_duplicates()
            if not len(w) or not len(e):
                return pa.table({"a": pa.array([], pa.int64()),
                                 "b1": pa.array([], pa.int64()),
                                 "b2": pa.array([], pa.int64())})
            m = w.merge(e, on=["b1", "b2"], how="inner")
            return pa.table({
                "a": pa.array(m["a"].to_numpy().astype(np.int64)),
                "b1": pa.array(m["b1"].to_numpy().astype(np.int64)),
                "b2": pa.array(m["b2"].to_numpy().astype(np.int64)),
            })

        closed = hash_partitioned_groups(u, ["b1"], verify)

        def corners(t: pa.Table) -> pa.Table:
            allc = np.concatenate([
                t["a"].to_numpy(zero_copy_only=False),
                t["b1"].to_numpy(zero_copy_only=False),
                t["b2"].to_numpy(zero_copy_only=False),
            ]) if t.num_rows else np.zeros(0, np.int64)
            u, c = np.unique(allc, return_counts=True)
            return pa.table({"node": pa.array(u, type=pa.int64()),
                             "n_part": pa.array(c, type=pa.int64())})

        partials = closed.map_batches(
            corners, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )

    out = hash_grouped_aggregate(partials, ["node"], [("n_part", "sum", "n_triangles")])

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["node"], "n_triangles": b["n_triangles"]})

    return out.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
