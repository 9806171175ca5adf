"""Seeded benchmark inputs, generated once per seed and cached on disk.

Every input the engine sees is produced here from ``--seed``; nothing is
read from outside the checkout.  Generation and the oracles computed
over the same files are cached under ``.rtbench_cache/seed-<n>/`` and
are never part of a timed region.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CACHE_DIRNAME = ".rtbench_cache"

# Workload sizes.  A pass takes about 2 s (tiling, raster) or 5 s
# (resume) on a 4-vCPU VM with 4 logical Ray CPUs, so several passes fit
# in a run for its median.  Four times the tiling pages gave no smaller
# pass-to-pass spread: most of a pass is per-stage fixed cost.
TILING_PAGES = 100_000
RESUME_PAGES = 60_000
RESUME_LOST = 1  # partitions invalidated per pass
CORPUS_DOCS = 600
RASTER_SIZE = 1024
RASTER_BANDS = 2
RASTER_BLOCK = 256


def seed_dir(root: str, seed: int) -> str:
    return os.path.join(root, CACHE_DIRNAME, f"seed-{seed}")


def table_digest(table: pa.Table) -> str:
    """Order-insensitive digest of a table: sha256 over its rows sorted
    by every column (column order fixed by name)."""
    cols = sorted(table.column_names)
    t = table.select(cols)
    if t.num_rows:
        t = t.sort_by([(c, "ascending") for c in cols])
    h = hashlib.sha256()
    h.update(json.dumps([str(t.schema.field(c).type) for c in cols]).encode())
    for c in cols:
        h.update(json.dumps(t[c].to_pylist(), default=repr).encode())
    return h.hexdigest()


def _done(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_SUCCESS"))


def _mark_done(path: str, info: dict) -> None:
    with open(os.path.join(path, "_SUCCESS"), "w") as f:
        json.dump(info, f)


# --------------------------------------------------------------------------
# pages: synth.gen_pages_table in the shard layout synth.ensure_pages reads
# --------------------------------------------------------------------------


def pages_sf_dir(root: str, seed: int, n_pages: int) -> str:
    """A testdata-style dir name for the engine's ``sf_dir`` argument.

    The engine resolves it to ``synth.PAGES_ROOT/<name>/pages``; the
    runner points ``PAGES_ROOT`` at the seed's cache dir, so the name
    only has to be unique per (seed, size) and parse as a scale factor.
    """
    from rios_ray import synth

    return os.path.join(seed_dir(root, seed), f"sf{n_pages / synth.ROWS_PER_SF:.6f}")


def ensure_pages(sf_dir: str, n_pages: int, seed: int) -> str:
    """Write ``n_pages`` seeded pages as SHARD_ROWS-row shards plus
    ``_SUCCESS`` at ``synth.pages_path(sf_dir)``; idempotent."""
    from rios_ray import synth

    path = synth.pages_path(sf_dir)
    if _done(path):
        return path
    table = synth.gen_pages_table(n_pages, seed)
    os.makedirs(path, exist_ok=True)
    n_shards = -(-table.num_rows // synth.SHARD_ROWS)
    for s in range(n_shards):
        shard = table.slice(s * synth.SHARD_ROWS, synth.SHARD_ROWS)
        pq.write_table(shard, os.path.join(path, f"part-{s:05d}.parquet"),
                       row_group_size=5_000)
    with open(os.path.join(path, "_SUCCESS"), "w") as f:
        f.write(str(table.num_rows))
    return path


# --------------------------------------------------------------------------
# documents: seeded corpus with planted near-duplicate clusters
# --------------------------------------------------------------------------

DOC_VOCAB = (
    "batch part spark line column order small sort fast value scan hash slow "
    "group agg filter query big key window row table stream merge data join "
    "vector customer tile cell grid block raster page index shard lineage "
    "margin pyramid band pixel"
).split()
DOC_LANGS = ["en", "de", "fr", "es", "zh"]


def gen_documents(n_docs: int, seed: int) -> pa.Table:
    """``documents`` table (doc_id, text, lang, source, n_chars).

    About a quarter of the docs are copies of an earlier original with
    exactly one word substituted.  Docs are 40-70 words, so an original
    and its copy share >= 37/43 of their word 3-grams and two copies of
    one original share >= 34/46: every planted pair sits far above the
    0.5 Jaccard threshold, where the LSH banding recall is 1 to within
    1e-12, and unrelated docs share almost no 3-grams.  The exact
    Jaccard oracle is therefore also the oracle for the LSH pipelines.
    """
    rng = np.random.default_rng([seed, 7])
    vocab = np.array(DOC_VOCAB)
    words: list[np.ndarray] = []
    originals: list[int] = []
    for i in range(n_docs):
        if originals and rng.random() < 0.25:
            src = words[originals[int(rng.integers(len(originals)))]].copy()
            pos = int(rng.integers(len(src)))
            src[pos] = vocab[int(rng.integers(len(vocab)))]
            words.append(src)
        else:
            words.append(vocab[rng.integers(0, len(vocab), size=int(rng.integers(40, 71)))])
            originals.append(i)
    texts = [" ".join(w) for w in words]
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array([DOC_LANGS[int(k)] for k in rng.integers(0, len(DOC_LANGS), n_docs)]),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def ensure_documents(root: str, seed: int, n_docs: int) -> str:
    """Write the seeded corpus as ``<sf_dir>/documents.parquet``; returns
    the ``sf_dir`` the dedup/text pipelines take."""
    sf_dir = os.path.join(seed_dir(root, seed), f"docs-{n_docs}")
    if not _done(sf_dir):
        os.makedirs(sf_dir, exist_ok=True)
        pq.write_table(gen_documents(n_docs, seed),
                       os.path.join(sf_dir, "documents.parquet"))
        _mark_done(sf_dir, {"docs": n_docs})
    return sf_dir


# --------------------------------------------------------------------------
# raster: seeded multi-band tile raster
# --------------------------------------------------------------------------


def gen_raster(size: int, nbands: int, seed: int) -> np.ndarray:
    """(bands, size, size) uint16: a smooth field plus seeded noise and
    sparse bright spikes, so a 5x5 max filter changes most pixels."""
    rng = np.random.default_rng([seed, 11])
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    out = np.empty((nbands, size, size), dtype=np.uint16)
    for b in range(nbands):
        fx, fy = rng.uniform(1.0, 6.0, size=2)
        field = 2000.0 + 1500.0 * np.sin(2 * np.pi * fx * xx) * np.cos(2 * np.pi * fy * yy)
        field += rng.normal(0.0, 150.0, size=field.shape)
        spikes = rng.random(field.shape) < 0.002
        field[spikes] = rng.uniform(8000.0, 60000.0, size=int(spikes.sum()))
        out[b] = np.clip(field, 0, 65535).astype(np.uint16)
    return out


def raster_grid(size: int):
    from rios_ray.gridmodel import PixelGrid

    x0, y1, res = 500000.0, 7000000.0, 10.0
    return PixelGrid(x0, x0 + size * res, y1 - size * res, y1, res, res, "EPSG:28355")


def ensure_raster(root: str, seed: int, size: int, nbands: int) -> str:
    """Write the seeded raster as a tile raster (parquet + grid manifest)."""
    from rios_ray import synth
    from rios_ray.sources.tileraster import write_tile_raster

    d = os.path.join(seed_dir(root, seed), f"raster-{size}x{nbands}")
    path = os.path.join(d, "input.parquet")
    if not _done(d):
        os.makedirs(d, exist_ok=True)
        arr = gen_raster(size, nbands, seed)
        table = synth.raster_to_tile_table(arr, block=RASTER_BLOCK)
        write_tile_raster(path, table, raster_grid(size), nbands, arr.dtype)
        _mark_done(d, {"size": size, "bands": nbands})
    return path


def input_digest(paths: list[str]) -> str:
    """sha256 over the bytes of every file under ``paths`` (sorted)."""
    h = hashlib.sha256()
    files = []
    for p in paths:
        if os.path.isdir(p):
            for dp, _, fs in os.walk(p):
                files += [os.path.join(dp, f) for f in fs if f != "_SUCCESS"]
        else:
            files.append(p)
    for f in sorted(files):
        h.update(os.path.basename(f).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
