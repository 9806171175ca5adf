"""Multimodal pipelines over the pages table's binary payload column.

The pages ``html`` binary column doubles as the opaque media payload
(per input_hint there is exactly one binary column); typed metadata
(height/width) is derived deterministically from the url hash so the
whole pipeline is reproducible with no side files.  Decode is stubbed
(no codecs in this container — see stages/multimodal.py); resize,
feature extraction and frame sampling are real vectorized kernels.

Stage scheduling: every stage class runs on the shared Ray task pool
through ``util.stage_fn``, one instance per worker process, with no
actor-pool cold start per execution (measured 4.6 s for a 0.15 s warm
kernel at sf0.1/32cpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..dedup.hashing import fnv1a64
from ..sources.pages import read_pages
from ..stages.multimodal import (
    AHashStage,
    FrameSampleStage,
    ImageDecodeStage,
    ImageFeatureStage,
    ResizeStage,
)
from ..util import stage_fn

FRAME_BYTES = 32
FRAME_EVERY = 2
# Rows per media stage call.  The fixture's images are tiny (<=16x16x3,
# ~1 KB tensors) and its frame payloads ~hundreds of bytes (4096 rows
# is ~2.5 MB/batch; 512-row batches cost 8x the dispatch for nothing).
# Real megapixel payloads want far smaller batches.
IMAGE_BATCH = 1024
FRAME_BATCH = 4096


def media_table(sf_dir: str) -> ray.data.Dataset:
    """(url, payload, meta_height, meta_width): the typed-binary view."""

    def tag(b: pa.Table) -> pa.Table:
        from ..dedup.hashing import fnv1a64_arrow

        h = fnv1a64_arrow(b["url"])
        heights = (8 + (h % np.uint64(9))).astype(np.int32)
        widths = (8 + ((h >> np.uint64(8)) % np.uint64(9))).astype(np.int32)
        return pa.table(
            {
                "url": b["url"],
                "payload": b["html"],
                "meta_height": pa.array(heights),
                "meta_width": pa.array(widths),
            }
        )

    # payload passthrough is zero-copy; the tag itself is per-url
    # metadata, so a relational-sized batch is fine here
    return read_pages(sf_dir, columns=["url", "html"], bundle_files=True).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )


def _media_stage(ds, cls, batch_size: int, **kwargs):
    return ds.map_batches(
        stage_fn(cls, **kwargs), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=batch_size,
    )


def image_features(sf_dir: str, out_h: int = 8, out_w: int = 8) -> ray.data.Dataset:
    """decode (stub codec) -> resize (real) -> per-channel stats (real)."""
    ds = media_table(sf_dir)
    ds = _media_stage(ds, ImageDecodeStage, IMAGE_BATCH, codec="auto")
    ds = _media_stage(ds, ResizeStage, IMAGE_BATCH, out_h=out_h, out_w=out_w)
    return _media_stage(ds, ImageFeatureStage, IMAGE_BATCH)


def frame_samples(sf_dir: str) -> ray.data.Dataset:
    """(url, frame_idx, frame): every FRAME_EVERY-th FRAME_BYTES chunk."""
    return _media_stage(
        media_table(sf_dir), FrameSampleStage, FRAME_BATCH,
        frame_bytes=FRAME_BYTES, every=FRAME_EVERY,
    )


def frame_dedup(sf_dir: str, key: str = "fnv") -> ray.data.Dataset:
    """Cross-video exact frame dedup: one row per DISTINCT sampled frame
    with its first owner and copy count — the multimodal composition of
    frame sampling + the exact-dedup exchange (per-batch key partials,
    one key-keyed exchange, vectorized first-occurrence + run-length
    counts; the ROW_NUMBER()=1 + COUNT() OVER pattern without a window
    function).

    ``key`` picks the frame-key kernel (same contract as
    ``pipelines.dedup.exact_dedup``):

    - ``"fnv"`` (default, the scale path): vectorized FNV-1a 64 fed
      straight from the Arrow binary buffers — no per-row Python.  At
      100 TB of video the hash pass IS the bottleneck stage, so the
      per-row md5 loop is the wrong default; a 64-bit collision merges
      two distinct frames with P ~ n^2/2^65.
    - ``"md5"``: per-row hashlib digests, collision-free in practice
      and exactly matching DuckDB's ``md5()`` — the oracle-parity
      option the driver query uses.

    The key column is named ``frame_key`` (16- or 32-hex string —
    the kernel decides the width) so both variants share one schema;
    value parity with DuckDB ``md5()`` holds only for ``key="md5"``.
    """
    import hashlib

    import numpy as np

    from ..functions.agg import hash_partitioned_groups

    def digest_md5(b: pa.Table) -> pa.Table:
        frames = b["frame"].combine_chunks() if isinstance(b["frame"], pa.ChunkedArray) else b["frame"]
        md = [hashlib.md5(f.as_py()).hexdigest() for f in frames]
        return pa.table({
            "frame_key": pa.array(md, type=pa.string()),
            "url": b["url"],
            "frame_idx": b["frame_idx"],
        })

    def digest_fnv(b: pa.Table) -> pa.Table:
        from ..dedup.hashing import fnv1a64_arrow

        h = fnv1a64_arrow(b["frame"])
        keys = np.char.mod("%016x", h)
        return pa.table({
            "frame_key": pa.array(keys, type=pa.string()),
            "url": b["url"],
            "frame_idx": b["frame_idx"],
        })

    ds = frame_samples(sf_dir).map_batches(
        digest_md5 if key == "md5" else digest_fnv,
        batch_format="pyarrow", zero_copy_batch=True, batch_size=4096,
    )

    def summarize(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([
            ("frame_key", "ascending"), ("url", "ascending"),
            ("frame_idx", "ascending"),
        ])
        md = tbl["frame_key"].combine_chunks()
        codes = md.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], codes[1:] != codes[:-1]]) if len(codes) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(codes)))
        head = tbl.take(pa.array(starts))
        return pa.table({
            "frame_key": head["frame_key"],
            "keep_url": head["url"],
            "keep_idx": head["frame_idx"],
            "n_copies": pa.array(counts, type=pa.int64()),
        })

    return hash_partitioned_groups(ds, ["frame_key"], summarize)


def ensure_pixels_sidecar(sf_dir: str, out_h: int = 8, out_w: int = 8) -> str:
    """Deterministic (url, px: list<int64>) parquet of decoded+resized
    pixels for the sf dir — the independent input the DuckDB oracle
    reads to gate ``image_features``'s mean/std math end-to-end.

    No Ray involved, and deliberately the SCALAR per-image path
    (``fake_decode`` + ``resize_nearest`` one row at a time, scalar
    meta derivation) so the sidecar independently cross-checks the
    batched/vectorized stage kernels, not just the SQL aggregation —
    the ``ensure_simhash_sidecar`` pattern (pipelines/dedup.py).
    Cached under /tmp/graft_synth.  Pixels are uint8, so the oracle's
    avg/var over them is exact integer arithmetic in float64 and the
    mean/std comparison is bitwise.
    """
    import os

    import pyarrow.parquet as pq

    from ..stages.multimodal import fake_decode, resize_nearest
    from ..synth import PAGES_ROOT, ensure_pages

    name = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(PAGES_ROOT, name, f"pixels_{out_h}x{out_w}.parquet")
    if not os.path.exists(out):
        pages_dir = ensure_pages(sf_dir)
        tbl = pq.read_table(pages_dir, columns=["url", "html"])
        urls = tbl["url"].to_pylist()
        payloads = [
            b.as_py() if b is not None else b""
            for b in tbl["html"].combine_chunks()
        ]
        hs = fnv1a64(urls)
        heights = (8 + (hs % np.uint64(9))).astype(np.int64)
        widths = (8 + ((hs >> np.uint64(8)) % np.uint64(9))).astype(np.int64)
        px = np.empty((len(urls), out_h * out_w * 3), dtype=np.int64)
        for i, (p, h, w) in enumerate(zip(payloads, heights, widths)):
            img = fake_decode(p, int(h), int(w))
            px[i] = resize_nearest(img, out_h, out_w).ravel()
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(px.ravel()), out_h * out_w * 3
        ).cast(pa.list_(pa.int64()))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = f"{out}.tmp.{os.getpid()}"
        pq.write_table(pa.table({"url": tbl["url"], "px": arr}), tmp)
        os.replace(tmp, out)
    return out


def image_ahash(sf_dir: str, out_h: int = 8, out_w: int = 8) -> ray.data.Dataset:
    """Perceptual average-hash of every image: (url, ahash) — the
    standard near-duplicate IMAGE fingerprint (group by ahash, or
    Hamming-band it exactly like simhash).  The decode -> resize ->
    hash chain runs FUSED in one stage (``stages.multimodal.AHashStage``
    — pixels never cross the object store), on the shared task pool
    (per-worker cache; an actor pool's cold start was the whole cost
    of this pipeline at sf0.1); the hash itself is bit-exact against
    the pixel-sidecar SQL oracle.
    """
    return _media_stage(
        media_table(sf_dir), AHashStage, IMAGE_BATCH, out_h=out_h, out_w=out_w,
    )
