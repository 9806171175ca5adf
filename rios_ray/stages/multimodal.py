"""Multimodal (image/audio/video-as-binary) stages.

Opaque ``binary`` payload columns + typed metadata, processed by
callable-class stages run as ``map_batches(util.stage_fn(Cls, ...))``
— built once per worker process and reused per batch, the
reference's per-worker caches
(``/root/reference/rios/imagereader.py:76-84``: open once per worker,
reuse per block).

The container ships no image/audio codecs, so **decode is stubbed**:

- ``ImageDecodeStage(codec="auto")`` uses PIL if importable, else the
  deterministic fake codec (``codec="fake"``), else raises
  ``NotImplementedError`` (``codec="real"`` without PIL).
- The fake codec derives pixels from the payload bytes with a seeded
  xorshift fill — deterministic per payload, so downstream stages
  (resize, features, sampling) are REAL, testable numpy kernels with
  stable golden values.

Tensor layout: pixels travel as flat ``list<uint8>`` + (height, width,
channels) columns — zero-copy reshape to (h, w, c) numpy views inside
each stage, mirroring the dense band-major block payloads of the
reference (``/root/reference/rios/imagereader.py:65-121``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_CHANNELS = 3


def _payload_bytes(col) -> list[bytes]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return [b.as_py() if b is not None else b"" for b in col]


def _pixels_table_flat(
    base: dict, flat: np.ndarray, heights: np.ndarray, widths: np.ndarray
) -> pa.Table:
    lengths = heights.astype(np.int64) * widths.astype(np.int64) * _CHANNELS
    offs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    cols = dict(base)
    cols["pixels"] = pa.LargeListArray.from_arrays(
        pa.array(offs, type=pa.int64()), pa.array(flat, type=pa.uint8())
    )
    cols["height"] = pa.array(heights.astype(np.int32))
    cols["width"] = pa.array(widths.astype(np.int32))
    cols["channels"] = pa.array(np.full(len(heights), _CHANNELS, dtype=np.int32))
    return pa.table(cols)


def _pixels_table(
    base: dict, pixel_rows: list[np.ndarray], heights: np.ndarray, widths: np.ndarray
) -> pa.Table:
    flat = (
        np.concatenate([p.ravel() for p in pixel_rows])
        if pixel_rows
        else np.zeros(0, dtype=np.uint8)
    )
    return _pixels_table_flat(base, flat, heights, widths)


def fake_decode_batch(
    payloads: list[bytes], heights: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized deterministic stand-in for a real image codec.

    Seeds an xorshift64* stream from each payload's FNV hash (of a
    bounded 64-byte prefix) and fills (h, w, 3) uint8 per row — stable
    across runs/processes, unique per payload.  One vectorized pass for
    the whole batch; returns (flat uint8 pixels, per-row byte offsets
    with a trailing total).
    """
    from ..dedup.hashing import fnv1a64

    seeds = fnv1a64([p[:64] for p in payloads])
    n_bytes = (heights.astype(np.int64) * widths.astype(np.int64) * _CHANNELS)
    n_words = -(-n_bytes // 8)
    word_off = np.concatenate([[0], np.cumsum(n_words)]).astype(np.int64)
    total_words = int(word_off[-1])
    # per-word counter 1..n_words[i] within each row, then + row seed
    ctr = np.arange(1, total_words + 1, dtype=np.uint64) - np.repeat(
        word_off[:-1].astype(np.uint64), n_words
    )
    with np.errstate(over="ignore"):
        x = (np.repeat(seeds, n_words) + ctr) | np.uint64(1)
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x2545F4914F6CDD1D)
    all_bytes = x.view(np.uint8)
    # trim each row's 8*n_words block down to its n_bytes
    byte_pos = np.arange(8 * total_words, dtype=np.int64) - np.repeat(
        word_off[:-1] * 8, n_words * 8
    )
    flat = all_bytes[byte_pos < np.repeat(n_bytes, n_words * 8)]
    offs = np.concatenate([[0], np.cumsum(n_bytes)]).astype(np.int64)
    return flat, offs


def fake_decode(payload: bytes, height: int, width: int) -> np.ndarray:
    """Single-row convenience wrapper over :func:`fake_decode_batch`."""
    flat, _ = fake_decode_batch(
        [payload], np.array([height]), np.array([width])
    )
    return flat.reshape(height, width, _CHANNELS)


class ImageDecodeStage:
    """binary payload -> pixel tensor rows.

    ``__init__`` resolves the codec ONCE per worker process (the expensive
    model/codec load slot); ``__call__`` is per batch.
    """

    def __init__(self, codec: str = "auto", payload_col: str = "payload",
                 id_col: str = "url"):
        self.payload_col = payload_col
        self.id_col = id_col
        self._pil = None
        if codec in ("auto", "real"):
            try:
                from PIL import Image  # noqa: F401 — not in this container

                self._pil = Image
            except ImportError:
                if codec == "real":
                    raise NotImplementedError(
                        "real image decode requires PIL, which is not "
                        "installed in this environment; use codec='fake'"
                    )
        self.codec = "pil" if self._pil is not None else "fake"

    def __call__(self, b: pa.Table) -> pa.Table:
        payloads = _payload_bytes(b[self.payload_col])
        heights = b["meta_height"].to_numpy()
        widths = b["meta_width"].to_numpy()
        if self.codec == "pil":  # pragma: no cover — PIL absent here
            import io

            rows = [
                np.asarray(self._pil.open(io.BytesIO(p)).convert("RGB"), dtype=np.uint8)
                for p in payloads
            ]
            heights = np.array([r.shape[0] for r in rows])
            widths = np.array([r.shape[1] for r in rows])
            return _pixels_table({self.id_col: b[self.id_col]}, rows, heights, widths)
        flat, _ = fake_decode_batch(payloads, heights, widths)
        return _pixels_table_flat({self.id_col: b[self.id_col]}, flat, heights, widths)


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Real nearest-neighbor resize (pure numpy, no codec needed)."""
    h, w = img.shape[:2]
    ri = (np.arange(out_h) * h) // out_h
    ci = (np.arange(out_w) * w) // out_w
    return img[ri[:, None], ci[None, :]]


class ResizeStage:
    """pixel tensor rows -> fixed (out_h, out_w) tensor rows."""

    def __init__(self, out_h: int, out_w: int, id_col: str = "url"):
        self.out_h, self.out_w, self.id_col = out_h, out_w, id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        # one vectorized gather for the whole batch: per row, nearest
        # source (row, col) indices into the flat pixel buffer
        px = b["pixels"]
        if isinstance(px, pa.ChunkedArray):
            px = px.combine_chunks()
        flat = px.flatten().to_numpy(zero_copy_only=False)
        offs = px.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        h = b["height"].to_numpy().astype(np.int64)
        w = b["width"].to_numpy().astype(np.int64)
        n = len(h)
        oh, ow = self.out_h, self.out_w
        ri = (np.arange(oh, dtype=np.int64)[None, :] * h[:, None]) // oh  # (n, oh)
        ci = (np.arange(ow, dtype=np.int64)[None, :] * w[:, None]) // ow  # (n, ow)
        base = (
            offs[:-1][:, None, None]
            + (ri[:, :, None] * w[:, None, None] + ci[:, None, :]) * _CHANNELS
        )  # (n, oh, ow)
        idx = base[..., None] + np.arange(_CHANNELS, dtype=np.int64)
        out = flat[idx.ravel()] if n else np.zeros(0, dtype=np.uint8)
        return _pixels_table_flat(
            {self.id_col: b[self.id_col]},
            out,
            np.full(n, oh),
            np.full(n, ow),
        )


class ImageFeatureStage:
    """pixel tensor rows -> per-channel mean/std + luma histogram.

    The aggregation kernels are real (vectorized numpy); only decode
    upstream is faked.  Output schema: id, mean_r/g/b, std_r/g/b,
    luma_hist (list<int64>, 16 bins).
    """

    N_BINS = 16

    def __init__(self, id_col: str = "url"):
        self.id_col = id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        # vectorized over the whole batch: per-row reductions via
        # reduceat over the flat (n_pixels, 3) view
        px = b["pixels"]
        if isinstance(px, pa.ChunkedArray):
            px = px.combine_chunks()
        flat = px.flatten().to_numpy(zero_copy_only=False)
        offs = px.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(offs) - 1
        f = flat.reshape(-1, _CHANNELS).astype(np.float64)  # (total_px, 3)
        px_off = offs[:-1] // _CHANNELS
        counts = np.diff(offs) // _CHANNELS
        s = np.add.reduceat(f, px_off, axis=0)
        ssq = np.add.reduceat(f * f, px_off, axis=0)
        mean = s / counts[:, None]
        var = np.maximum(ssq / counts[:, None] - mean * mean, 0.0)
        std = np.sqrt(var)
        luma = 0.299 * f[:, 0] + 0.587 * f[:, 1] + 0.114 * f[:, 2]
        bins = (luma / 256.0 * self.N_BINS).astype(np.int64)
        row_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        hist = np.bincount(
            row_of * self.N_BINS + bins, minlength=n * self.N_BINS
        ).reshape(n, self.N_BINS)
        hoffs = np.arange(0, (n + 1) * self.N_BINS, self.N_BINS, dtype=np.int64)
        return pa.table(
            {
                self.id_col: b[self.id_col],
                "mean_r": pa.array(mean[:, 0]),
                "mean_g": pa.array(mean[:, 1]),
                "mean_b": pa.array(mean[:, 2]),
                "std_r": pa.array(std[:, 0]),
                "std_g": pa.array(std[:, 1]),
                "std_b": pa.array(std[:, 2]),
                "luma_hist": pa.LargeListArray.from_arrays(
                    pa.array(hoffs), pa.array(hist.ravel())
                ).cast(pa.list_(pa.int64())),
            }
        )


class AHashStage:
    """FUSED decode -> resize -> average-hash in one ``__call__``:
    unlike the image_features chain (kept stage-separated as the
    composability showcase), a fingerprint never needs the full pixel
    tensor outside the worker, so fusing avoids shipping decoded pixels
    through the object store between stages — the shape that matters
    when payloads are megapixels, not the fixture's thumbnails.

    Output: (id, ahash) where ahash is the 64-char '0'/'1' string with
    bit i set iff pixel i's integer luma (299r + 587g + 114b — all-int,
    no float thresholds to diverge on) strictly exceeds the image mean
    (L_i * npix > total)."""

    def __init__(self, out_h: int = 8, out_w: int = 8, codec: str = "auto",
                 id_col: str = "url"):
        self.decode = ImageDecodeStage(codec=codec, id_col=id_col)
        self.resize = ResizeStage(out_h=out_h, out_w=out_w, id_col=id_col)
        self.npix = out_h * out_w
        self.id_col = id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        npix = self.npix
        small = self.resize(self.decode(b))
        px = small["pixels"]
        if isinstance(px, pa.ChunkedArray):
            px = px.combine_chunks()
        flat = px.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n = small.num_rows
        rgb = flat.reshape(n, npix, 3)
        luma = 299 * rgb[:, :, 0] + 587 * rgb[:, :, 1] + 114 * rgb[:, :, 2]
        total = luma.sum(axis=1)  # exact: <= 64 * 255 * 1000
        bits = (luma * npix > total[:, None]).astype(np.uint8)
        chars = (bits + 48).astype(np.uint8)  # ASCII '0'/'1'
        offsets = np.arange(0, (n + 1) * npix, npix, dtype=np.int32)
        arr = pa.StringArray.from_buffers(
            n, pa.py_buffer(offsets.tobytes()), pa.py_buffer(chars.tobytes())
        )
        return pa.table({self.id_col: small[self.id_col], "ahash": arr})


class FrameSampleStage:
    """video-as-binary -> every k-th fixed-size frame chunk.

    Plumbing-real frame sampler: the payload is treated as a stream of
    ``frame_bytes``-sized frames (a real demuxer slots in here); emits
    one row per sampled frame with (id, frame_idx, frame binary).
    """

    def __init__(self, frame_bytes: int = 4096, every: int = 10,
                 payload_col: str = "payload", id_col: str = "url"):
        self.frame_bytes, self.every = frame_bytes, every
        self.payload_col, self.id_col = payload_col, id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        # Fully vectorized: frame starts from the Arrow binary offsets
        # buffer, one 2-D fancy-index gather into the concatenated data
        # buffer — no per-row / per-frame Python.
        col = b[self.payload_col]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if arr.null_count or len(arr) == 0:
            arr = pa.array(_payload_bytes(arr), type=pa.large_binary())
        if pa.types.is_binary(arr.type):
            off_np = np.int32
        else:
            arr = arr.cast(pa.large_binary()) if not pa.types.is_large_binary(arr.type) else arr
            off_np = np.int64
        offs = np.frombuffer(arr.buffers()[1], dtype=off_np)[
            arr.offset : arr.offset + len(arr) + 1
        ].astype(np.int64)
        data_buf = arr.buffers()[2]
        data = (
            np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None
            else np.zeros(0, dtype=np.uint8)
        )
        n_frames = (offs[1:] - offs[:-1]) // self.frame_bytes
        n_samp = -(-n_frames // self.every)  # ceil-div: frames 0, every, ...
        total = int(n_samp.sum())
        row_of = np.repeat(np.arange(len(arr), dtype=np.int64), n_samp)
        row_start = np.concatenate([[0], np.cumsum(n_samp)[:-1]]) if len(arr) else np.zeros(0, np.int64)
        within = np.arange(total, dtype=np.int64) - np.repeat(row_start, n_samp)
        frame_idx = within * self.every
        starts = offs[:-1][row_of] + frame_idx * self.frame_bytes
        if total:
            flat = data[
                starts[:, None] + np.arange(self.frame_bytes, dtype=np.int64)[None, :]
            ].reshape(-1)
        else:
            flat = np.zeros(0, dtype=np.uint8)
        out_offs = np.arange(total + 1, dtype=np.int64) * self.frame_bytes
        frames = pa.Array.from_buffers(
            pa.large_binary(),
            total,
            [None, pa.py_buffer(out_offs.tobytes()), pa.py_buffer(flat.tobytes())],
        ).cast(pa.binary())
        return pa.table(
            {
                self.id_col: b[self.id_col].take(pa.array(row_of)),
                "frame_idx": pa.array(frame_idx, type=pa.int64()),
                "frame": frames,
            }
        )
