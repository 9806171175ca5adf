"""Single-pass statistics: per-band accumulators, histograms, median/mode.

Re-expresses the reference's single-pass stats machinery from scratch
with identical semantics (all cited into ``/root/reference/rios/calcstats.py``):

- basic stats partials sum/ssq/count/min/max with nodata exclusion
  (``calcstats.py:656-675``), final mean/stddev with negative-variance
  clamp (``calcstats.py:677-692``)
- pos/neg ``numpy.bincount`` histograms with variable-length associative
  merge (``calcstats.py:694-781``), null removal (``calcstats.py:747-767``)
- binning rules per dtype class (``calcstats.py:289-361`` HistogramParams)
- direct->linear re-bin preserving total count (``calcstats.py:977-1011``)
- median = first bin with cumsum >= half, mode = argmax bin
  (``calcstats.py:954-970``)

Ray shape: each (tile, band) produces ONE partial row, inside the task
that already holds its pixels (the applier's block task, or
``map_batches`` over a tile table); the driver folds the scalar
partials in a fixed order and adds the histograms as they stream past,
holding one histogram per band — never the pixels.  A partial carries
only its histogram's non-zero bins, so a tile of a few distinct values
in a wide range ships a few pairs, not a bincount from 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_UNSIGNED = {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32), np.dtype(np.uint64)}
_ABS_NEG_DTYPE = {
    np.dtype(np.int8): np.uint8,
    np.dtype(np.int16): np.uint16,
    np.dtype(np.int32): np.uint32,
    np.dtype(np.int64): np.uint64,
}
_FLOATS = {np.dtype(np.float32), np.dtype(np.float64)}
MAX_LINEAR_BINS = 256


def add_two_histograms(h1: np.ndarray | None, h2: np.ndarray | None) -> np.ndarray | None:
    """Ragged elementwise add: shorter histogram added into the longer
    (``calcstats.py:727-746``)."""
    if h1 is None:
        return h2
    if h2 is None:
        return h1
    if len(h1) > len(h2):
        h1 = h1.copy()
        h1[: len(h2)] += h2
        return h1
    h2 = h2.copy()
    h2[: len(h1)] += h1
    return h2


def remove_null_from_counts(counts: np.ndarray, nullval: float) -> np.ndarray:
    """Zero the null value's count; truncate if it was the last entry
    (``calcstats.py:747-767``)."""
    n = len(counts)
    if nullval < n - 1:
        counts = counts.copy()
        counts[int(nullval)] = 0
    elif nullval == n - 1:
        nz = np.where(counts[:-1] > 0)[0]
        counts = counts[: nz[-1] + 1] if len(nz) else np.array([], dtype=counts.dtype)
    return counts


@dataclass
class StatsAccumulator:
    """Per-band partial accumulator (``calcstats.py:619-819`` semantics)."""

    nullval: float | None = None
    thematic: bool = False
    dtype: np.dtype | None = None
    minval: float | None = None
    maxval: float | None = None
    sum: float = 0.0
    ssq: float = 0.0
    count: int = 0
    hist_pos: np.ndarray | None = None
    hist_neg: np.ndarray | None = None

    # ---- accumulate ----
    def _valid(self, arr: np.ndarray) -> np.ndarray:
        if self.nullval is None:
            return arr.ravel()
        if isinstance(self.nullval, float) and np.isnan(self.nullval):
            return arr[~np.isnan(arr)]
        return arr[arr != self.nullval]

    def accum_stats(self, arr: np.ndarray) -> None:
        values = self._valid(arr)
        if np.iscomplexobj(values):
            # complex pixel types: stats on the real component — the
            # reference's accumulator casts with ``astype(float64)``
            # (/root/reference/rios/calcstats.py:666-667, drops the
            # imaginary part), and its GDAL fallback path likewise
            # computes complex-band statistics from the real part only.
            # Applied uniformly to min/max so all four stats agree.
            values = values.real
        if len(values):
            self.sum += float(values.astype(np.float64).sum())
            self.ssq += float((values.astype(np.float64) ** 2).sum())
            self.count += values.size
            mn, mx = values.min(), values.max()
            if self.minval is None or mn < self.minval:
                self.minval = mn
            if self.maxval is None or mx > self.maxval:
                self.maxval = mx

    def accum_hist(self, arr: np.ndarray) -> None:
        """Integer-domain bincount histogram; floats are not histogrammed
        single-pass in the reference either (they fall back to a second
        pass) — callers bin floats via HistogramParams instead."""
        if self.dtype is None:
            self.dtype = arr.dtype
        if np.iscomplexobj(arr):
            # no histogram for complex pixel types (no integer domain);
            # the reference never single-pass-histograms them either
            return
        if arr.dtype in _UNSIGNED:
            a = arr.astype(np.int64) if arr.dtype == np.uint64 else arr
            counts = np.bincount(a.ravel())
            if self.nullval is not None:
                counts = remove_null_from_counts(counts, self.nullval)
            self.hist_pos = add_two_histograms(self.hist_pos, counts if len(counts) else None)
        else:
            counts = np.bincount(arr[arr >= 0])
            if self.nullval is not None and self.nullval >= 0:
                counts = remove_null_from_counts(counts, self.nullval)
            if len(counts):
                self.hist_pos = add_two_histograms(self.hist_pos, counts)
            utype = _ABS_NEG_DTYPE[arr.dtype]
            neg = np.bincount((-arr[arr < 0]).astype(utype))[1:]
            if self.nullval is not None and self.nullval < 0:
                neg = remove_null_from_counts(neg, -self.nullval)
            if len(neg):
                self.hist_neg = add_two_histograms(self.hist_neg, neg)

    # ---- merge (associative) ----
    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        out = StatsAccumulator(self.nullval, self.thematic, self.dtype or other.dtype)
        out.sum = self.sum + other.sum
        out.ssq = self.ssq + other.ssq
        out.count = self.count + other.count
        for v in (self.minval, other.minval):
            if v is not None and (out.minval is None or v < out.minval):
                out.minval = v
        for v in (self.maxval, other.maxval):
            if v is not None and (out.maxval is None or v > out.maxval):
                out.maxval = v
        out.hist_pos = add_two_histograms(self.hist_pos, other.hist_pos)
        out.hist_neg = add_two_histograms(self.hist_neg, other.hist_neg)
        return out

    # ---- finals ----
    def final_stats(self) -> tuple:
        """(min, max, mean, stddev) — ``calcstats.py:677-692`` incl. the
        negative-variance clamp."""
        mean = stddev = None
        if self.count > 0:
            mean = self.sum / self.count
            variance = self.ssq / self.count - mean**2
            stddev = float(np.sqrt(variance)) if variance >= 0 else 0.0
        return (self.minval, self.maxval, mean, stddev)

    def full_hist(self) -> tuple:
        """(minval, maxval, counts) combining pos/neg arrays
        (``calcstats.py:783-819``), incl. the thematic/uint8 min-zero rule."""
        hist_min_zero = self.thematic or self.dtype == np.uint8
        minval = maxval = counts = None
        have_pos, have_neg = self.hist_pos is not None, self.hist_neg is not None
        if have_pos != have_neg:
            counts = self.hist_pos if have_pos else self.hist_neg
            nz = np.where(counts > 0)[0]
            if len(nz):
                minval, maxval = int(nz[0]), int(nz[-1])
            counts = counts[minval : maxval + 1] if minval is not None else counts
            if have_neg and minval is not None:
                minval, maxval = -maxval, -minval
                counts = counts[::-1]
        elif have_pos and have_neg:
            nz = np.where(self.hist_neg > 0)[0]
            minval = -(int(nz[-1]) + 1)
            nz = np.where(self.hist_pos > 0)[0]
            maxval = int(nz[-1])
            counts = np.concatenate([self.hist_neg[::-1], self.hist_pos])
        if minval is not None and minval > 0 and hist_min_zero:
            new = np.zeros(int(maxval) + 1, dtype=np.int64)
            new[minval:] = counts
            counts, minval = new, 0
        return (minval, maxval, counts)

    # ---- (de)serialization for Arrow partial rows ----
    def to_row(self, band: int) -> dict:
        return {
            "band": band,
            "sum": self.sum,
            "ssq": self.ssq,
            "count": self.count,
            "minval": None if self.minval is None else float(self.minval),
            "maxval": None if self.maxval is None else float(self.maxval),
            **_sparse("hist_pos", self.hist_pos),
            **_sparse("hist_neg", self.hist_neg),
        }


def _sparse(key: str, hist: np.ndarray | None) -> dict:
    """A histogram's non-zero bins: ``key + "_bins"`` holds their bin
    numbers, ``key`` their counts (both None for no histogram)."""
    if hist is None:
        return {key + "_bins": None, key: None}
    bins = np.flatnonzero(hist)
    return {key + "_bins": bins.astype(np.int64), key: hist[bins].astype(np.int64)}


def tile_partial(arr: np.ndarray, nullval=None, thematic=False,
                 include_hist=True) -> StatsAccumulator:
    """The stats partial of one (tile, band) pixel array."""
    acc = StatsAccumulator(nullval, thematic, arr.dtype)
    acc.accum_stats(arr)
    if include_hist and arr.dtype.kind in "iu":
        acc.accum_hist(arr)
    return acc


# ---------------------------------------------------------------------------
# binning rules (HistogramParams, calcstats.py:289-361)
# ---------------------------------------------------------------------------


@dataclass
class HistogramParams:
    min: float
    max: float
    step: float
    calc_min: float
    calc_max: float
    nbins: int
    bin_function: str  # 'direct' | 'linear'

    @classmethod
    def for_dtype(cls, dtype, minval, maxval, thematic=False) -> "HistogramParams":
        dtype = np.dtype(dtype)
        if thematic or dtype == np.uint8:
            if minval < 0:
                raise ValueError("negative values in thematic histogram")
            mn, mx = 0, int(np.ceil(maxval))
            return cls(mn, mx, 1.0, mn - 0.5, mx + 0.5, mx - mn + 1, "direct")
        if dtype.kind in "iu":
            histrange = int(np.ceil(maxval) - np.floor(minval)) + 1
            mn, mx = int(minval), int(maxval)
            if histrange <= MAX_LINEAR_BINS:
                return cls(mn, mx, 1.0, mn - 0.5, mx + 0.5, histrange, "direct")
            step = float(mx - mn) / MAX_LINEAR_BINS
            return cls(mn, mx, step, mn, mx, MAX_LINEAR_BINS, "linear")
        if dtype in _FLOATS:
            mn, mx = float(minval), float(maxval)
            nbins = MAX_LINEAR_BINS
            calc_max = mx
            if mn == mx:
                calc_max = mx + 0.5
                nbins = 1
            step = float(calc_max - mn) / nbins
            return cls(mn, mx, step, mn, calc_max, nbins, "linear")
        raise TypeError(f"unsupported dtype {dtype}")


def linear_hist_from_direct(desired_nbins: int, step: float, counts: np.ndarray) -> np.ndarray:
    """Collapse a per-value histogram to linear bins, preserving total
    count (``calcstats.py:977-1011`` exactly, incl. last-bin inclusion)."""
    if desired_nbins > len(counts):
        raise ValueError(f"{desired_nbins} > {len(counts)}: cannot increase bins")
    new = np.zeros(desired_nbins, dtype=counts.dtype)
    upper = 0.0
    for i in range(desired_nbins):
        lower = upper
        upper = (i + 1) * step
        j1, j2 = int(lower), int(upper)
        if i + 1 == desired_nbins:
            j2 += 1
        new[i] = counts[j1:j2].sum()
    return new


def median_mode_from_hist(counts: np.ndarray, params: HistogramParams, is_float: bool):
    """Median/mode estimates (``calcstats.py:954-970``)."""
    middlenum = counts.astype(np.int64).sum() / 2
    medianbin = int(np.nonzero(counts.astype(np.int64).cumsum() >= middlenum)[0][0])
    medianval = medianbin * params.step + params.min
    modebin = int(np.argmax(counts))
    modeval = modebin * params.step + params.min
    if is_float:
        return float(medianval), float(modeval)
    return int(round(medianval)), int(round(modeval))


# ---------------------------------------------------------------------------
# Ray integration: partial per (tile, band) -> driver merge
# ---------------------------------------------------------------------------

# one partial per (tile, band), keyed by the tile's position
PARTIAL_SCHEMA = pa.schema(
    [
        ("band", pa.int32()),
        ("top", pa.int32()),
        ("left", pa.int32()),
        ("sum", pa.float64()),
        ("ssq", pa.float64()),
        ("count", pa.int64()),
        ("minval", pa.float64()),
        ("maxval", pa.float64()),
        # each histogram as its non-zero bins: bin numbers, then counts
        ("hist_pos_bins", pa.list_(pa.int64())),
        ("hist_pos", pa.list_(pa.int64())),
        ("hist_neg_bins", pa.list_(pa.int64())),
        ("hist_neg", pa.list_(pa.int64())),
    ]
)
HIST_COLUMNS = PARTIAL_SCHEMA.names[-4:]


def make_partials_fn(dtype, nullval=None, thematic=False, include_hist=True, step=1):
    """map_batches fn: tile-table batch -> one partial row per tile row,
    over every ``step``-th pixel row and column of each tile."""
    dtype = np.dtype(dtype)

    def partials(batch: pa.Table) -> pa.Table:
        bands = batch["band"].to_numpy(zero_copy_only=False)
        tops, lefts = batch["top"].to_pylist(), batch["left"].to_pylist()
        nrows = batch["nrows"].to_pylist()
        col = batch["data"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offsets = col.offsets.to_numpy()
        flat = col.values.to_numpy(zero_copy_only=False).astype(dtype, copy=False)
        rows = []
        for i in range(batch.num_rows):
            px = flat[offsets[i] : offsets[i + 1]]
            if step > 1:
                px = px.reshape(nrows[i], -1)[::step, ::step]
            acc = tile_partial(px, nullval, thematic, include_hist)
            rows.append({**acc.to_row(int(bands[i])), "top": tops[i], "left": lefts[i]})
        return pa.Table.from_pylist(rows, schema=PARTIAL_SCHEMA)

    return partials


def merge_partials(tables, nullval=None, thematic=False, dtype=None):
    """Driver-side final reduce over an iterable of tables (or record
    batches) holding the :data:`PARTIAL_SCHEMA` columns: dict band ->
    merged StatsAccumulator.  The sparse histograms scatter-add into one
    dense histogram per band as the tables stream past, so only one
    table's partials are held at once; the scalar columns (one row per
    (tile, band)) fold in (band, top, left) order, so the float sums do
    not depend on the order Ray returned them in."""
    rows, hists = [], {}
    for x in tables:
        rows += zip(*(x[k].to_pylist() for k in PARTIAL_SCHEMA.names[:-4]))
        bands = x["band"].to_numpy(zero_copy_only=False)
        for k in ("hist_pos", "hist_neg"):
            col = x[k]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            bins = pc.list_flatten(x[k + "_bins"]).to_numpy(zero_copy_only=False)
            counts = pc.list_flatten(col).to_numpy(zero_copy_only=False)
            owner = bands[pc.list_parent_indices(col).to_numpy(zero_copy_only=False)]
            for b in np.unique(owner).tolist():
                sel = owner == b
                idx = bins[sel]
                h = hists.get((b, k), np.zeros(0, np.int64))
                if idx.max() >= len(h):
                    h = np.concatenate([h, np.zeros(idx.max() + 1 - len(h), np.int64)])
                np.add.at(h, idx, counts[sel])
                hists[(b, k)] = h
    out: dict[int, StatsAccumulator] = {}
    for b, _, _, *scalars in sorted(rows, key=lambda r: r[:3]):
        acc = StatsAccumulator(nullval, thematic, dtype)
        acc.sum, acc.ssq, acc.count, acc.minval, acc.maxval = scalars
        out[b] = out[b].merge(acc) if b in out else acc
    for (b, k), h in hists.items():
        setattr(out[b], k, h)
    return out


def dataset_band_stats(ds, dtype, nullval=None, thematic=False, include_hist=True):
    """Full single-pass stats over a tile-keyed Dataset.

    Returns dict band -> (min, max, mean, stddev, full_hist tuple).
    The heavy pass is a streaming map_batches; the reduce sees one row
    per (tile, band).
    """
    partial_ds = ds.map_batches(
        make_partials_fn(dtype, nullval, thematic, include_hist),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    merged = merge_partials(
        partial_ds.iter_batches(batch_format="pyarrow", batch_size=None),
        nullval, thematic, np.dtype(dtype),
    )
    return {
        b: {"stats": acc.final_stats(), "hist": acc.full_hist() if include_hist else None}
        for b, acc in merged.items()
    }
