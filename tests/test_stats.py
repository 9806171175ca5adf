"""Stats parity: dtype x scale combos vs independent numpy recompute
(reference teststats.py:37-120 analogue), histogram semantics, merge
associativity, and the Ray single-pass path."""

import numpy as np
import pyarrow as pa
import pytest

from rios_ray import stats, synth


def _make_values(dtype, scale, with_negatives=False, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 1, 5000) * scale
    if with_negatives:
        vals = vals - scale / 2
    return vals.astype(dtype)


DTYPE_CASES = [
    (np.uint8, 200, False),
    (np.int16, 300, True),
    (np.uint16, 30000, False),
    (np.int32, 30000, True),
    (np.uint32, 30000, False),
    (np.int64, 30000, True),
    (np.uint64, 30000, False),
    (np.float32, 1, False),
    (np.float64, 0.01, True),
]


@pytest.mark.parametrize("dtype,scale,neg", DTYPE_CASES)
def test_basic_stats_vs_numpy(dtype, scale, neg):
    vals = _make_values(dtype, scale, neg)
    acc = stats.StatsAccumulator(dtype=np.dtype(dtype))
    # accumulate in 3 chunks to exercise merging-by-accumulation
    for chunk in np.array_split(vals, 3):
        acc.accum_stats(chunk)
    mn, mx, mean, std = acc.final_stats()
    assert mn == vals.min() and mx == vals.max()
    f = vals.astype(np.float64)
    assert mean == pytest.approx(f.mean(), rel=1e-12)
    # reference formula: sqrt(ssq/count - mean^2)
    want_std = np.sqrt(np.maximum((f**2).mean() - f.mean() ** 2, 0))
    assert std == pytest.approx(want_std, rel=1e-9)


def test_stats_null_exclusion():
    vals = np.array([0, 5, 5, 7, 0, 9], dtype=np.uint8)
    acc = stats.StatsAccumulator(nullval=0, dtype=np.dtype(np.uint8))
    acc.accum_stats(vals)
    mn, mx, mean, _ = acc.final_stats()
    assert (mn, mx) == (5, 9)
    assert acc.count == 4
    assert mean == pytest.approx(26 / 4)


def test_stats_nan_null():
    vals = np.array([1.0, np.nan, 3.0], dtype=np.float64)
    acc = stats.StatsAccumulator(nullval=float("nan"), dtype=np.dtype(np.float64))
    acc.accum_stats(vals)
    assert acc.count == 2


@pytest.mark.parametrize("dtype,scale,neg", [(np.uint8, 200, False), (np.int16, 120, True),
                                             (np.int32, 100, True), (np.uint16, 250, False)])
def test_histogram_vs_numpy(dtype, scale, neg):
    vals = _make_values(dtype, scale, neg)
    acc = stats.StatsAccumulator(dtype=np.dtype(dtype))
    for chunk in np.array_split(vals, 4):
        acc.accum_hist(chunk)
    minval, maxval, counts = acc.full_hist()
    # independent oracle: value -> count over the full range
    lo, hi = int(vals.min()), int(vals.max())
    want = np.array([(vals == v).sum() for v in range(lo, hi + 1)], dtype=np.int64)
    if np.dtype(dtype) == np.uint8:
        # histMinZero rule: direct bins start at 0
        assert minval == 0
        got = counts[lo:]
    else:
        assert minval == lo
        got = counts
    assert maxval == hi
    np.testing.assert_array_equal(got, want)


def test_histogram_merge_associative():
    a = _make_values(np.int16, 100, True, seed=1)
    b = _make_values(np.int16, 500, True, seed=2)
    acc1 = stats.StatsAccumulator(dtype=np.dtype(np.int16))
    acc1.accum_hist(a)
    acc2 = stats.StatsAccumulator(dtype=np.dtype(np.int16))
    acc2.accum_hist(b)
    merged = acc1.merge(acc2)
    accall = stats.StatsAccumulator(dtype=np.dtype(np.int16))
    accall.accum_hist(np.concatenate([a, b]))
    m1, x1, c1 = merged.full_hist()
    m2, x2, c2 = accall.full_hist()
    assert (m1, x1) == (m2, x2)
    np.testing.assert_array_equal(c1, c2)


def test_histogram_null_removal_and_roundtrip():
    vals = np.array([0, 0, 3, 3, 3, 7], dtype=np.uint8)
    acc = stats.StatsAccumulator(nullval=0, dtype=np.dtype(np.uint8))
    acc.accum_hist(vals)
    minval, maxval, counts = acc.full_hist()
    assert counts[0] == 0  # null bin zeroed
    assert counts[3] == 3 and counts[7] == 1
    # serialization roundtrip through an Arrow partial row
    row = pa.Table.from_pylist([{**acc.to_row(0), "top": 0, "left": 0}],
                               schema=stats.PARTIAL_SCHEMA)
    back = stats.merge_partials([row], nullval=0, dtype=np.dtype(np.uint8))[0]
    np.testing.assert_array_equal(back.hist_pos, acc.hist_pos)


def test_histogram_params_rules():
    p = stats.HistogramParams.for_dtype(np.uint8, 3, 200)
    assert (p.bin_function, p.step, p.min, p.nbins) == ("direct", 1.0, 0, 201)
    p = stats.HistogramParams.for_dtype(np.int32, -10, 100)
    assert (p.bin_function, p.nbins) == ("direct", 111)
    p = stats.HistogramParams.for_dtype(np.int32, 0, 100000)
    assert (p.bin_function, p.nbins) == ("linear", 256)
    assert p.step == pytest.approx(100000 / 256)
    p = stats.HistogramParams.for_dtype(np.float64, 0.0, 1.0)
    assert (p.bin_function, p.nbins) == ("linear", 256)
    p = stats.HistogramParams.for_dtype(np.float64, 2.5, 2.5)
    assert p.nbins == 1 and p.calc_max == 3.0
    with pytest.raises(ValueError):
        stats.HistogramParams.for_dtype(np.uint8, -1, 5, thematic=True)


def test_median_mode():
    vals = np.concatenate([np.full(10, 3), np.full(30, 7), np.full(5, 9)]).astype(np.uint8)
    acc = stats.StatsAccumulator(dtype=np.dtype(np.uint8))
    acc.accum_hist(vals)
    _, _, counts = acc.full_hist()
    p = stats.HistogramParams.for_dtype(np.uint8, 0, 9)
    median, mode = stats.median_mode_from_hist(counts, p, is_float=False)
    assert mode == 7
    assert median == 7  # cum >= 22.5 first at bin 7


def test_linear_rebin_preserves_total():
    counts = np.arange(1, 1001, dtype=np.int64)
    step = 1000 / 256
    new = stats.linear_hist_from_direct(256, step, counts)
    assert new.sum() == counts.sum()
    assert len(new) == 256


def test_merge_partials_order_independent():
    """Float partials merge in (band, top, left) order, so any arrival
    order of the partial tables gives bit-identical stats."""
    rng = np.random.default_rng(11)
    tile = synth.raster_to_tile_table(rng.normal(0, 1e6, (2, 300, 300)), block=64)
    parts = stats.make_partials_fn(np.float64)(tile)
    want = stats.merge_partials([parts], dtype=np.dtype(np.float64))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(parts.num_rows)
        shuffled = parts.take(perm)
        got = stats.merge_partials([shuffled.slice(0, 7), shuffled.slice(7)],
                                   dtype=np.dtype(np.float64))
        for b in (0, 1):
            assert got[b].final_stats() == want[b].final_stats()
            assert got[b].count == 300 * 300


def test_merge_partials_streams_histograms():
    """Histograms add up table by table: merging a stream of wide-range
    uint16 partials never holds more than a few tables' histograms
    (Arrow pool bytes), and gives the same result as one merged table."""
    rng = np.random.default_rng(5)
    fn = stats.make_partials_fn(np.uint16)
    n_tables, hist_bytes = 40, 65536 * 8

    def tiles():
        for i in range(n_tables):
            arr = rng.integers(0, 65536, (1, 64, 64), dtype=np.uint16)
            arr[0, 0, 0] = 65535  # every histogram spans the full range
            part = fn(synth.raster_to_tile_table(arr, block=64))
            yield part.set_column(1, "top", pa.array([64 * i], pa.int32()))

    held = []

    def watched():
        for t in tiles():
            held.append(pa.total_allocated_bytes())
            yield t

    base = pa.total_allocated_bytes()
    got = stats.merge_partials(watched(), dtype=np.dtype(np.uint16))
    assert max(held) - base < 4 * hist_bytes  # all of them: 40 * hist_bytes
    rng = np.random.default_rng(5)
    want = stats.merge_partials([pa.concat_tables(list(tiles()))], dtype=np.dtype(np.uint16))
    assert got[0].final_stats() == want[0].final_stats()
    np.testing.assert_array_equal(got[0].hist_pos, want[0].hist_pos)
    assert got[0].hist_pos.sum() == n_tables * 64 * 64


def test_dataset_band_stats_ray(ray_session, tmp_path):
    import ray.data

    ramp = synth.gen_ramp_array()
    rc = synth.gen_rowcol2_array()
    t = synth.raster_to_tile_table(rc)
    ds = ray.data.from_arrow(t)
    res = stats.dataset_band_stats(ds, np.uint16)
    for band in (0, 1):
        mn, mx, mean, std = res[band]["stats"]
        arr = rc[band].astype(np.float64)
        assert (mn, mx) == (arr.min(), arr.max())
        assert mean == pytest.approx(arr.mean(), rel=1e-12)
        want_std = np.sqrt((arr**2).mean() - arr.mean() ** 2)
        assert std == pytest.approx(want_std, rel=1e-9)
        hmin, hmax, counts = res[band]["hist"]
        assert (hmin, hmax) == (0, 499)
        np.testing.assert_array_equal(counts, np.full(500, 500))


@pytest.mark.parametrize("cdtype", [np.complex64, np.complex128])
def test_complex_stats(cdtype):
    """Complex pixel types: stats on the real component (the reference
    accumulator's astype(float64) semantics, calcstats.py:666-667),
    nodata exclusion on the complex value, histogram skipped."""
    rng = np.random.default_rng(3)
    vals = (rng.normal(0, 40, 500) + 1j * rng.normal(0, 40, 500)).astype(cdtype)
    acc = stats.StatsAccumulator(dtype=np.dtype(cdtype))
    for chunk in np.array_split(vals, 4):
        acc.accum_stats(chunk)
        acc.accum_hist(chunk)  # must no-op, not crash
    mn, mx, mean, std = acc.final_stats()
    re = vals.real.astype(np.float64)
    assert mn == re.min() and mx == re.max()
    assert mean == pytest.approx(re.mean(), rel=1e-6)
    want_std = np.sqrt(np.maximum((re**2).mean() - re.mean() ** 2, 0))
    assert std == pytest.approx(want_std, rel=1e-5)
    assert acc.hist_pos is None and acc.hist_neg is None
    assert acc.full_hist() == (None, None, None)


def test_complex_stats_null_exclusion():
    nullv = complex(2, 3)
    vals = np.array([1 + 1j, 2 + 3j, 4 - 2j, 2 + 3j, -5 + 0j], dtype=np.complex128)
    acc = stats.StatsAccumulator(nullval=nullv, dtype=np.dtype(np.complex128))
    acc.accum_stats(vals)
    mn, mx, mean, std = acc.final_stats()
    keep = vals[vals != nullv].real
    assert acc.count == 3 and mn == keep.min() and mx == keep.max()
    assert mean == pytest.approx(keep.mean(), rel=1e-12)
