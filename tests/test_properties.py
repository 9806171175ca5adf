"""Hypothesis property tests for the pure grid/hash kernels — the
engine's bit-exactness contracts (SURVEY §7.4.1: float drift in grid
arithmetic silently shifts tile membership)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rios_ray import gridmodel as G
from rios_ray.cells import grid_cell_id, grid_cell_ring, grid_cell_step, grid_cell_yx
from rios_ray.dedup.hashing import fnv1a64, hamming64

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(finite)
def test_round_away_vec_matches_decimal_scalar(x):
    assert G.round_away_vec(np.array([x]))[0] == G.round_away(x)


@given(finite, st.floats(min_value=1e-3, max_value=1e4,
                         allow_nan=False, allow_infinity=False))
def test_snap_idempotent(val, res):
    s1 = G.snap_to_grid(val, 0.0, res)
    s2 = G.snap_to_grid(s1, 0.0, res)
    assert s2 == s1  # snapping an on-grid value is a fixpoint


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=1, max_value=512),
)
def test_block_list_tiles_grid_exactly(nrows, ncols, by, bx):
    grid = G.PixelGrid(0.0, ncols * 1.0, 0.0, nrows * 1.0, 1.0, 1.0, "X")
    blocks = G.make_block_list(grid, by, bx)
    # disjoint and covering: total pixels match, no overlap
    assert sum(b.nrows * b.ncols for b in blocks) == nrows * ncols
    seen = set()
    for b in blocks:
        assert 0 <= b.top < nrows and 0 <= b.left < ncols
        assert b.top + b.nrows <= nrows and b.left + b.ncols <= ncols
        assert (b.top, b.left) not in seen
        seen.add((b.top, b.left))
    # row-major order (reference applier.py:1308-1326)
    keys = [(b.top, b.left) for b in blocks]
    assert keys == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-179.99, max_value=179.99, allow_nan=False),
    st.floats(min_value=-89.99, max_value=89.99, allow_nan=False),
    st.integers(min_value=3, max_value=9),
)
def test_cell_id_roundtrip_and_bounds(lon, lat, res):
    cid = int(grid_cell_id(np.array([lon]), np.array([lat]), res)[0])
    ny, nx = 1 << res, 2 << res
    cy, cx = grid_cell_yx(np.array([cid]), res)
    assert 0 <= cy[0] < ny and 0 <= cx[0] < nx
    # the point lies inside its cell's extent, up to one float-add ULP
    # at the cell edge (e.g. lon=-2e-16 + 180.0 == 180.0 exactly): the
    # binding contract is bit-equality with the SQL expression, which
    # uses the identical IEEE ops — not geometric strictness
    step = grid_cell_step(res)
    tol = 1e-9 * max(1.0, abs(lat), abs(lon))
    assert 90.0 - (cy[0] + 1) * step - tol <= lat <= 90.0 - cy[0] * step + tol
    assert -180.0 + cx[0] * step - tol <= lon <= -180.0 + (cx[0] + 1) * step + tol


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-170, max_value=170, allow_nan=False),
    st.floats(min_value=-80, max_value=80, allow_nan=False),
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_ring_cells_at_exact_chebyshev_distance(lon, lat, res, ring):
    cid = int(grid_cell_id(np.array([lon]), np.array([lat]), res)[0])
    cells = grid_cell_ring(cid, res, ring)
    nx = 2 << res
    cy, cx = cid // nx, cid % nx
    for c in cells:
        dy = abs(int(c) // nx - cy)
        dxr = abs(int(c) % nx - cx)
        dx = min(dxr, nx - dxr)  # lon wraps
        assert max(dy, dx) == ring
    assert len(set(cells.tolist())) == len(cells)  # no duplicates


@given(st.lists(st.text(max_size=40), max_size=50))
def test_fnv_vectorized_matches_scalar_definition(strings):
    got = fnv1a64(strings)
    for s, h in zip(strings, got):
        ref = 0xCBF29CE484222325
        for byte in s.encode("utf-8"):
            ref = ((ref ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        assert int(h) == ref


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=50))
def test_hamming_identity_and_symmetry(vals):
    a = np.array(vals, dtype=np.uint64)
    assert (hamming64(a, a) == 0).all()
    b = a[::-1].copy()
    assert np.array_equal(hamming64(a, b), hamming64(b, a))
    # popcount identity: d(a, 0) = popcount(a)
    zero = np.zeros_like(a)
    assert np.array_equal(hamming64(a, zero),
                          np.array([bin(int(v)).count("1") for v in vals]))


@given(
    st.lists(st.integers(0, 30), min_size=0, max_size=200),
    st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_run_pair_indices_matches_naive(keys, df_cap):
    """Size-grouped vectorized pair emission == a naive per-run loop:
    same pair multiset, runs past df_cap dropped whole."""
    import itertools

    from rios_ray.pipelines.dedup import _run_pair_indices

    arr = np.sort(np.asarray(keys, dtype=np.int64))
    new = (
        np.concatenate([[True], arr[1:] != arr[:-1]])
        if len(arr)
        else np.zeros(0, dtype=bool)
    )
    ia, ib = _run_pair_indices(new, df_cap)
    got = sorted(zip(ia.tolist(), ib.tolist()))
    want = []
    i = 0
    while i < len(arr):
        j = i
        while j < len(arr) and arr[j] == arr[i]:
            j += 1
        if 2 <= j - i <= df_cap:
            want.extend(itertools.combinations(range(i, j), 2))
        i = j
    assert got == sorted(want)
    assert all(a < b for a, b in got)


@given(st.lists(st.text(max_size=40), min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_winnow_flat_property(texts):
    """Flat-buffer winnow kernel == per-doc reference on arbitrary
    unicode input (hypothesis sweep on top of the seeded parity test)."""
    import pyarrow as pa

    from rios_ray.text import analysis as A

    vals, doc_of = A.winnow_fingerprints_flat(pa.array(texts, type=pa.string()))
    for i, t in enumerate(texts):
        assert np.array_equal(A.winnow_fingerprint_one(t), vals[doc_of == i]), i


@given(st.lists(st.tuples(st.text(max_size=25), st.text(max_size=25)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_levenshtein_batch_properties(pairs):
    """Metric axioms on arbitrary unicode pairs: identity, symmetry,
    length-difference lower bound, max-length upper bound — plus batch
    equals a scalar DP recompute."""
    from rios_ray.text.analysis import levenshtein_batch

    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    d_ab = levenshtein_batch(a, b)
    d_ba = levenshtein_batch(b, a)
    d_aa = levenshtein_batch(a, a)
    la = np.array([len(s.encode()) for s in a])
    lb = np.array([len(s.encode()) for s in b])
    assert (d_aa == 0).all()
    assert np.array_equal(d_ab, d_ba)
    assert (d_ab >= np.abs(la - lb)).all()
    assert (d_ab <= np.maximum(la, lb)).all()

    def scalar(x, y):
        x, y = x.encode(), y.encode()
        prev = list(range(len(x) + 1))
        for j in range(1, len(y) + 1):
            cur = [j] + [0] * len(x)
            for i in range(1, len(x) + 1):
                cur[i] = min(prev[i] + 1, cur[i - 1] + 1,
                             prev[i - 1] + (x[i - 1] != y[j - 1]))
            prev = cur
        return prev[len(x)]

    assert d_ab.tolist() == [scalar(x, y) for x, y in pairs]


@given(st.lists(st.tuples(
    st.floats(-20, 40, allow_nan=False), st.floats(-20, 40, allow_nan=False),
    st.floats(-20, 40, allow_nan=False), st.floats(-20, 40, allow_nan=False),
), min_size=1, max_size=15))
# on column line 0, ending exactly on row line 1: the end cell is (1, 0)
@example(segs=[(0.0, -1.03125, 0.0, 1.0)])
@settings(max_examples=40, deadline=None)
def test_supercover_properties(segs):
    """Supercover invariants: both endpoint cells present (also when an
    endpoint lies exactly on a grid line), every consecutive cell pair
    along the traversal 8-connected, cell count <= |dc| + |dr| + 3
    (crossings + 1).  Inputs are snapped to 3 decimals — a
    denormal-epsilon coordinate (e.g. -1e-38, whose floor is -1) makes
    the 'endpoint floor-cell present' claim ill-posed under the
    documented on-gridline tie rule; real pixel coordinates are never
    subnormal."""
    from rios_ray.spatial import supercover_cells

    c0 = np.round([s[0] for s in segs], 3)
    r0 = np.round([s[1] for s in segs], 3)
    c1 = np.round([s[2] for s in segs], 3)
    r1 = np.round([s[3] for s in segs], 3)
    sidx, rows, cols = supercover_cells(c0, r0, c1, r1)
    for i in range(len(segs)):
        m = sidx == i
        cells = list(zip(rows[m].tolist(), cols[m].tolist()))
        got = set(cells)
        assert (int(np.floor(r0[i])), int(np.floor(c0[i]))) in got
        assert (int(np.floor(r1[i])), int(np.floor(c1[i]))) in got
        assert len(got) <= abs(c1[i] - c0[i]) + abs(r1[i] - r0[i]) + 3
        for (ra, ca), (rb, cb) in zip(cells, cells[1:]):
            assert abs(ra - rb) <= 1 and abs(ca - cb) <= 1, (segs[i], cells)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300),
                min_size=1, max_size=400))
@settings(max_examples=60, deadline=None)
def test_exact_float_sum_property(vals):
    """Exponent-bucketed exact accumulation == math.fsum bit-for-bit,
    under ANY partitioning of the input (mergeable combiner state)."""
    import math
    import struct

    from rios_ray.functions.agg import _buckets_to_float, _mantissa_buckets

    arr = np.array(vals, dtype=np.float64)
    want = struct.pack("<d", math.fsum(vals))
    d = _mantissa_buckets(arr, np.array([0]), np.array([len(arr)]))[0]
    assert struct.pack("<d", _buckets_to_float(d)) == want
    # split into 3 arbitrary chunks and merge the bucket dicts
    c1, c2 = len(arr) // 3, 2 * len(arr) // 3
    merged: dict = {}
    for dd in _mantissa_buckets(arr, np.array([0, c1, c2]),
                                np.array([c1, c2, len(arr)])):
        for e, m in dd.items():
            merged[e] = merged.get(e, 0) + m
    assert struct.pack("<d", _buckets_to_float(merged)) == want


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 7) * (2 << 7) - 1),
             min_size=0, max_size=200, unique=True),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_grid_children_inverts_parent(cells_list, res):
    """grid_parent(grid_children(c, r), r+1) == repeat(c, 4) for every
    cell valid at res r (round-5 compact/uncompact contract)."""
    from rios_ray.cells import grid_children, grid_parent

    ny, nx = 1 << res, 2 << res
    c = np.array([v for v in cells_list if v < ny * nx], dtype=np.int64)
    kids = grid_children(c, res)
    assert len(kids) == 4 * len(c)
    assert np.array_equal(grid_parent(kids, res + 1), np.repeat(c, 4))
    # children are distinct and valid at res+1
    assert len(np.unique(kids)) == len(kids)
    if len(kids):
        assert kids.min() >= 0 and kids.max() < (1 << (res + 1)) * (2 << (res + 1))


@given(
    st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=0,
             max_size=50, unique=True),
    st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=0,
             max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_sorted_lookup_matches_isin(keys, probe):
    """sorted_lookup's found mask == np.isin, and found positions point
    at the probed key (the broadcast-side membership contract)."""
    from rios_ray.functions.join import sorted_lookup

    ks = np.sort(np.array(keys, dtype=np.int64))
    pr = np.array(probe, dtype=np.int64)
    pos, found = sorted_lookup(ks, pr)
    assert np.array_equal(found, np.isin(pr, ks))
    if found.any():
        assert np.array_equal(ks[pos[found]], pr[found])
