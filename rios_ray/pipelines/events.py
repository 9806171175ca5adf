"""Windowed aggregates over the events table (tumbling / sliding /
session windows).

The reference is strictly batch with no window semantics (SURVEY §2.9);
these are the "custom operator" class the engine adds for event
streams, expressed Ray-Data-first:

- **Tumbling**: window id is a pure column function (epoch // width) —
  a stateless ``map_batches`` projection, then the vectorized grouped
  aggregate (functions/agg.py).  No ordering assumption at all.
- **Sliding** (width = 2 x step): each event belongs to exactly two
  step-aligned windows — a flat-map that duplicates the (tiny) window
  key row, NOT the payload, then the same grouped aggregate.  Fan-out
  is the overlap factor, known statically.
- **Session** (gap-based, per user): the one genuinely stateful window.
  Rows are hash-partitioned by user (the keyed exchange, vectorized —
  not per-user ``map_groups``); inside a partition one sort by
  (user, ts) + a cumsum over gap flags assigns session ids to every
  event at numpy speed.  The partitioning assumption (all of a user's
  events in one partition) is the documented co-location contract.

Float sums in oracle-checked outputs are either excluded (associativity
of float addition differs between engines; counts and min/max compare
bit-exactly) or routed through the EXACT order-independent sum
(``value_mean_per_type`` via ``functions.agg.grouped_exact_float_sum``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.agg import (
    global_int_sums,
    hash_grouped_aggregate,
    hash_partitioned_groups,
    key_codes,
)
from ..sources.documents import read_table

HOUR_US = 3_600_000_000
DEFAULT_WINDOW_US = 6 * HOUR_US
DEFAULT_GAP_US = 4 * HOUR_US


def read_events(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return read_table(os.path.join(sf_dir, "events.parquet"), columns)


def _epoch_us(b: pa.Table, col: str = "ts") -> np.ndarray:
    return b[col].cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_counts(
    sf_dir: str, window_us: int = DEFAULT_WINDOW_US
) -> ray.data.Dataset:
    """(window, event_type, n_events, min_value, max_value) per tumbling
    window of ``window_us`` microseconds."""

    def assign(b: pa.Table) -> pa.Table:
        w = _epoch_us(b) // window_us
        return pa.table(
            {
                "window": pa.array(w),
                "event_type": b["event_type"],
                "value": b["value"],
            }
        )

    ds = read_events(sf_dir, columns=["ts", "event_type", "value"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    return hash_grouped_aggregate(
        ds,
        ["window", "event_type"],
        [
            (None, "count", "n_events"),
            ("value", "min", "min_value"),
            ("value", "max", "max_value"),
        ],
    )


def sliding_counts(
    sf_dir: str, step_us: int = DEFAULT_WINDOW_US
) -> ray.data.Dataset:
    """Sliding windows of width ``2*step_us``, sliding by ``step_us``:
    window w covers [w*step, (w+2)*step) — every event lands in windows
    floor(t/step) and floor(t/step)-1.  Output (window, n_events)."""

    def fanout(b: pa.Table) -> pa.Table:
        w1 = _epoch_us(b) // step_us
        w = np.concatenate([w1, w1 - 1])
        return pa.table({"window": pa.array(w)})

    ds = read_events(sf_dir, columns=["ts"]).map_batches(
        fanout, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    return hash_grouped_aggregate(ds, ["window"], [(None, "count", "n_events")])


def gap_sessions(g: pa.Table, key: str, gap_us: int, count_name: str) -> pa.Table:
    """One row per gap session of every key in ``g`` (columns ``key``
    and ``e``, an int64 epoch in microseconds): (key, session_id,
    ``count_name``, t_start, t_end), session_id counting 0.. per key in
    ``e`` order.  A session starts at a key's first row and after every
    gap longer than ``gap_us``.  One composite sort + a vectorized gap
    cumsum over the whole table; no per-key Python."""
    g = g.sort_by([(key, "ascending"), ("e", "ascending")])
    kcol = g[key].combine_chunks()
    e = g["e"].to_numpy(zero_copy_only=False)
    if len(e) == 0:
        empty = pa.array([], type=pa.int64())
        return pa.table({key: kcol, "session_id": empty, count_name: empty,
                         "t_start": empty, "t_end": empty})
    codes = key_codes(kcol)
    new_key = np.concatenate([[True], codes[1:] != codes[:-1]])
    gap = np.concatenate([[True], (e[1:] - e[:-1]) > gap_us])
    sess_start = np.flatnonzero(new_key | gap)
    key_first = new_key[sess_start]                 # session opens its key
    first_pos = np.flatnonzero(key_first)           # key ordinal -> session index
    key_ord = np.cumsum(key_first) - 1              # session -> key ordinal
    return pa.table({
        key: pc.take(kcol, pa.array(sess_start)),
        "session_id": pa.array(np.arange(len(sess_start)) - first_pos[key_ord]),
        count_name: pa.array(np.diff(np.append(sess_start, len(e))).astype(np.int64)),
        "t_start": pa.array(e[sess_start]),
        "t_end": pa.array(np.maximum.reduceat(e, sess_start)),
    })


def session_windows(sf_dir: str, gap_us: int = DEFAULT_GAP_US) -> ray.data.Dataset:
    """Gap-based sessionization per user.

    Output one row per session: (user_id, session_id, n_events,
    t_start, t_end) with session_id counting 0.. per user in ts order.
    Co-location contract: the keyed exchange puts all of a user's
    events in one partition; the per-partition kernel is
    :func:`gap_sessions`.
    """

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"], "e": pa.array(_epoch_us(b))})

    ds = read_events(sf_dir, columns=["user_id", "ts"]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    return hash_partitioned_groups(
        ds, ["user_id"], lambda g: gap_sessions(g, "user_id", gap_us, "n_events"))


def distinct_users(sf_dir: str, window_us: int = DEFAULT_WINDOW_US):
    """(window, n_users): exact COUNT(DISTINCT user_id) per tumbling
    window.

    The scale-correct two-level shape for grouped count-distinct:
    per-batch pair dedup (one (window, user) row per batch enters the
    exchange, not one per event), ONE hash exchange on the pair key so
    a pair never lands in two partitions, per-partition dedup + count,
    then a tiny tree sum over per-partition window partials (window
    count is bounded by the time range).  No global distinct set is
    ever materialized anywhere.
    """
    from ..functions.agg import rename_aggregates

    def pairs(b: pa.Table) -> pa.Table:
        w = _epoch_us(b) // window_us
        t = pa.table({"window": pa.array(w), "user_id": b["user_id"]})
        return t.group_by(["window", "user_id"]).aggregate([])

    ds = read_events(sf_dir, columns=["ts", "user_id"]).map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def per_partition(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by(["window", "user_id"]).aggregate([])
        g = d.group_by(["window"]).aggregate([([], "count_all")])
        return rename_aggregates(g, [([], "count_all")], ["n_part"])

    parts = hash_partitioned_groups(ds, ["window", "user_id"], per_partition)
    return hash_grouped_aggregate(
        parts, ["window"], [("n_part", "sum", "n_users")], final_mode="tree"
    )


HLL_P = 12  # 2^12 = 4096 registers -> ~1.6% relative error


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit avalanche hash (public splitmix64 constants)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


HLL_M = 1 << HLL_P
# alpha_m * m^2 * 2^64: the raw-estimator numerator, precomputed once and
# embedded (via repr) into the SQL oracle so the one float division is
# the identical IEEE operation in both engines
HLL_ALPHA_NUM = (0.7213 / (1.0 + 1.079 / HLL_M)) * HLL_M * HLL_M * 2.0**64


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized ``int.bit_length`` for nonzero uint64 values.

    float64 log2 gets within 1 of the answer; the two integer-exact
    boundary fixes catch the ~2^-53-measure inputs where the float
    rounds across a power-of-2 boundary — without them the vectorized
    path could diverge from a scalar ``bit_length`` oracle (the HLL
    sidecar) on adversarial values."""
    k = np.floor(np.log2(x.astype(np.float64))).astype(np.int64)
    k = np.clip(k, 0, 63)
    k = k - ((np.uint64(1) << k.astype(np.uint64)) > x)
    bump = (k < 63) & (
        (np.uint64(1) << np.minimum(k + 1, 63).astype(np.uint64)) <= x
    )
    return k + bump + 1  # now 2^(k) <= x < 2^(k+1) exactly


def _hll_registers(ids: np.ndarray, p: int = HLL_P) -> np.ndarray:
    """Dense HLL register array for a batch of int ids (vectorized)."""
    m = 1 << p
    h = _splitmix64(ids)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))  # guard bit
    # rho = leading zeros of rest + 1 = 65 - bit_length(rest)
    rho = (np.int64(65) - _bit_length_u64(rest)).clip(1, 64 - p + 1)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho.astype(np.uint8))
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction (Flajolet et al. 2007) — computed DETERMINISTICALLY so
    the DuckDB oracle reproduces it bit-for-bit:

    - the raw-branch denominator sum(2^-r) is accumulated as an exact
      Python integer (x 2^64), then divided in ONE float op;
    - the linear-counting branch needs only the integer zero-register
      count and one ``ln`` (bit-identical libm here, verified);
    - callers round with :func:`_round1` (floor(x*10+0.5)/10 — Python's
      ``round`` does decimal-string rounding SQL can't mirror).

    The only cross-engine wobble left is DuckDB's double-rounded
    HUGEINT->DOUBLE cast in the raw branch (last-ulp, ~0.03% of random
    denominators) — unreachable at gate configs, where every window is
    far below the 2.5m linear-counting threshold."""
    import math

    cnt = np.bincount(regs, minlength=65)
    denom = sum(int(c) << (64 - r) for r, c in enumerate(cnt) if c)
    est = HLL_ALPHA_NUM / float(denom)
    zeros = int(cnt[0])
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * math.log(HLL_M / zeros)
    return est


def _round1(x: float) -> float:
    """Deterministic 1-decimal rounding shared with the SQL oracle."""
    import math

    return math.floor(x * 10.0 + 0.5) / 10.0


def distinct_users_hll(sf_dir: str, window_us: int = DEFAULT_WINDOW_US):
    """(window, n_users_approx): HyperLogLog distinct users per window.

    The sketch path for cardinalities too large for exact pair dedup:
    each batch emits one (window, 4 KiB register blob) row, merge is an
    elementwise register max (associative + commutative, so partials
    tree-combine freely), the driver estimates from one register array
    per window.  Exchange volume is O(windows x batches x 4 KiB),
    independent of user cardinality.  Approximate by design (~1.6%
    rel. error at p=12; accuracy asserted vs the exact operator in
    tests) — but DETERMINISTIC, so the register-merge math and the
    estimator formula are SQL-gated end-to-end against the scalar
    per-(window,user) register sidecar (:func:`ensure_hll_sidecar`).
    """
    import pandas as pd

    m = 1 << HLL_P

    def partial(b: pa.Table) -> pa.Table:
        w = _epoch_us(b) // window_us
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(w, kind="stable")
        ws, us = w[order], uid[order]
        bounds = np.flatnonzero(np.diff(ws)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(ws)]])
        rows = []
        for s, e in zip(starts, ends):
            rows.append({"window": int(ws[s]),
                         "regs": _hll_registers(us[s:e]).tobytes()})
        return pa.Table.from_pylist(
            rows, schema=pa.schema([("window", pa.int64()), ("regs", pa.binary())])
        )

    ds = read_events(sf_dir, columns=["ts", "user_id"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def merge(tbl: pa.Table) -> pa.Table:
        w = tbl["window"].to_numpy(zero_copy_only=False)
        blobs = tbl["regs"].to_pylist()
        out = []
        for win in np.unique(w):
            sel = np.flatnonzero(w == win)
            regs = np.zeros(m, dtype=np.uint8)
            for i in sel:
                regs = np.maximum(regs, np.frombuffer(blobs[i], dtype=np.uint8))
            out.append({"window": int(win),
                        "n_users_approx": _round1(_hll_estimate(regs))})
        return pa.Table.from_pylist(
            out,
            schema=pa.schema([("window", pa.int64()), ("n_users_approx", pa.float64())]),
        )

    return hash_partitioned_groups(ds, ["window"], merge)


def ensure_hll_sidecar(sf_dir: str, window_us: int = DEFAULT_WINDOW_US) -> str:
    """Deterministic (window, reg_idx, rho) parquet — one row per
    distinct (window, user) — the independent input the DuckDB oracle
    reads to gate ``distinct_users_hll`` end to end (register maxes via
    ``GROUP BY window, reg_idx -> MAX(rho)``, then the estimator
    formula in SQL).

    No Ray involved, and deliberately the SCALAR path — Python-int
    splitmix64 and ``int.bit_length`` leading-zero counts — so the
    sidecar independently cross-checks the pipeline's vectorized
    avalanche and float-log2 rho extraction, not just the merge (the
    ``ensure_simhash_sidecar`` pattern).  Cached under /tmp/graft_synth.
    """
    import pyarrow.parquet as pq

    from ..synth import PAGES_ROOT

    name = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(PAGES_ROOT, name, f"hll_regs_w{window_us}.parquet")
    if not os.path.exists(out):
        m64 = (1 << 64) - 1
        tbl = pq.read_table(
            os.path.join(sf_dir, "events.parquet"), columns=["ts", "user_id"]
        )
        ts = tbl["ts"].cast(pa.int64()).to_pylist()
        uids = tbl["user_id"].to_pylist()
        seen: set = set()
        wins, idxs, rhos = [], [], []
        for t, u in zip(ts, uids):
            w = t // window_us
            if (w, u) in seen:
                continue
            seen.add((w, u))
            x = (u + 0x9E3779B97F4A7C15) & m64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
            x = x ^ (x >> 31)
            rest = ((x << HLL_P) & m64) | (1 << (HLL_P - 1))  # guard bit
            wins.append(w)
            idxs.append(x >> (64 - HLL_P))
            rhos.append(65 - rest.bit_length())
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = f"{out}.tmp.{os.getpid()}"
        pq.write_table(
            pa.table({
                "window": pa.array(wins, type=pa.int64()),
                "reg_idx": pa.array(idxs, type=pa.int64()),
                "rho": pa.array(rhos, type=pa.int64()),
            }),
            tmp,
        )
        os.replace(tmp, out)
    return out


def _user_segments(rank: np.ndarray, e: np.ndarray):
    """(order, seg_starts, seg_ends) for per-user iteration, rows
    sorted by (user rank, time)."""
    order = np.lexsort((e, rank))
    r_s = rank[order]
    starts = np.flatnonzero(np.concatenate([[True], r_s[1:] != r_s[:-1]]))
    ends = np.append(starts[1:], len(order))
    return order, starts, ends


def _asof_per_user(uid, e, eid, is_left, rank) -> pa.Table:
    """Overflow-safe fallback for asof_last_event's composite-key path:
    plain per-user segment loop (only runs when rank*span would wrap
    int64, i.e. far past the documented fast-path invariant)."""
    order, starts, ends = _user_segments(rank, e)
    out_eid, out_uid, out_e, out_last, out_valid = [], [], [], [], []
    for s, t in zip(starts, ends):
        seg = order[s:t]
        seg_left = seg[is_left[seg]]
        re = e[seg[~is_left[seg]]]  # sorted (lexsort by e within user)
        le = e[seg_left]
        pos = np.searchsorted(re, le, side="right") - 1
        valid = pos >= 0
        last = re[np.maximum(pos, 0)] if len(re) else np.zeros(len(le), np.int64)
        out_eid.append(eid[seg_left])
        out_uid.append(uid[seg_left])
        out_e.append(le)
        out_last.append(last)
        out_valid.append(valid if len(re) else np.zeros(len(le), bool))
    cat = lambda xs, d: np.concatenate(xs) if xs else np.zeros(0, d)  # noqa: E731
    valid = cat(out_valid, bool)
    return pa.table(
        {
            "event_id": pa.array(cat(out_eid, np.int64)),
            "user_id": pa.array(cat(out_uid, np.int64)),
            "e": pa.array(cat(out_e, np.int64)),
            "last_right_e": pa.array(
                cat(out_last, np.int64).astype(np.int64), type=pa.int64(), mask=~valid
            ),
        }
    )


def _range_per_user(uid, e, eid, is_left, rank, radius_us: int) -> pa.Table:
    """Overflow-safe fallback for range_join_counts (see _asof_per_user)."""
    order, starts, ends = _user_segments(rank, e)
    out_eid, out_uid, out_e, out_n = [], [], [], []
    for s, t in zip(starts, ends):
        seg = order[s:t]
        seg_left = seg[is_left[seg]]
        re = e[seg[~is_left[seg]]]
        le = e[seg_left]
        n = (
            np.searchsorted(re, le + radius_us, side="right")
            - np.searchsorted(re, le - radius_us, side="left")
        ).astype(np.int64)
        out_eid.append(eid[seg_left])
        out_uid.append(uid[seg_left])
        out_e.append(le)
        out_n.append(n)
    cat = lambda xs, d: np.concatenate(xs) if xs else np.zeros(0, d)  # noqa: E731
    return pa.table(
        {
            "event_id": pa.array(cat(out_eid, np.int64)),
            "user_id": pa.array(cat(out_uid, np.int64)),
            "e": pa.array(cat(out_e, np.int64)),
            "n_right": pa.array(cat(out_n, np.int64)),
        }
    )


def asof_last_event(sf_dir: str, left_type: str = "click",
                    right_type: str = "error"):
    """As-of join: for every ``left_type`` event, the timestamp of the
    latest ``right_type`` event by the same user at-or-before it.

    Ray Data has no as-of join; the composition is the documented
    custom-operator recipe: hash-partition both sides on the equi-key
    (user) so each partition holds complete user timelines, then a
    per-partition vectorized backward search (sort + merge positions
    via searchsorted) — the partitioning assumption is that one user's
    events fit a partition, the same invariant session_windows relies
    on.  Output timestamps are epoch microseconds (int64; null when no
    prior right event exists).
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"], value_set=pa.array([left_type, right_type]))
        b = b.filter(keep)
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "e": pa.array(_epoch_us(b)),
                "is_left": pc.equal(b["event_type"], left_type),
            }
        )

    ds = read_events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def per_partition(tbl: pa.Table) -> pa.Table:
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        e = tbl["e"].to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        is_left = tbl["is_left"].to_numpy(zero_copy_only=False)
        # dense (user rank, time offset) composite key: one int64
        # searchsorted finds the last right at-or-before each left.
        # rank * span stays well inside int64 (users/partition x time
        # span; ~1e6 x 1e13 us = 1e19 would overflow, but a partition's
        # user count is corpus/partitions — document the invariant)
        emin = int(e.min()) if len(e) else 0
        span = (int(e.max()) - emin + 2) if len(e) else 1
        _, rank = np.unique(uid, return_inverse=True)
        max_rank = int(rank.max()) if len(rank) else 0
        if max_rank and max_rank > (2**63 - 1) // span:
            # composite key would wrap int64 (huge time span x many
            # users/partition) — fall back to per-user segments
            return _asof_per_user(uid, e, eid, is_left, rank)
        key = rank.astype(np.int64) * span + (e - emin)
        r_mask = ~is_left
        r_key = np.sort(key[r_mask])
        r_rank_sorted = rank[r_mask][np.argsort(key[r_mask], kind="stable")]
        r_e_sorted = (r_key % span) + emin if span else r_key
        l_mask = is_left
        l_key, l_rank = key[l_mask], rank[l_mask]
        pos = np.searchsorted(r_key, l_key, side="right") - 1
        pos_c = np.maximum(pos, 0)
        valid = (pos >= 0) & (r_rank_sorted[pos_c] == l_rank) if len(r_key) else np.zeros(l_mask.sum(), dtype=bool)
        last_e = r_e_sorted[pos_c] if len(r_key) else np.zeros(int(l_mask.sum()), dtype=np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid[l_mask]),
                "user_id": pa.array(uid[l_mask]),
                "e": pa.array(e[l_mask]),
                "last_right_e": pa.array(
                    last_e.astype(np.int64), type=pa.int64(), mask=~valid
                ),
            }
        )

    return hash_partitioned_groups(ds, ["user_id"], per_partition)


def range_join_counts(sf_dir: str, left_type: str = "click",
                      right_type: str = "error",
                      radius_us: int = HOUR_US):
    """Range (interval) join: for every ``left_type`` event, the number
    of ``right_type`` events by the same user within ``radius_us``
    microseconds either side of it.

    Same custom-operator recipe as :func:`asof_last_event` (Ray Data has
    no range join): hash-partition on the equi-key (user) so each
    partition holds complete user timelines, then a per-partition
    vectorized interval count — right side sorted once on a dense
    (user rank, time offset) composite int64 key, each left row's count
    is ``searchsorted(hi, 'right') - searchsorted(lo, 'left')``.  Window
    bounds are clamped to the partition's offset range so a window that
    extends past the observed time span never bleeds into a neighbouring
    user's key range.
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"], value_set=pa.array([left_type, right_type]))
        b = b.filter(keep)
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "e": pa.array(_epoch_us(b)),
                "is_left": pc.equal(b["event_type"], left_type),
            }
        )

    ds = read_events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def per_partition(tbl: pa.Table) -> pa.Table:
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        e = tbl["e"].to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        is_left = tbl["is_left"].to_numpy(zero_copy_only=False)
        emin = int(e.min()) if len(e) else 0
        span = (int(e.max()) - emin + 2) if len(e) else 1
        _, rank = np.unique(uid, return_inverse=True)
        rank = rank.astype(np.int64)
        max_rank = int(rank.max()) if len(rank) else 0
        if max_rank and max_rank > (2**63 - 1) // span:
            return _range_per_user(uid, e, eid, is_left, rank, radius_us)
        off = e - emin
        r_key = np.sort(rank[~is_left] * span + off[~is_left])
        l_rank, l_off = rank[is_left], off[is_left]
        # all right offsets lie in [0, span-2]; clamping keeps lo/hi
        # keys inside the left row's own rank block.
        lo = l_rank * span + np.clip(l_off - radius_us, 0, span - 1)
        hi = l_rank * span + np.clip(l_off + radius_us, 0, span - 1)
        n = (
            np.searchsorted(r_key, hi, side="right")
            - np.searchsorted(r_key, lo, side="left")
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid[is_left]),
                "user_id": pa.array(uid[is_left]),
                "e": pa.array(e[is_left]),
                "n_right": pa.array(n),
            }
        )

    return hash_partitioned_groups(ds, ["user_id"], per_partition)


def top_users_per_window(
    sf_dir: str, window_us: int = DEFAULT_WINDOW_US, n: int = 3
) -> ray.data.Dataset:
    """The ``n`` most active users of every tumbling window, ranked —
    the windowed-aggregation x window-function composition
    (``ROW_NUMBER() OVER (PARTITION BY window ORDER BY n_events DESC,
    user_id)``).  Counts are combiner-first per (window, user); the
    rank runs per window partition with one composite Arrow sort
    (``stages.skew.ranked_head_per_key``) — no global sort, and the
    exchange moves (window, user) partials, not events.
    """
    from ..stages.skew import ranked_head_per_key

    def assign(b: pa.Table) -> pa.Table:
        w = _epoch_us(b) // window_us
        return pa.table({"window": pa.array(w), "user_id": b["user_id"]})

    ds = read_events(sf_dir, columns=["ts", "user_id"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )
    per_user = hash_grouped_aggregate(
        ds, ["window", "user_id"], [(None, "count", "n_events")]
    )
    return hash_partitioned_groups(
        per_user, ["window"],
        lambda t: ranked_head_per_key(
            t, "window", n, [("n_events", "descending"), ("user_id", "ascending")]
        ),
    )


def value_mean_per_type(sf_dir: str) -> ray.data.Dataset:
    """(event_type, n_events, sum_value, mean_value): per-type float
    mean with a BIT-EXACT, order-independent sum.

    Distributed float sums are normally irreproducible (IEEE addition
    is not associative), which is why every other monetary/float
    aggregate in this repo is integer-lifted.  This one uses
    ``functions.agg.grouped_exact_float_sum`` — exponent-bucketed exact
    integer mantissa accumulation, mergeable across any partitioning,
    correctly rounded once at the end — so the sum equals ``math.fsum``
    bit-for-bit and the mean is one shared IEEE division.  The DuckDB
    oracle's ``fsum`` is Kahan-compensated; on this column (same-sign,
    condition number ~1) Kahan IS the exactly-rounded sum, so the gate
    is bitwise (functions/agg.py has the mixed-sign caveat).  The per-group combiner state is
    ~60 exponent buckets regardless of row count, so the exchange stays
    combiner-sized at any scale.
    """
    from ..functions.agg import grouped_exact_float_sum

    ds = read_events(sf_dir, columns=["event_type", "value"])
    sums = grouped_exact_float_sum(
        ds, ["event_type"], "value", out_sum="sum_value", out_n="n_events"
    )

    def with_mean(b: pa.Table) -> pa.Table:
        s = b["sum_value"].to_numpy(zero_copy_only=False)
        n = b["n_events"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": b["event_type"],
            "n_events": b["n_events"],
            "sum_value": b["sum_value"],
            "mean_value": pa.array(s / n),
        })

    return sums.map_batches(
        with_mean, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


def value_quantiles_per_type(
    sf_dir: str, qs: tuple = (0.1, 0.25, 0.5, 0.75, 0.9)
) -> ray.data.Dataset:
    """Exact per-event-type value quantiles (discrete order statistics
    — ``functions.agg.grouped_quantiles``): the grouped companion to
    the global token quantiles, and exact where a mean would be
    float-order-unstable across engines."""
    from ..functions.agg import grouped_quantiles

    ds = read_events(sf_dir, columns=["event_type", "value"])
    return grouped_quantiles(ds, "event_type", "value", list(qs))


def funnel_conversions(
    sf_dir: str,
    from_type: str = "click",
    to_type: str = "purchase",
    within_us: int = 24 * HOUR_US,
    force_per_user: bool = False,
) -> ray.data.Dataset:
    """Two-step funnel: per user, how many ``from_type`` events were
    followed by a ``to_type`` event (strictly later, same user) within
    ``within_us``.

    Same custom-join recipe as the as-of join: one user-keyed exchange
    co-locates both filtered streams, then a per-partition vectorized
    FORWARD search — composite (user rank, time) int64 key, one
    ``searchsorted`` for the nearest next ``to_type`` per ``from_type``
    event (the nearest one decides: any later candidate is farther, so
    EXISTS-within-gap == nearest-gap <= T) — and the per-user counts
    reduce locally in the same partition (users are complete there), so
    the funnel costs exactly one exchange of the two filtered streams.
    Output: (user_id, n_from, n_converted) for users with >= 1
    ``from_type`` event.
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"], value_set=pa.array([from_type, to_type]))
        b = b.filter(keep)
        return pa.table(
            {
                "user_id": b["user_id"],
                "e": pa.array(_epoch_us(b)),
                "is_from": pc.equal(b["event_type"], from_type),
            }
        )

    ds = read_events(sf_dir, columns=["ts", "user_id", "event_type"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def per_partition(tbl: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_from": pa.array([], type=pa.int64()),
            "n_converted": pa.array([], type=pa.int64()),
        })
        if tbl.num_rows == 0:
            return empty
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        e = tbl["e"].to_numpy(zero_copy_only=False)
        is_from = tbl["is_from"].to_numpy(zero_copy_only=False)
        if not is_from.any():
            return empty
        emin = int(e.min())
        span = int(e.max()) - emin + 2
        uniq, rank = np.unique(uid, return_inverse=True)
        max_rank = int(rank.max()) if len(rank) else 0
        if force_per_user or (max_rank and max_rank > (2**63 - 1) // span):
            # overflow-safe fallback (same invariant as the as-of join):
            # per-user segment loop, only when rank*span would wrap int64
            order, starts, ends = _user_segments(rank, e)
            rows = []
            for s, t in zip(starts, ends):
                seg = order[s:t]
                f_e = e[seg[is_from[seg]]]
                t_e = e[seg[~is_from[seg]]]  # sorted within user
                if not len(f_e):
                    continue
                if len(t_e):
                    pos = np.searchsorted(t_e, f_e, side="right")
                    conv_u = (pos < len(t_e)) & (
                        t_e[np.minimum(pos, len(t_e) - 1)] - f_e <= within_us
                    )
                else:
                    conv_u = np.zeros(len(f_e), dtype=bool)
                rows.append((int(uid[seg[0]]), len(f_e), int(conv_u.sum())))
            return pa.table({
                "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
                "n_from": pa.array([r[1] for r in rows], type=pa.int64()),
                "n_converted": pa.array([r[2] for r in rows], type=pa.int64()),
            })
        key = rank.astype(np.int64) * span + (e - emin)
        t_mask = ~is_from
        t_key = np.sort(key[t_mask])
        t_order = np.argsort(key[t_mask], kind="stable")
        t_rank = rank[t_mask][t_order]
        f_key, f_rank = key[is_from], rank[is_from]
        f_e = e[is_from]
        if len(t_key):
            pos = np.searchsorted(t_key, f_key, side="right")
            pos_c = np.minimum(pos, len(t_key) - 1)
            nearest_e = (t_key[pos_c] % span) + emin
            conv = (
                (pos < len(t_key))
                & (t_rank[pos_c] == f_rank)
                & (nearest_e - f_e <= within_us)
            )
        else:
            conv = np.zeros(len(f_key), dtype=bool)
        # per-user local reduce (users are complete in this partition)
        order = np.argsort(f_rank, kind="stable")
        fr = f_rank[order]
        new = np.concatenate([[True], fr[1:] != fr[:-1]])
        starts = np.flatnonzero(new)
        n_from = np.diff(np.append(starts, len(fr)))
        n_conv = np.add.reduceat(conv[order].astype(np.int64), starts)
        return pa.table({
            "user_id": pa.array(uniq[fr[starts]]),
            "n_from": pa.array(n_from, type=pa.int64()),
            "n_converted": pa.array(n_conv, type=pa.int64()),
        })

    return hash_partitioned_groups(ds, ["user_id"], per_partition)


def window_anomalies(
    sf_dir: str, window_us: int = DEFAULT_WINDOW_US, sigma: float = 2.0
) -> ray.data.Dataset:
    """Windows whose event count deviates more than ``sigma`` standard
    deviations from the mean window count — the monitoring composition
    (windowed aggregate -> corpus scalar -> row-local filter).

    Pass 1: per-window counts (combiner-first, bounded keys).  Pass 2:
    exact integer (sum, sumsq, n) of the COUNTS by :func:`global_int_sums`.
    Pass 3: row-local z-score + filter with the identical float64
    expression as the oracle.  The filter predicate is computed on both
    sides as ``(c - mean)^2 > sigma^2 * var`` in the same op order.
    """
    counts = tumbling_counts(sf_dir, window_us)

    def shrink(b: pa.Table) -> pa.Table:
        return pa.table({"window": b["window"], "n_events": b["n_events"]})

    per_window = hash_grouped_aggregate(
        counts.map_batches(shrink, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        ["window"], [("n_events", "sum", "n_events")], final_mode="tree",
    ).materialize()  # bounded: one row per window

    def terms(b: pa.Table) -> dict:
        c = b["n_events"]
        return {"s": c, "sq": (c, c), "n": b.num_rows}

    g = global_int_sums(per_window, terms)
    s, sq, n = g["s"], g["sq"], g["n"]
    mean = s / n
    var = sq / n - mean * mean

    def flag(b: pa.Table) -> pa.Table:
        c = b["n_events"].to_numpy(zero_copy_only=False).astype(np.float64)
        dev = c - mean
        keep = dev * dev > sigma * sigma * var
        out = b.filter(pa.array(keep))
        z = (out["n_events"].to_numpy(zero_copy_only=False).astype(np.float64)
             - mean) / np.sqrt(var)
        return out.append_column("z", pa.array(z))

    return per_window.map_batches(flag, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=None)


def retention_cohorts(
    sf_dir: str, window_us: int = DEFAULT_WINDOW_US
) -> ray.data.Dataset:
    """Cohort retention: users grouped by their FIRST active window
    (the cohort), counted at each later window offset they return in —
    ``(cohort, offset, n_users)``.

    One user-keyed exchange: per-batch DISTINCT (user, window) partials
    bound what moves (<= active windows per user per batch), each
    partition holds complete user timelines so cohort (min window) and
    offsets are computed locally with one sort + reduceat-style run
    scan, and the final count is combiner-first over (cohort, offset)
    keys bounded by windows^2.
    """
    def assign(b: pa.Table) -> pa.Table:
        w = _epoch_us(b) // window_us
        t = pa.table({"user_id": b["user_id"], "w": pa.array(w)})
        return t.group_by(["user_id", "w"]).aggregate([])  # batch-distinct

    ds = read_events(sf_dir, columns=["ts", "user_id"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def per_user(tbl: pa.Table) -> pa.Table:
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        w = tbl["w"].to_numpy(zero_copy_only=False)
        order = np.lexsort((w, uid))
        u_s, w_s = uid[order], w[order]
        # cross-batch dedupe of (user, w)
        keep = np.concatenate([[True], (u_s[1:] != u_s[:-1]) | (w_s[1:] != w_s[:-1])]) if len(u_s) else np.zeros(0, bool)
        u_s, w_s = u_s[keep], w_s[keep]
        new = np.concatenate([[True], u_s[1:] != u_s[:-1]]) if len(u_s) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(u_s)))
        cohort = np.repeat(w_s[starts], counts)  # per-user min (sorted)
        return pa.table({
            "cohort": pa.array(cohort),
            "offset": pa.array(w_s - cohort),
        })

    pairs = hash_partitioned_groups(ds, ["user_id"], per_user)
    return hash_grouped_aggregate(
        pairs, ["cohort", "offset"], [(None, "count", "n_users")],
        final_mode="tree",
    )


def event_type_bigrams(sf_dir: str) -> ray.data.Dataset:
    """Sequence mining: counts of consecutive per-user event-type pairs
    — ``(type_a, type_b, n)`` where type_b immediately follows type_a
    in one user's timeline (ordered by ts, event_id).

    One user-keyed exchange; each partition sorts its complete user
    timelines once and forms bigrams with two shifted array views
    (pairs crossing a user boundary masked out), then the bounded
    (|types|^2) grouped count finishes tree-side.
    """
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"],
            "e": pa.array(_epoch_us(b)),
            "event_id": b["event_id"],
            "event_type": b["event_type"],
        })

    ds = read_events(sf_dir, columns=["ts", "user_id", "event_id", "event_type"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def bigrams(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows < 2:
            return pa.table({"type_a": pa.array([], type=pa.string()),
                             "type_b": pa.array([], type=pa.string())})
        tbl = tbl.sort_by([
            ("user_id", "ascending"), ("e", "ascending"),
            ("event_id", "ascending"),
        ])
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        same_user = uid[1:] == uid[:-1]
        types = tbl["event_type"].combine_chunks()
        a = types.slice(0, len(uid) - 1)
        b = types.slice(1)
        keep = pa.array(same_user)
        return pa.table({
            "type_a": a.filter(keep),
            "type_b": b.filter(keep),
        })

    pairs = hash_partitioned_groups(ds, ["user_id"], bigrams)
    return hash_grouped_aggregate(
        pairs, ["type_a", "type_b"], [(None, "count", "n")], final_mode="tree"
    )


def rolling_extrema(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Per-user rolling extrema over the last ``k`` events (ordered by
    ts, event_id): (event_id, user_id, roll_max, roll_min) — the
    streaming-window aggregate shape (ROWS BETWEEN k-1 PRECEDING AND
    CURRENT ROW).

    Extrema are value PICKS, not sums, so the result is bitwise
    engine-independent (no float-reduction-order hazard) — the same
    reason grouped_quantiles is exact-comparable where a rolling AVG of
    doubles would not be.

    Scale shape: one user-keyed exchange co-locates each user's events;
    per partition ONE composite Arrow sort, then the sliding extremum
    is k-1 boundary-masked shifted-array passes over the whole
    partition (the winnowing window-min kernel family) — no per-user
    Python, no window-function sort barrier.
    """
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "e": pa.array(_epoch_us(b)),
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "value": b["value"],
        })

    ds = read_events(sf_dir, columns=["ts", "user_id", "event_id", "value"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def roll(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "user_id": pa.array([], type=pa.int64()),
                             "roll_max": pa.array([], type=pa.float64()),
                             "roll_min": pa.array([], type=pa.float64())})
        tbl = tbl.sort_by([
            ("user_id", "ascending"), ("e", "ascending"),
            ("event_id", "ascending"),
        ])
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        val = tbl["value"].to_numpy(zero_copy_only=False)
        mx = val.copy()
        mn = val.copy()
        for j in range(1, k):
            same = uid[j:] == uid[:-j]
            np.maximum(mx[j:], np.where(same, val[:-j], -np.inf), out=mx[j:])
            np.minimum(mn[j:], np.where(same, val[:-j], np.inf), out=mn[j:])
        return pa.table({
            "event_id": tbl["event_id"],
            "user_id": tbl["user_id"],
            "roll_max": pa.array(mx),
            "roll_min": pa.array(mn),
        })

    return hash_partitioned_groups(ds, ["user_id"], roll)


def value_quantiles_sketch(
    sf_dir: str, qs: tuple = (0.1, 0.25, 0.5, 0.75, 0.9),
    capacity: int = 100_000,
) -> ray.data.Dataset:
    """Per-event-type value quantiles from the mergeable bottom-k
    sketch (``functions.agg.grouped_quantiles_sketch``).  The default
    capacity exceeds every fixture group, so the driver-gated result is
    EXACT (same oracle as the full-exchange ``value_quantiles_per_type``);
    shrink ``capacity`` on real data to bound the exchange at
    capacity x groups x batches rows."""
    from ..functions.agg import grouped_quantiles_sketch

    ds = read_events(sf_dir, columns=["event_id", "event_type", "value"])
    return grouped_quantiles_sketch(
        ds, "event_type", "value", list(qs), capacity=capacity,
        id_col="event_id",
    )


def value_deltas(sf_dir: str) -> ray.data.Dataset:
    """Per-user LAG window: (event_id, user_id, delta) with delta =
    value - previous value in (ts, event_id) order; a user's first
    event gets delta 0.0 (value - COALESCE(lag, value) — keeps the
    output NULL-free so the engine/oracle float compare stays bitwise:
    subtraction of two stored doubles is exact IEEE in both engines).

    Same shape as rolling_extrema: one user-keyed exchange, one
    composite Arrow sort, a single boundary-masked shifted subtract.
    """
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "e": pa.array(_epoch_us(b)),
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "value": b["value"],
        })

    ds = read_events(sf_dir, columns=["ts", "user_id", "event_id", "value"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536
    )

    def lagdiff(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "user_id": pa.array([], type=pa.int64()),
                             "delta": pa.array([], type=pa.float64())})
        tbl = tbl.sort_by([
            ("user_id", "ascending"), ("e", "ascending"),
            ("event_id", "ascending"),
        ])
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        val = tbl["value"].to_numpy(zero_copy_only=False)
        delta = np.zeros(len(val), dtype=np.float64)
        same = uid[1:] == uid[:-1]
        delta[1:][same] = val[1:][same] - val[:-1][same]
        return pa.table({
            "event_id": tbl["event_id"],
            "user_id": tbl["user_id"],
            "delta": pa.array(delta),
        })

    return hash_partitioned_groups(ds, ["user_id"], lagdiff)
