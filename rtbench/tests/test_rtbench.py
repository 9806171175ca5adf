"""The benchmark's own checks: seeded inputs are reproducible, every
oracle check rejects a perturbed output, and metric names are valid.

Run from the repository root:  python3 -m pytest rtbench/tests -q
No Ray session is started.
"""

import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import inputs as I
import oracles as O

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture()
def pages_root(tmp_path, monkeypatch):
    from rios_ray import synth

    monkeypatch.setattr(synth, "PAGES_ROOT", str(tmp_path / "synth"))
    return tmp_path


def test_same_seed_same_input_digest(tmp_path, pages_root):
    digests = []
    for run in ("a", "b", "c"):
        seed = 7 if run != "c" else 8
        root = str(tmp_path / run)
        sf = I.pages_sf_dir(root, seed, 2_000)
        pages = I.ensure_pages(sf, 2_000, seed)
        docs = I.ensure_documents(root, seed, 50)
        raster = I.ensure_raster(root, seed, 64, 2)
        digests.append(I.input_digest([pages, docs, os.path.dirname(raster)]))
        shutil.rmtree(pages)  # the pages dir is keyed by name, not by root
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_planted_near_duplicates_clear_the_threshold():
    docs = I.gen_documents(200, 3)
    texts = docs["text"].to_pylist()

    def grams(t):
        w = t.split(" ")
        return {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}

    g = [grams(t) for t in texts]
    js = [len(g[a] & g[b]) / len(g[a] | g[b])
          for a in range(len(g)) for b in range(a + 1, len(g))]
    # nothing sits near the 0.5 threshold, where LSH recall drops below 1
    assert not [j for j in js if 0.2 < j < 0.7]
    assert sum(j >= 0.7 for j in js) > 10


def _table():
    return pa.table({"cell": pa.array([3, 1, 2], pa.int64()),
                     "category": ["a", "b", "a"],
                     "n_pages": pa.array([10, 20, 30], pa.int64())})


def test_table_check_is_order_insensitive_and_rejects_a_count_plus_one():
    want = O.digest_entry(_table())
    O.check_table("t", _table().take([2, 0, 1]), want)
    counts = _table()["n_pages"].to_pylist()
    counts[1] += 1
    bumped = _table().set_column(2, "n_pages", pa.array(counts, pa.int64()))
    with pytest.raises(O.OracleMismatch):
        O.check_table("t", bumped, want)
    with pytest.raises(O.OracleMismatch):
        O.check_table("t", _table().slice(0, 2), want)


def test_raster_check_rejects_one_changed_pixel():
    arr = I.gen_raster(32, 2, 5)
    want = O.raster_oracles(arr)
    got = O.sliding_max(arr)
    stats = {str(b): dict(s) for b, s in enumerate(want["stats"])}
    O.check_raster(got, stats, want)
    got[1, 7, 9] += 1
    with pytest.raises(O.OracleMismatch):
        O.check_raster(got, stats, want)
    with pytest.raises(O.OracleMismatch):
        O.check_raster(O.sliding_max(arr), None, want)


def test_sliding_max_matches_a_loop():
    arr = I.gen_raster(12, 1, 2)
    got = O.sliding_max(arr)
    pad = np.zeros((16, 16), arr.dtype)
    pad[2:-2, 2:-2] = arr[0]
    for r in range(12):
        for c in range(12):
            assert got[0, r, c] == pad[r:r + 5, c:c + 5].max()


def _fake_resume_dir(tmp_path):
    from rios_ray.runtime import LineageRecord, Manifest

    out = str(tmp_path / "ckpt")
    m = Manifest(out)
    for i, rows in enumerate([4, 6]):
        part = f"part-{i:05d}"
        d = os.path.join(out, f"part={part}")
        os.makedirs(d)
        pq.write_table(pa.table({"x": list(range(rows))}), os.path.join(d, "0.parquet"))
        m.commit(LineageRecord(part, [], rows, 0, 0.0, 1, "job", 0.0))
    return out, m, ["part-00000", "part-00001"]


def test_lineage_check_rejects_a_dropped_record(tmp_path):
    out, m, parts = _fake_resume_dir(tmp_path)
    O.check_lineage(out, parts, {"part-00001"}, ["part-00001"])
    m.invalidate("part-00001")
    with pytest.raises(O.OracleMismatch):
        O.check_lineage(out, parts, {"part-00001"}, ["part-00001"])


def test_lineage_check_rejects_wrong_rows_and_wrong_rerun_set(tmp_path):
    from rios_ray.runtime import LineageRecord

    out, m, parts = _fake_resume_dir(tmp_path)
    with pytest.raises(O.OracleMismatch):
        O.check_lineage(out, parts, {"part-00001"}, ["part-00000"])
    m.commit(LineageRecord("part-00000", [], 5, 0, 0.0, 1, "job", 0.0))
    with pytest.raises(O.OracleMismatch):
        O.check_lineage(out, parts, {"part-00001"}, ["part-00001"])


def test_benchmark_json_names_are_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    pat = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for n in names + [m["name"] for m in metrics]:
        assert pat.match(n), n
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert {"tiling", "resume", "corpus", "raster"} >= set(names)
    for m in metrics:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


class _FakeWorkload:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def run_pass(self, idx, tr):
        if self.behaviour == "hang":
            import time

            time.sleep(5)
        if self.behaviour == "raise":
            raise RuntimeError("boom")
        return {}

    def check(self, out):
        if self.behaviour == "wrong":
            raise O.OracleMismatch("count +1")
        return {"n": 1}


@pytest.mark.parametrize("behaviour,status", [
    ("ok", "ok"), ("wrong", "wrong"), ("raise", "error"), ("hang", "timeout")])
def test_pass_runner_counts_every_failure_kind(behaviour, status):
    import run
    from spans import NullTracer

    out = run.run_checked_pass(_FakeWorkload(behaviour), 1, NullTracer(), 0.5)
    assert out.status == status
    assert out.wall == out.wall  # a number even for a hung pass
    assert out.wall < 1.0


def test_tail_is_the_median_below_twenty_passes():
    import run

    assert run.tail_s([3.0, 1.0, 2.0]) == 2.0
    values = [float(i) for i in range(1, 101)]
    assert run.tail_s(values) == 90.0  # ten passes lie beyond the 90th


def test_self_time_subtracts_covered_child_time():
    from spans import Span, Tracer

    tr = Tracer()
    tr.spans = [Span("p", "pass", 0.0, 10.0, None),
                Span("p", "a", 1.0, 4.0, 0),
                Span("p", "b", 3.0, 6.0, 0),  # overlaps a: covered 1..6
                Span("p", "c", 2.0, 3.0, 1)]  # grandchild: not the pass's child
    assert tr.self_time("pass") == pytest.approx(5.0)
    assert tr.self_time("a") == pytest.approx(2.0)
