"""raytile benchmark: one workload, one seed, a closed loop of passes.

Usage (from the repository root):

    python3 rtbench/run.py --workload tiling --seed 1 --seconds 15 --trace 0

One driver process, one client: each pass starts when the previous one
has finished and been checked against its oracle.  The last stdout line
is the result JSON (``correct``, ``attempted``, ``failed``, ``metrics``);
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced run.  A per-run sidecar with
the machine state and every raw timing is written to
``.rtbench_cache/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback

PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RAY_CPUS = 4  # the tier-1 suite's session size (tests/conftest.py)
PASS_DEADLINE_S = 60.0
RUN_DEADLINE_S = 150.0  # hard stop for the whole process, under 180 s
MAX_FAILS_IN_A_ROW = 3  # a session that fails every pass is not measured further
RAY_TEMP_MAX_LEN = 40  # AF_UNIX socket paths under it must stay < 108 bytes


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run outside a checkout of the engine."""
    if not os.path.isdir(os.path.join(ROOT, "rios_ray")) or not os.path.exists(
            os.path.join(ROOT, "__ray_entry__.py")):
        sys.exit(f"rtbench: {ROOT} holds no rios_ray engine checkout")


# --------------------------------------------------------------------------
# engine session
# --------------------------------------------------------------------------


class Session:
    """A local Ray cluster with bench.py's DataContext tuning."""

    def __init__(self, cache: str):
        temp = os.path.join(cache, "ray")
        self.temp_dir = temp if len(temp) <= RAY_TEMP_MAX_LEN else None

    def start(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, **kwargs)
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.op_resource_reservation_enabled = False
        ctx.read_op_min_num_blocks = 2 * RAY_CPUS

    @staticmethod
    def stop() -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()


def ray_stop_force() -> None:
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)


# --------------------------------------------------------------------------
# fail-loud pass runner
# --------------------------------------------------------------------------


class PassOutcome:
    def __init__(self):
        self.wall = float("nan")
        self.cpu_s = float("nan")
        self.status = "ok"  # ok | wrong | error | timeout
        self.detail = ""
        self.counts: dict = {}


def run_checked_pass(wl, idx: int, tr, deadline_s: float) -> PassOutcome:
    """One pass under a deadline: timed engine work, then the oracle
    check.  A hang leaves the pass thread behind; the caller ends the
    run after a timeout."""
    import machine
    import oracles as O

    res = PassOutcome()
    box: dict = {}
    cpu0 = machine.busy_cpu_s()
    t0 = time.perf_counter()

    def body():
        try:
            tr.begin_pass(f"pass-{idx}")
            with tr.span("pass"):
                out = wl.run_pass(idx, tr)
            box["wall"] = time.perf_counter() - t0
            box["cpu_s"] = machine.busy_cpu_s() - cpu0
            box["counts"] = wl.check(out)
        except O.OracleMismatch as e:
            box["wrong"] = str(e)
        except Exception:  # noqa: BLE001 - a raising pass is counted, not fatal
            box["error"] = traceback.format_exc(limit=8)

    th = threading.Thread(target=body, daemon=True)
    th.start()
    th.join(deadline_s)
    res.wall = box.get("wall", time.perf_counter() - t0)
    res.cpu_s = box.get("cpu_s", machine.busy_cpu_s() - cpu0)
    if th.is_alive():
        res.status, res.detail = "timeout", f"pass {idx} exceeded {deadline_s:.0f} s"
        return res
    res.counts = box.get("counts") or {}
    if "wrong" in box:
        res.status, res.detail = "wrong", box["wrong"]
    elif "error" in box:
        res.status, res.detail = "error", box["error"]
    return res


def time_left() -> float:
    return RUN_DEADLINE_S - (time.perf_counter() - PROCESS_START)


def tail_s(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than 20 samples)."""
    s = sorted(values)
    pct = max(0.5, 1.0 - 10.0 / len(s))
    return s[min(len(s) - 1, max(0, round(pct * len(s) + 0.5) - 1))]


def main(argv=None) -> None:
    args = parse_args(argv)
    check_checkout()
    for p in (ROOT, HERE):
        if p not in sys.path:
            sys.path.insert(0, p)
    # Ray workers unpickle engine stages and the benchmark's user fns
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import inputs as I
    import machine
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"rtbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cache = os.path.join(ROOT, I.CACHE_DIRNAME)
    from rios_ray import synth

    synth.PAGES_ROOT = I.seed_dir(ROOT, args.seed)

    wl = WORKLOADS[args.workload](ROOT, args.seed)
    wl.prepare()
    layer_probe = None
    if args.trace:
        import layers

        layer_probe = layers.LayerProbe(ROOT, args.seed)
        layer_probe.prepare()

    window = machine.MachineWindow()
    machine.reset_peak_rss()
    ray_stop_force()
    session = Session(cache)
    null = NullTracer()
    aborted = ""

    # set-up: cold Ray start + one untimed (but checked) warm-up pass
    t0 = time.perf_counter()
    session.start()
    warm = run_checked_pass(wl, 0, null, min(PASS_DEADLINE_S, time_left()))
    setup_s = time.perf_counter() - t0
    if warm.status == "timeout":
        aborted = warm.detail

    # measured loop
    passes: list[PassOutcome] = []
    traced: list[PassOutcome] = []
    loop_t0 = time.perf_counter()
    budget = args.seconds * (0.5 if args.trace else 1.0)
    idx = 1
    while not aborted and (time.perf_counter() - loop_t0 < budget or not passes):
        o = run_checked_pass(wl, idx, null, min(PASS_DEADLINE_S, time_left()))
        passes.append(o)
        idx += 1
        if o.status == "timeout":
            aborted = o.detail
        elif len(passes) >= MAX_FAILS_IN_A_ROW and all(
                p.status != "ok" for p in passes[-MAX_FAILS_IN_A_ROW:]):
            aborted = f"{MAX_FAILS_IN_A_ROW} passes in a row failed"
    loop_wall = time.perf_counter() - loop_t0

    tracer = Tracer()
    layer_metrics: dict = {}
    if args.trace and not aborted:
        t1 = time.perf_counter()
        while time.perf_counter() - t1 < args.seconds * 0.5 or not traced:
            o = run_checked_pass(wl, idx, tracer, min(PASS_DEADLINE_S, time_left()))
            traced.append(o)
            idx += 1
            if o.status == "timeout":
                aborted = o.detail
                break
        if not aborted:
            try:
                layer_metrics = layer_probe.run(tracer, wl, passes, traced)
            except Exception:  # noqa: BLE001 - report, then still print metrics
                aborted = "layer probes raised:\n" + traceback.format_exc(limit=8)

    rss = machine.peak_rss_mb(RAY_CPUS)
    rss_procs = machine.worker_hwm_mb()
    state = window.close(RAY_CPUS)
    if aborted:
        print(f"rtbench: {aborted}", file=sys.stderr)
    everything = [warm] + passes + traced
    # after a hang, skip the clean shutdown (it can hang as well) and let
    # the wait below fall through to ray stop --force
    if not any(o.status == "timeout" for o in everything):
        session.stop()
    for _ in range(30):  # wait for the session's processes to exit
        if not machine.ray_processes():
            break
        time.sleep(0.1)
    else:
        ray_stop_force()

    for o in everything:
        if o.status != "ok":
            print(f"rtbench: pass {o.status}: {o.detail}", file=sys.stderr)
    attempted = len(everything)
    failed = sum(o.status != "ok" for o in everything)
    wrong = sum(o.status == "wrong" for o in everything)
    ok_walls = [o.wall for o in passes if o.status == "ok"]
    # with no correct pass, time what was attempted rather than print nothing
    walls = ok_walls or [o.wall for o in everything]
    items = wl.items_per_pass()

    metrics: dict = {}
    if args.trace:
        metrics.update(layer_metrics)
        metrics["pass_s_tail"] = {"value": tail_s(walls), "unit": "s"}
        metrics["machine.steal_frac"] = {"value": state["steal_frac"], "unit": "ratio"}
        metrics["machine.loadavg_1m"] = {"value": state["loadavg_1m"], "unit": "load"}
        metrics["failed_frac"] = {"value": failed / max(1, attempted), "unit": "ratio"}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["pass_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["items_per_s"] = {"value": items * len(ok_walls) / max(loop_wall, 1e-9),
                                  "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        sys.exit(f"rtbench: metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json")

    sidecar = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": state, "setup_s": setup_s,
        "passes": [{"wall": o.wall, "cpu_s": o.cpu_s, "status": o.status,
                    "counts": o.counts}
                   for o in everything],
        "worker_hwm_mb": rss_procs, "item_unit": wl.unit, "items_per_pass": items, "metrics": metrics,
        "aborted": aborted,
    }
    runs = os.path.join(cache, "runs")
    os.makedirs(runs, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    with open(os.path.join(runs, stamp + ".json"), "w") as f:
        json.dump(sidecar, f, indent=1, default=str)
    if args.trace:
        tracer.dump(os.path.join(runs, stamp + ".spans.json"))
    wl.cleanup()

    print(json.dumps({"machine": state, "setup_s": setup_s,
                      "pass_s": [round(w, 4) for w in ok_walls]}))
    result = {"correct": wrong == 0 and bool(ok_walls), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    # a pass thread stuck in a hung pipeline must not keep the process up
    os._exit(0)


if __name__ == "__main__":
    main()
