"""The one Ray session every harness runs under: ``bench.py``, the
correctness and profile tools, and ``cli run`` all execute queries with
the same executor settings, derived from the cluster they run on."""

from __future__ import annotations


def init(num_cpus: int | None = None) -> None:
    """Start a local Ray session unless one is already up, then ``tune``."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    tune()


def tune() -> None:
    """Set the Ray Data executor for this engine's shallow map chains."""
    from ray.data import DataContext

    from .util import cluster_cpus

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Per-operator resource reservation throttles simple linear chains
    # hard at low CPU counts (flagship at 8 cpus: 14.5 s with it, 4.4 s
    # without; neutral at 32), and its multi-operator memory fairness
    # buys nothing for map chains with one small exchange.
    ctx.op_resource_reservation_enabled = False
    # Ray's floor of 200 read blocks over-splits small file sets (30 x
    # 3 MB files -> 210 x 450 KB blocks) at ~15 ms dispatch per task;
    # one block per CPU is one wave that keeps every core busy.  At real
    # scale file count and target block size drive parallelism instead.
    ctx.read_op_min_num_blocks = cluster_cpus()
