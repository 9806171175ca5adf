"""Small engine utilities."""

from __future__ import annotations

import os
from functools import partial

_STAGES: dict = {}  # stage kind -> (key, stage): the latest build per kind


def cluster_cpus() -> int:
    """The task count of one wave, the one reader of the cluster's CPUs
    (this machine's without a Ray session): every map job plans one task
    per CPU unless its data asks for more, since a second wave pays the
    per-task fixed cost (~5-10 ms) again for no more parallelism."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    return cpus or os.cpu_count() or 1


def cached_stage(kind, key, build, batch):
    """``build()(batch)`` with the stage built once per worker process
    per ``key``: the reference's build-once-per-process vector layer
    (``RasterizationMgr``, structures.py:1062-1096) on the shared task
    pool, with no actor-pool spin-up.

    Reached through :func:`stage_fn`.  This function is pickled by
    reference, so every task a worker runs reaches the one module cache;
    a nested closure over the cache would ship a by-value copy of it
    with each task and rebuild every time.  Only the latest build per
    ``kind`` is kept: each pipeline call broadcasts a fresh ref, and an
    older build is never asked for again."""
    hit = _STAGES.get(kind)
    if hit is None or hit[0] != key:
        hit = _STAGES[kind] = (key, build())
    return hit[1](batch)


def _key(arg):
    import ray

    if isinstance(arg, ray.ObjectRef):
        return arg.hex()
    if isinstance(arg, os.PathLike):  # a rewritten file is a new key
        st = os.stat(arg)
        return os.fspath(arg), st.st_size, st.st_mtime_ns
    return arg


def stage_fn(cls, *args, **kwargs):
    """``map_batches`` function for the callable-class stage
    ``cls(*args, **kwargs)``, built once per worker process per set of
    constructor arguments (:func:`cached_stage`).

    The one home of per-process stage state: Ray task workers stay warm
    across executions, so this gives an actor pool's build-once
    semantics with none of its per-execution spin-up (process spawn and
    re-import; image_ahash measured 4.6 s for a 0.15 s warm kernel at
    sf0.1/32cpus).  Each class is its own cache kind, so a fused chain
    of stages keeps one instance of each.  A broadcast side travels as
    an ObjectRef argument (keyed by its id) and is fetched in
    ``__init__``; a file side as its ``os.PathLike`` path, keyed by path,
    size and mtime, so warm workers keep their build across calls."""
    key = (tuple(_key(a) for a in args),
           tuple(sorted((k, _key(v)) for k, v in kwargs.items())))
    return partial(cached_stage, (cls.__module__, cls.__qualname__), key,
                   partial(cls, *args, **kwargs))
