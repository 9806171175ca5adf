"""Small engine utilities."""

from __future__ import annotations

from functools import partial

_STAGES: dict = {}  # stage kind -> (key, stage): the latest build per kind


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

    return arg.hex() if isinstance(arg, ray.ObjectRef) else arg


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
    ``__init__``."""
    key = (tuple(_key(a) for a in args),
           tuple(sorted((k, _key(v)) for k, v in kwargs.items())))
    return partial(cached_stage, (cls.__module__, cls.__qualname__), key,
                   partial(cls, *args, **kwargs))
