import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


@pytest.fixture
def force_strategy(monkeypatch):
    """``force_strategy(s)`` sets the one broadcast cap
    (``rios_ray.functions.join.BROADCAST_CAP_BYTES``) so that every
    broadcast-or-partition decision takes side ``s``: ``"broadcast"``
    (every side fits) or ``"partitioned"`` (no side fits: joins take
    the exchange plan and ``cosine_neardup`` refuses).  Undone when the
    test ends."""
    from rios_ray.functions import join

    caps = {"broadcast": 1 << 62, "partitioned": 0}

    def force(strategy: str) -> None:
        monkeypatch.setattr(join, "BROADCAST_CAP_BYTES", caps[strategy])

    return force
