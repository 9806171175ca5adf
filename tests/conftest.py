import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run, at 4 CPUs and with the
    executor settings every harness runs under (``rios_ray.session``)."""
    import ray

    from rios_ray import session

    session.init(4)
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


@pytest.fixture
def ray_jobs(monkeypatch):
    """Every Ray Data job started while the test runs: a list with one
    entry per ``StreamingExecutor.execute`` call, each the list of that
    job's physical operators.  ``len(ray_jobs)`` is the job count."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    jobs = []
    execute = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        ops, stack = [], [dag]
        while stack:
            ops.append(stack.pop())
            stack.extend(ops[-1].input_dependencies)
        jobs.append(ops)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return jobs
