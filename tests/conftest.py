"""One hypothesis profile for the whole suite: no deadline, since an example
ranges from microseconds to a flow run of seconds, and no example database,
so a test run leaves no ``.hypothesis`` directory behind; without the
database a failing example is replayed from the ``@reproduce_failure``
blob that ``print_blob`` prints.  Each test keeps only its ``max_examples``."""

import tracemalloc

import pytest
from hypothesis import settings

from koszulflow import flow as fl
from koszulflow import geometry as geo

settings.register_profile("koszulflow", deadline=None, database=None, print_blob=True)
settings.load_profile("koszulflow")


@pytest.fixture
def blowup_past(monkeypatch):
    """``blowup_past(t)`` makes every tensor step that starts past ``t`` fail
    positivity at node 3, so a flow driver blows up just past ``t``; no
    example input blows up mid-run on its own."""
    def install(t_fail):
        original = fl._attempt_tensor_step

        def failing(state, dt, scheme):
            if state.t > t_fail:
                raise geo.NotPositiveDefinite((3,), -1.0)
            return original(state, dt, scheme)

        monkeypatch.setattr(fl, "_attempt_tensor_step", failing)
    return install


@pytest.fixture
def peak_mib():
    """``peak_mib(fn)`` is ``(fn(), peak)``: what ``fn()`` returns and the
    ``tracemalloc`` peak of the call in MiB, with tracing stopped however
    the call ends."""
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return measure
