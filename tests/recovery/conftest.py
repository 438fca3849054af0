"""Shared fixtures for the recovery tests."""

import pytest

from repro.recovery import planner as planner_mod
from repro.runner import ChunkRunner

#: stands in for the planner's runner on a one-CPU host
_TWO_WORKERS = ChunkRunner(2, "planner", per_worker=None)


@pytest.fixture
def threaded_runner(monkeypatch):
    """The planner's runner, with at least two worker threads.

    On a host with one usable CPU the planner would plan inline; the
    threaded tests then swap in a two-worker runner so they still cover
    the worker threads.
    """
    if planner_mod._RUNNER.workers < 2:
        monkeypatch.setattr(planner_mod, "_RUNNER", _TWO_WORKERS)
    return planner_mod._RUNNER
