"""Per-tick work grows linearly with the number of tasks.

Runs the synthetic N-task scenario at N and 4N and counts work units
rather than timing anything:

* restart work: ``MonitorTaskBinding.task`` lookups plus sensor
  reconnects made inside ``MonitorClient.on_task_restart``;
* ``SensorInstance.poll`` calls, bounded by the bindings plus the stream
  steps published (a binding is polled once to connect, then only when
  its stream has something new);
* ``ResourceSet`` constructions per ``ResourceManager.assign``.

A count that is quadratic in N grows 16x from N to 4N; the guard allows
4.5x.
"""

import pytest

from repro.cluster.allocation import ResourceSet
from repro.cluster.resource_manager import ResourceManager
from repro.core.monitor import MonitorClient, MonitorTaskBinding
from repro.core.sensors.base import SensorInstance
from repro.experiments.synthetic import run_synthetic_experiment
from repro.staging.stream import StreamChannel

N = 100
LINEAR = 4.5


def _count_work(monkeypatch, num_tasks: int) -> dict:
    counts = {"restart": 0, "polls": 0, "steps": 0, "bindings": 0, "assigns": 0, "sets": 0}
    inside = {"restart": False, "assign": False}

    def wrap(cls, name, before=None, flag=None):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            if flag is not None:
                inside[flag] = True
            try:
                return original(*args, **kwargs)
            finally:
                if flag is not None:
                    inside[flag] = False

        monkeypatch.setattr(cls, name, wrapper)

    def bump(key, when=None):
        def before(*_args):
            if when is None or inside[when]:
                counts[key] += 1
        return before

    task_prop = MonitorTaskBinding.task

    def counted_task(self):
        if inside["restart"]:
            counts["restart"] += 1
        return task_prop.fget(self)

    monkeypatch.setattr(MonitorTaskBinding, "task", property(counted_task))
    wrap(MonitorClient, "on_task_restart", flag="restart")
    wrap(SensorInstance, "reconnect", before=bump("restart", when="restart"))
    wrap(SensorInstance, "poll", before=bump("polls"))
    wrap(MonitorClient, "add_binding", before=bump("bindings"))
    wrap(StreamChannel, "put", before=bump("steps"))
    wrap(ResourceManager, "assign", before=bump("assigns"), flag="assign")
    wrap(ResourceSet, "__init__", before=bump("sets", when="assign"))
    result = run_synthetic_experiment(num_tasks)
    assert result.meta["updates_seen"] == 8 * num_tasks
    return counts


@pytest.fixture(scope="module")
def work():
    with pytest.MonkeyPatch.context() as mp:
        small = _count_work(mp, N)
    with pytest.MonkeyPatch.context() as mp:
        large = _count_work(mp, 4 * N)
    return small, large


def test_restart_work_is_linear(work):
    small, large = work
    assert small["restart"] > 0
    assert large["restart"] / small["restart"] <= LINEAR


def test_polls_bounded_by_bindings_plus_steps(work):
    for counts in work:
        assert counts["polls"] <= counts["bindings"] + counts["steps"]
    small, large = work
    assert large["polls"] / small["polls"] <= LINEAR


def test_resource_sets_per_assign_constant(work):
    small, large = work
    per_assign = [c["sets"] / c["assigns"] for c in work]
    assert small["assigns"] == N and large["assigns"] == 4 * N
    assert per_assign[0] == per_assign[1] <= 2
