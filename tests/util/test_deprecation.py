"""Removed compatibility shims stay removed."""

import pytest

from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.runtime import DyflowOrchestrator, ThreadedDyflow
from repro.sim import RngRegistry, SimEngine
from repro.wms import Savanna, TaskSpec, WorkflowSpec


class TestRemovedShims:
    """Renamed-API shims and deprecated constructor kwargs, removed once
    callers migrated."""

    def test_monitor_receive_is_positional_only_api(self):
        from repro.core.monitor import MonitorServer
        from repro.util.jsonmsg import Envelope

        server = MonitorServer()
        env = Envelope(kind="sensor-update", sender="c/PACE", seq=0,
                       time=0.0, payload={"updates": []})
        with pytest.raises(TypeError):
            server.receive(env=env)  # the old keyword no longer exists
        server.receive(env)
        assert server.received == 1

    def test_monitor_receive_requires_an_envelope(self):
        from repro.core.monitor import MonitorServer

        server = MonitorServer()
        with pytest.raises(TypeError):
            server.receive()

    def test_threaded_shutdown_alias_removed(self):
        from repro.runtime.threaded import ThreadedDyflow

        runner = ThreadedDyflow("WF", tasks=[])
        assert not hasattr(runner, "shutdown")

    def test_per_subsystem_kwargs_raise_type_error(self):
        # Folded into options=RuntimeOptions(...); the drivers no longer
        # accept them (resilience= was only ever a threaded-driver kwarg).
        m = summit(2)
        wf = WorkflowSpec(
            "W", [TaskSpec("T", lambda: IterativeApp(ConstantModel(5.0)), nprocs=4)], []
        )
        sav = Savanna(SimEngine(), wf, Allocation("a0", m, m.nodes, walltime_limit=1e9),
                      rng=RngRegistry(1))
        for kwarg in ("telemetry", "observability", "journal", "preflight"):
            with pytest.raises(TypeError, match=kwarg):
                DyflowOrchestrator(sav, **{kwarg: None})
        for kwarg in ("telemetry", "observability", "journal", "preflight", "resilience"):
            with pytest.raises(TypeError, match=kwarg):
                ThreadedDyflow("WF", [], **{kwarg: None})
