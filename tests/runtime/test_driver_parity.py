"""Both drivers share one bootstrap API (``ControlLoop``) and behave alike.

The simulated :class:`DyflowOrchestrator` and the wall-clock
:class:`ThreadedDyflow` must accept the same sensor/policy registration
calls, reject the same mistakes with the same text, and reconstruct the
same spec for pre-flight verification.
"""

import pytest

from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.core import ActionType, GroupBySpec, PolicyApplication, PolicySpec, SensorSpec
from repro.errors import DyflowError
from repro.lint import spec_from_runtime
from repro.runtime import DyflowOrchestrator, LiveTaskSpec, ThreadedDyflow
from repro.sim import RngRegistry, SimEngine
from repro.wms import Savanna, TaskSpec, WorkflowSpec

TASKS = ("Sim", "Ana")


def make_sim():
    m = summit(2)
    wf = WorkflowSpec(
        "W",
        [TaskSpec(t, lambda: IterativeApp(ConstantModel(5.0)), nprocs=4) for t in TASKS],
        [],
    )
    launcher = Savanna(SimEngine(), wf, Allocation("a0", m, m.nodes, walltime_limit=1e9),
                       rng=RngRegistry(1))
    return DyflowOrchestrator(launcher, rules=None)


def make_threaded():
    return ThreadedDyflow("W", [LiveTaskSpec(t, lambda s, w: None, total_steps=1) for t in TASKS])


DRIVERS = {"sim": make_sim, "threaded": make_threaded}


@pytest.fixture(params=sorted(DRIVERS))
def driver(request):
    return DRIVERS[request.param]()


def pace():
    return SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))


def bootstrap(rt):
    rt.add_sensor(pace())
    rt.add_sensor(SensorSpec("ERR", "ERRORSTATUS", (GroupBySpec("task", "MAX"),)))
    rt.monitor_task("Ana", "PACE", var="looptime")
    rt.monitor_task("Sim", "ERR")
    rt.add_policy(PolicySpec("INC", "PACE", "GT", 10.0, ActionType.ADDCPU))
    rt.apply_policy(PolicyApplication("INC", "W", ("Ana",)))


def error_text(fn):
    with pytest.raises(DyflowError) as exc:
        fn()
    return str(exc.value)


def test_duplicate_sensor_id_rejected(driver):
    spec = pace()
    driver.add_sensor(spec)
    with pytest.raises(DyflowError, match="duplicate sensor id 'PACE'"):
        driver.add_sensor(spec)  # even the very same object
    with pytest.raises(DyflowError, match="duplicate sensor id 'PACE'"):
        driver.add_sensor(pace())


def test_unknown_reference_errors_identical():
    texts = {}
    for name, make in DRIVERS.items():
        rt = make()
        rt.add_sensor(pace())
        texts[name] = (
            error_text(lambda: rt.monitor_task("Ana", "NOPE")),
            error_text(lambda: rt.monitor_task("Ghost", "PACE")),
        )
    assert texts["sim"] == texts["threaded"]
    assert texts["sim"] == (
        "monitor-task references unknown sensor 'NOPE'",
        "monitor-task references unknown task 'Ghost'",
    )


def test_health_without_observability_names_runtime_options(driver):
    driver.add_sensor(SensorSpec("H", "HEALTH", (GroupBySpec("task", "MAX"),)))
    text = error_text(lambda: driver.monitor_task("dyflow", "H"))
    assert "options=RuntimeOptions(observability=...)" in text
    assert "(pass observability=" not in text


def test_monitor_task_accepts_info_source_and_client(driver):
    driver.add_sensor(pace())
    inst = driver.monitor_task("Ana", "PACE", info_source="tau-W-Ana", var="looptime", client=3)
    assert inst.task == "Ana"
    assert [b.instance for c in driver.clients for b in c.bindings] == [inst]


def test_spec_reconstruction_matches_across_drivers():
    specs = {}
    for name, make in DRIVERS.items():
        rt = make()
        bootstrap(rt)
        specs[name] = spec_from_runtime(rt)
    sim, threaded = specs["sim"], specs["threaded"]
    assert set(sim.sensors) == set(threaded.sensors) == {"PACE", "ERR"}
    assert set(sim.policies) == set(threaded.policies) == {"INC"}

    def bindings(spec):
        return {(mt.workflow_id, mt.task, mt.sensor_id) for mt in spec.monitor_tasks}

    assert bindings(sim) == bindings(threaded) == {("W", "Ana", "PACE"), ("W", "Sim", "ERR")}
