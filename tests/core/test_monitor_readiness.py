"""Ready-gated Monitor collect emits exactly what polling every binding does.

Each case drives two identical worlds (hub, filesystem, client) with the
same script.  The *gated* client is a plain :class:`MonitorClient`; the
*reference* client has every source's ``ready()`` forced to True, so it
polls every binding every round.  Every round's ``(lag, envelope JSON)``
list must match byte for byte, and the gated client must poll less.
"""

from repro.cluster.machine import MachinePerf
from repro.core import MonitorClient
from repro.core.sensors import (
    DiskScanSource,
    GroupBySpec,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.staging import DataHub, Sample

PACE = SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))
STEPS = SensorSpec("STEPS", "DISKSCAN", (GroupBySpec("task", "MAX"),))
TASKS = ("A", "B", "C")


def sample(task, value, t, step=0):
    return Sample(time=t, workflow_id="W", task=task, rank=0, node_id="n0",
                  var="looptime", value=value, step=step)


class World:
    """One hub + one client with a stream binding per task (and disk scans)."""

    def __init__(self, reference: bool, capacity: int = 16, diskscan: bool = False,
                 hub: DataHub | None = None):
        self.hub = hub if hub is not None else DataHub()
        self.client = MonitorClient("c0", MachinePerf())
        self.polls = 0
        self.streams: dict[str, StreamSource] = {}
        for task in TASKS:
            self.hub.channel(f"tau-{task}", capacity=capacity)
            src = StreamSource(self.hub, f"tau-{task}", "W", task, var="looptime")
            self.streams[task] = src
            self._bind(PACE, task, src, reference)
            if diskscan:
                disk = DiskScanSource(self.hub.filesystem, f"out/{task}/*", "W", task)
                self._bind(STEPS, task, disk, reference)

    def _bind(self, spec, task, src, reference):
        inst = SensorInstance(spec=spec, workflow_id="W", task=task, source=src)
        poll = inst.poll

        def counted(now):
            self.polls += 1
            return poll(now)

        inst.poll = counted
        if reference:
            src.ready = lambda: True
        self.client.add_binding(inst)

    def put(self, task, value, t):
        ch = self.hub.channel(f"tau-{task}")
        ch.put([sample(task, value, t, step=ch.next_step)], t)

    def write(self, task, step, t):
        self.hub.filesystem.write(f"out/{task}/f.{step}", {"step": step}, mtime=t, step=step)

    def collect(self, now):
        return [(lag, env.to_json()) for lag, env in self.client.collect(now)]


def run_both(script, **world_kw):
    """Apply *script(world, now)* per round to both worlds; compare rounds."""
    gated, ref = World(False, **world_kw), World(True, **world_kw)
    for rnd in range(12):
        now = float(rnd)
        for w in (gated, ref):
            script(w, now)
        assert gated.collect(now) == ref.collect(now), f"round {rnd}"
    return gated, ref


class TestReadinessEquivalence:
    def test_data_after_skipped_rounds(self):
        def script(w, now):
            if now in (5.0, 9.0):
                w.put("B", now, now)
                w.put("B", now + 0.5, now)
            if now == 9.0:
                w.put("C", 2 * now, now)

        gated, ref = run_both(script)
        assert gated.polls < ref.polls
        assert gated.collect(12.0) == []

    def test_reconnect_on_task_restart(self):
        def script(w, now):
            w.put("A", now, now)
            if now == 4.0:
                w.client.on_task_restart("A")
                w.put("A", 100.0, now)  # after the reconnect: observed
            if now == 7.0:
                w.put("B", now, now)
                w.client.on_task_restart("B")  # before: skipped by both

        gated, ref = run_both(script)
        assert gated.polls < ref.polls

    def test_ring_buffer_eviction(self):
        def script(w, now):
            if now in (3.0, 8.0):
                for k in range(10):
                    w.put("C", now + k, now)

        gated, ref = run_both(script, capacity=4)
        assert gated.streams["C"]._reader.missed_steps == 12
        assert gated.streams["C"].cursor_state() == ref.streams["C"].cursor_state()
        assert gated.polls < ref.polls

    def test_state_dict_resume(self):
        def script(w, now):
            if int(now) % 3 == 0:
                w.put("A", now, now)

        gated, ref = run_both(script)
        for w in (gated, ref):
            w.put("B", 11.5, 11.5)  # staged but unread at the snapshot
        state = gated.client.state_dict()
        assert state == ref.client.state_dict()
        # Resume both from the journaled state in fresh clients over the
        # old hubs' staged data; keep going in lockstep.
        resumed = {}
        for name, old in (("gated", gated), ("ref", ref)):
            w = World(name == "ref", hub=old.hub)
            w.client.load_state_dict(state)
            resumed[name] = w
        for rnd in range(12, 20):
            now = float(rnd)
            for w in resumed.values():
                if rnd % 2:
                    w.put("B", now, now)
            out = resumed["gated"].collect(now)
            assert out == resumed["ref"].collect(now)
            if rnd == 12:
                assert out, "the step staged before the snapshot is read after resume"
        assert resumed["gated"].client.state_dict() == resumed["ref"].client.state_dict()

    def test_mixed_stream_and_diskscan(self):
        def script(w, now):
            if now in (2.0, 6.0):
                w.put("A", now, now)
            if now in (2.0, 3.0, 10.0):
                w.write("C", int(now), now)

        gated, ref = run_both(script, diskscan=True)
        assert gated.polls < ref.polls

    def test_diskscan_is_always_polled(self):
        gated = World(False, diskscan=True)
        for rnd in range(5):
            gated.collect(float(rnd))
        # first round: every binding; later: only the three DISKSCAN ones
        assert gated.polls == 6 + 4 * 3
