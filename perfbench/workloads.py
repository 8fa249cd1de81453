"""The benchmark's three workloads and their output checks.

Each workload is a single-process batch job: one op runs to completion
before the next starts, with no threads or worker processes.  An op is
made of *cells*: one cell is one scenario run (in paper-xgc, the
scenario on both machine models; in campaign-durable, one ``run_cell``
call per tenant at one cell seed), and a cell's time is split at its
first tick zero into set-up and control-loop time.  The workload seed is the only input; every cell
seed and parameter is derived from it here, and the program receives
only the derived values.

* ``paper-xgc`` — the XGC1/XGCa alternation (paper section 4.3) on
  summit and deepthought2; DYFLOW on, every observer off.
* ``synth-fanin-4k`` — the synthetic scenario at 4000 tasks, 8 Monitor
  clients, one policy per task; the threshold is never crossed.
* ``campaign-durable`` — two tenants of Gray-Scott cells under a
  campaign service with fleet observability and per-tenant WALs; each
  cell journals, traces and crashes/resumes its orchestrator, and the
  supervisor itself crashes halfway and is resumed.
"""

from __future__ import annotations

import os
import shutil
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign import CampaignService, ExecutorSpec, TenantCell, TenantSpec, TenantsSpec
from repro.experiments.grayscott_scenario import run_gray_scott_experiment
from repro.experiments.synthetic import SyntheticConfig, run_synthetic_experiment
from repro.experiments.xgc_scenario import run_xgc_experiment
from repro.journal import JournalSpec
from repro.journal.resume import scenario_fingerprint
from repro.lint.preflight import PreflightWarning
from repro.observability import FleetSpec, ObservabilitySpec
from repro.runtime.sim_driver import DyflowOrchestrator
from repro.telemetry import TelemetrySpec
from tests.experiments.test_fingerprint_regression import CHAOS_XML, EXPECTED

#: A clock: seconds from an arbitrary origin.
Clock = Callable[[], float]

#: Fingerprint of the 4000-task synthetic scenario.  The scenario has no
#: noise, so the hash does not depend on the seed.
SYNTH_4K_FINGERPRINT = "d1aebd29afdc041e9b6b5fb904308cc1aae9e74baf1d7295b2a6aa8c34e3e635"

#: Pinned fingerprints of uninterrupted runs: (scenario, variant, seed) -> hash.
PINNED: dict[tuple[str, str, int], str] = {
    ("xgc", "summit", 1): EXPECTED["xgc"],
    ("gray-scott", "clean", 1): EXPECTED["gray_scott"],
    ("gray-scott", "lossy", 3): EXPECTED["fabric_faults"],
}


class CheckFailed(Exception):
    """A cell's output differs from its reference."""


class TickZero(Exception):
    """Raised by a set-up-only probe once the control loop is armed."""


class RunProbe:
    """Marks tick zero of one scenario run and keeps its orchestrators.

    Wraps ``DyflowOrchestrator.start`` and ``resume_from`` for the span
    of one scenario run (one extra call each per orchestrator, in traced
    and untraced runs alike).  ``start`` returning is tick zero: the
    spec is parsed, machine, workflow, launcher and orchestrator are
    built and preflight has run.  With ``stop_at_tick_zero`` the run is
    abandoned there, which measures set-up alone.
    """

    def __init__(self, clock: Clock, stop_at_tick_zero: bool = False) -> None:
        self.clock = clock
        self.stop_at_tick_zero = stop_at_tick_zero
        self.tick_zero: float | None = None
        self.orchestrators: list[DyflowOrchestrator] = []
        self._saved: dict[str, Any] = {}

    def __enter__(self) -> "RunProbe":
        probe = self
        start = DyflowOrchestrator.__dict__["start"]
        resume_from = DyflowOrchestrator.__dict__["resume_from"]
        self._saved = {"start": start, "resume_from": resume_from}

        def probed_start(orch, *args, **kwargs):
            result = start(orch, *args, **kwargs)
            probe.orchestrators.append(orch)
            if probe.tick_zero is None:
                probe.tick_zero = probe.clock()
            if probe.stop_at_tick_zero:
                raise TickZero
            return result

        def probed_resume_from(orch, *args, **kwargs):
            probe.orchestrators.append(orch)
            return resume_from(orch, *args, **kwargs)

        DyflowOrchestrator.start = probed_start
        DyflowOrchestrator.resume_from = probed_resume_from
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            setattr(DyflowOrchestrator, name, original)

    @property
    def ticks(self) -> int:
        return sum(o.ticks for o in self.orchestrators)


def setup_only(run: Callable[[], Any], clock: Clock) -> float:
    """Seconds from calling *run* to its tick zero (the run is abandoned)."""
    with RunProbe(clock, stop_at_tick_zero=True) as probe:
        t0 = clock()
        try:
            run()
        except TickZero:
            pass
    if probe.tick_zero is None:
        raise CheckFailed("scenario never reached tick zero")
    return probe.tick_zero - t0


@dataclass
class Cell:
    """One scenario run inside an op; times in its workload's ``clock`` seconds."""

    name: str
    wall: float
    setup: float
    ticks: int
    ok: bool
    detail: str = ""
    #: Wall seconds, any yardstick passes included.
    raw_wall: float = 0.0


@dataclass
class OpResult:
    """One op: its cells, wall time and the ops the user would count."""

    wall: float
    cells: list[Cell] = field(default_factory=list)
    #: (attempted, failed) at the granularity ``ops_failed_ratio`` counts.
    attempted: int = 0
    failed: int = 0
    #: Cells completed (executed or replayed) — the campaign's output.
    completed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Set-up times measured inside the op.
    setups: list[float] = field(default_factory=list)


def timed_cell(name: str, run: Callable[[], Any], check: Callable[[Any], None],
               clock: Clock) -> Cell:
    """Run one scenario; split its time at tick zero; check its output."""
    with RunProbe(clock) as probe:
        raw0, t0 = time.perf_counter(), clock()
        try:
            result = run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising cell is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        end, raw_end = clock(), time.perf_counter()
    if probe.tick_zero is None:
        error = error or "scenario never reached tick zero"
    tick_zero = probe.tick_zero if probe.tick_zero is not None else end
    cell = Cell(name, end - t0, tick_zero - t0, probe.ticks, error is None, error or "",
                raw_wall=raw_end - raw0)
    if error is None:
        try:
            check(result)
        except CheckFailed as exc:
            cell.ok, cell.detail = False, str(exc)
    return cell


def _expect(label: str, got: Any, want: Any) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


class Workload:
    """One workload: references before timing, then ops on demand."""

    name = ""
    why = ""
    #: Set-up-only samples taken before each op, spreading them over the run.
    setups_per_op = 1

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Every time is read from this: wall seconds, or reference seconds
        #: while run.py has a ``yardstick.HostClock`` armed.
        self.clock: Clock = time.perf_counter

    def prepare(self) -> None:
        """Compute reference outputs (untimed)."""

    def setup_sample(self) -> float:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class PaperXgc(Workload):
    name = "paper-xgc"
    setups_per_op = 4
    why = ("the paper's own scenario: few tasks, real STOP/START/SWITCH plans; "
           "disk scans and arbitration dominate")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.machines = ("summit",) if tiny else ("summit", "deepthought2")
        self.reference: dict[str, str] = {}

    def _run(self, machine: str):
        return run_xgc_experiment(machine, seed=self.seed)

    def prepare(self) -> None:
        for machine in self.machines:
            pinned = PINNED.get(("xgc", machine, self.seed))
            if pinned is not None:
                self.reference[machine] = pinned
            else:
                self.reference[machine] = scenario_fingerprint(self._run(machine))

    def setup_sample(self) -> float:
        return setup_only(lambda: self._run(self.machines[0]), self.clock)

    def _run_all(self) -> list:
        return [self._run(machine) for machine in self.machines]

    def _check(self, results: list) -> None:
        for machine, result in zip(self.machines, results):
            _expect(f"{machine} fingerprint", scenario_fingerprint(result),
                    self.reference[machine])
            if not result.plans:
                raise CheckFailed(f"{machine}: DYFLOW built no plan")

    def op(self) -> OpResult:
        # One cell is the scenario on every machine.  Cells of one machine
        # each would pool two modes (a deepthought2 run takes about twice
        # as long as a summit run), and the median of such a pool falls
        # in the gap between them, where it jumps from run to run.
        t0 = self.clock()
        cell = timed_cell("+".join(self.machines), self._run_all, self._check, self.clock)
        return OpResult(self.clock() - t0, [cell], attempted=1, failed=int(not cell.ok),
                        completed=int(cell.ok),
                        errors=[] if cell.ok else [f"{cell.name}: {cell.detail}"],
                        setups=[cell.setup] if cell.ok else [])


class SynthFanin(Workload):
    name = "synth-fanin-4k"
    why = ("4000 tasks, 8 Monitor clients, no plan: Monitor fan-in, Decision "
           "routing and launch placement dominate; arbitration is bypassed")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.config = SyntheticConfig(num_tasks=64 if tiny else 4000, seed=seed)
        self.reference = ""

    def _run(self):
        return run_synthetic_experiment(config=self.config)

    def prepare(self) -> None:
        if self.config.num_tasks == 4000:
            self.reference = SYNTH_4K_FINGERPRINT
        else:
            self.reference = scenario_fingerprint(self._run())

    def setup_sample(self) -> float:
        return setup_only(self._run, self.clock)

    def _check(self, result) -> None:
        meta = result.meta
        _expect("ticks", meta["ticks"], 42)
        _expect("updates_seen", meta["updates_seen"], 8 * self.config.num_tasks)
        _expect("plans", len(result.plans), 0)
        _expect("fingerprint", scenario_fingerprint(result), self.reference)

    def op(self) -> OpResult:
        t0 = self.clock()
        cell = timed_cell("synthetic", self._run, self._check, self.clock)
        return OpResult(self.clock() - t0, [cell], attempted=1, failed=int(not cell.ok),
                        completed=int(cell.ok),
                        errors=[] if cell.ok else [cell.detail],
                        setups=[cell.setup] if cell.ok else [])


#: (tenant, crash time, chaos fabric on) for the campaign's two tenants.
TENANTS = (("clean", 600.0, False), ("lossy", 615.0, True))


def _cell_workflow(**params):
    """Placeholder factory: the benchmark's ``run_cell`` ignores it."""
    return params


class CampaignDurable(Workload):
    name = "campaign-durable"
    #: A set-up sample takes about a millisecond, so many are cheap.
    setups_per_op = 16
    why = ("every robustness plane on: WAL writes and replays, telemetry, "
           "lossy fabric, preflight lint, supervisor crash and resume")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.per_tenant = 1 if tiny else 4
        self.stop_after = self.per_tenant * len(TENANTS) // 2
        #: (tenant, cell seed) -> uninterrupted reference fingerprint
        self.reference: dict[tuple[str, int], str] = {}
        self.cell_walls: list[Cell] = []
        self._cells_root = ""

    def cells(self) -> list[TenantCell]:
        out = []
        for i in range(self.per_tenant):
            for tenant, crash_at, chaos in TENANTS:
                cell_seed = self.seed + i
                out.append(TenantCell(
                    tenant, _cell_workflow,
                    params={"seed": cell_seed, "crash_at": crash_at, "chaos": chaos},
                    seed=cell_seed, nprocs=420,
                ))
        return out

    def prepare(self) -> None:
        for cell in self.cells():
            key = (cell.tenant_id, cell.seed)
            pinned = PINNED.get(("gray-scott", *key))
            if pinned is not None:
                self.reference[key] = pinned
            elif key not in self.reference:
                plain = run_gray_scott_experiment(
                    "summit", seed=cell.seed,
                    xml_extra=CHAOS_XML if cell.params["chaos"] else "",
                )
                self.reference[key] = scenario_fingerprint(plain)

    def run_cell(self, cell: TenantCell, lease) -> dict:
        """Gray-Scott on summit with WAL, telemetry and preflight; the
        orchestrator crashes at ``crash_at`` and resumes from its journal."""
        p = cell.params
        cell_dir = os.path.join(self._cells_root, f"{cell.tenant_id}-{p['seed']}")
        result_box: list[dict] = []

        def run():
            return run_gray_scott_experiment(
                "summit", seed=p["seed"],
                journal=JournalSpec(dir=os.path.join(cell_dir, "wal"), fsync="batch"),
                telemetry=TelemetrySpec(jsonl_path=os.path.join(cell_dir, "spans.jsonl")),
                preflight="warn",
                crash_times=(p["crash_at"],),
                xml_extra=CHAOS_XML if p["chaos"] else "",
            )

        def check(result) -> None:
            crashes = result.meta["crashes"]
            if len(crashes) != 1 or crashes[0] < p["crash_at"]:
                raise CheckFailed(f"orchestrator crashes at {crashes}, expected one "
                                  f"at or after t={p['crash_at']}")
            fingerprint = scenario_fingerprint(result)
            _expect("fingerprint", fingerprint, self.reference[(cell.tenant_id, p["seed"])])
            result_box.append({"fingerprint": fingerprint, "makespan": result.makespan,
                               "plans": len(result.plans)})

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreflightWarning)
            sample = timed_cell(f"{cell.tenant_id}-{p['seed']}", run, check, self.clock)
        self.cell_walls.append(sample)
        if not sample.ok:
            raise CheckFailed(sample.detail)
        return result_box[0]

    def service(self, root: str) -> CampaignService:
        spec = TenantsSpec(
            nodes=10, cores_per_node=42,
            tenants=tuple(TenantSpec(t) for t, _, _ in TENANTS),
            executor=ExecutorSpec(max_attempts=1, backoff_base=0.0, jitter=0.0),
        )
        return CampaignService(
            spec, journal_root=root, run_cell=self.run_cell,
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )

    def _submit_all(self, svc: CampaignService) -> list[str]:
        return [f"{cell.tenant_id}: rejected ({res.reason})"
                for cell in self.cells()
                for res in [svc.submit(cell)] if not res.accepted]

    def setup_sample(self) -> float:
        root = os.path.join(self.workdir, "setup")
        shutil.rmtree(root, ignore_errors=True)
        t0 = self.clock()
        svc = self.service(root)
        self._submit_all(svc)
        wall = self.clock() - t0
        del svc
        shutil.rmtree(root, ignore_errors=True)
        return wall

    def _seed_cells(self) -> list[Cell]:
        """One cell per cell seed: the ``run_cell`` calls of every tenant
        at that seed, summed.  A clean call takes about half as long as a
        lossy one, so single calls would pool two modes of equal size, and
        the median of such a pool falls in the gap between them, where it
        jumps from run to run."""
        by_seed: dict[str, list[Cell]] = {}
        for cell in self.cell_walls:
            by_seed.setdefault(cell.name.split("-", 1)[1], []).append(cell)
        return [Cell("+".join(c.name for c in calls), sum(c.wall for c in calls),
                     sum(c.setup for c in calls), sum(c.ticks for c in calls),
                     len(calls) == len(TENANTS) and all(c.ok for c in calls),
                     "; ".join(c.detail for c in calls if c.detail),
                     raw_wall=sum(c.raw_wall for c in calls))
                for calls in by_seed.values()]

    def op(self) -> OpResult:
        root = os.path.join(self.workdir, "campaign")
        shutil.rmtree(root, ignore_errors=True)
        self._cells_root = os.path.join(root, "cells")
        self.cell_walls = []
        errors: list[str] = []
        t0 = self.clock()
        svc = self.service(os.path.join(root, "service"))
        errors += self._submit_all(svc)
        setup = self.clock() - t0
        first = svc.run_pending(stop_after=self.stop_after)
        # Supervisor crash: a fresh service resumes over the same WAL root.
        del svc
        resumed = self.service(os.path.join(root, "service"))
        errors += self._submit_all(resumed)
        second = resumed.run_pending()
        wall = self.clock() - t0

        before = {r["cell_id"]: r for r in first}
        records = first + second
        bad = {r["cell_id"] for r in records if r["status"] != "completed"}
        errors += [f"{r['cell_id']}: {r['status']}" for r in records
                   if r["status"] != "completed"]
        for r in second:
            prior = before.get(r["cell_id"])
            if r["replayed"] and (prior is None or prior["result"] != r["result"]):
                bad.add(r["cell_id"])
                errors.append(f"{r['cell_id']}: replay differs from its pre-crash result")
        expected = self.per_tenant * len(TENANTS)
        executed = sum(not r["replayed"] for r in records)
        if executed != expected or len(first) != self.stop_after or len(second) != expected:
            errors.append(f"{executed} cells executed, {len(second)} served after the "
                          f"crash; expected {expected} of each")
        for tid, summary in resumed.tenant_summary().items():
            if summary["failed"] or summary["poisoned"]:
                errors.append(f"tenant {tid}: {summary['failed']} failed, "
                              f"{summary['poisoned']} poisoned")
        errors += [f"{c.name}: {c.detail}" for c in self.cell_walls if not c.ok]
        failed = sum(r["cell_id"] in bad for r in records)
        if errors and not failed:
            failed = 1
        return OpResult(wall, self._seed_cells(), attempted=len(records), failed=failed,
                        completed=sum(r["status"] == "completed" for r in records),
                        errors=errors, setups=[setup])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperXgc, SynthFanin, CampaignDurable)
}
