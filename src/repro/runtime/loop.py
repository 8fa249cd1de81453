"""The clock-agnostic core shared by both DYFLOW drivers.

Paper §3/Fig. 2 describes one Monitor → Decision → Arbitration →
Actuation architecture.  :class:`ControlLoop` is the part of it that
does not depend on how time passes: the Monitor server and Decision
stage, sensor/policy registration, the health engine, the Monitor
fabric (links, ingress drain, degraded mode), journal-spec resolution
and the end-of-run telemetry exports.  :class:`DyflowOrchestrator`
(event clock) and :class:`ThreadedDyflow` (wall clock) subclass it and
add only their clock, their transport and their task control.
"""

from __future__ import annotations

from typing import Any, Callable, Container

from repro.core.decision import DecisionStage
from repro.core.monitor import MonitorClient, MonitorServer
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.rules import ArbitrationRules
from repro.core.sensors.base import SensorInstance, SensorSpec
from repro.core.sensors.sources import make_source
from repro.errors import DyflowError
from repro.fabric import DegradedModeController, FabricLink
from repro.observability import HealthEngine, report_from_run, write_openmetrics, write_report
from repro.resilience.spec import ResilienceSpec
from repro.runtime.options import RuntimeOptions
from repro.sim.rng import RngRegistry
from repro.staging.hub import DataHub
from repro.telemetry import build_tracer, write_chrome_trace
from repro.telemetry.tracer import Tracer


class ControlLoop:
    """Stage wiring and bootstrap API common to both drivers.

    ``resilience`` (whose ``network`` configures the fabric) is also
    exposed by each subclass as an attribute read back by pre-flight.
    """

    #: Arbitration rules in force (the threaded driver has none).
    rules: ArbitrationRules | None = None
    resilience: ResilienceSpec | None

    def __init__(
        self,
        options: RuntimeOptions,
        *,
        workflow_id: str,
        hub: DataHub,
        tasks: Container[str],
        clients: list[MonitorClient],
        clock: Callable[[], float],
        tracer: Tracer | None,
        rng: RngRegistry,
        resilience: ResilienceSpec | None,
        record_history: bool,
    ) -> None:
        from repro.lint.preflight import check_mode

        self.options = options
        self.preflight = check_mode(options.preflight)
        self.workflow_id = workflow_id
        self.hub = hub
        self._tasks = tasks
        self.clients = clients
        self.telemetry = options.telemetry
        self.tracer = tracer if tracer is not None else build_tracer(self.telemetry, clock=clock)
        self._telemetry_finalized = False
        self.decision = DecisionStage()
        self.server = MonitorServer(on_updates=self.decision.ingest, record_history=record_history)
        self.server.set_tracer(self.tracer, clock=clock)
        self.decision.set_tracer(self.tracer)
        self._sensors: dict[str, SensorSpec] = {}
        # Observability: the health engine evaluates SLOs/anomalies on the
        # driver's tick and publishes the results back into the Monitor
        # stage via HEALTH sensor sources (see docs/observability.md).
        self.observability = options.observability
        self.health: HealthEngine | None = None
        if self.observability is not None and self.observability.enabled:
            self.health = HealthEngine(
                self.observability,
                tracer=self.tracer,
                workflow_id=workflow_id,
                aggregates=self._health_aggregates,
            )
        # Monitor fabric: each client's envelopes cross a FabricLink
        # (lossy transport + ack/retransmit reliability), land in the
        # server's bounded ingress queue, and are drained by the driver;
        # ingest staleness drives the Decision stage's degraded mode.
        self.network = resilience.network if resilience is not None else None
        if self.network is not None and not self.network.enabled:
            self.network = None
        self.links: dict[str, FabricLink] = {}
        self.degrade: DegradedModeController | None = None
        if self.network is not None:
            self.network.validate()
            for c in clients:
                self.links[c.client_id] = FabricLink(
                    c.client_id, self.network, rng, tracer=self.tracer
                )
            self.server.configure_fabric(self.network)
            self.degrade = DegradedModeController(self.network)
        # `journal` may be a JournalSpec (opened at start) or an
        # already-open Journal.
        self._journal = None
        self._journal_spec = None
        journal = options.journal
        if journal is not None:
            from repro.journal import Journal, JournalSpec

            if isinstance(journal, Journal):
                self._journal = journal
            elif isinstance(journal, JournalSpec):
                if journal.enabled:
                    self._journal_spec = journal
            else:
                raise DyflowError(f"journal must be a Journal or JournalSpec, got {journal!r}")

    def _health_aggregates(self) -> dict[str, float]:
        """Driver-level health aggregates published every evaluation."""
        raise NotImplementedError

    # -- bootstrap configuration ---------------------------------------------------
    def add_sensor(self, spec: SensorSpec) -> None:
        if spec.sensor_id in self._sensors:
            raise DyflowError(f"duplicate sensor id {spec.sensor_id!r}")
        self._sensors[spec.sensor_id] = spec

    def monitor_task(
        self,
        task: str,
        sensor_id: str,
        info_source: str | None = None,
        var: str | None = None,
        client: int = 0,
    ) -> SensorInstance:
        """Bind a registered sensor to a monitored task on one Monitor client."""
        spec = self._sensors.get(sensor_id)
        if spec is None:
            raise DyflowError(f"monitor-task references unknown sensor {sensor_id!r}")
        if spec.source_type.upper() == "HEALTH":
            # Health streams monitor the orchestrator itself, not a
            # workflow task: bind straight to the health engine's feed.
            if self.health is None:
                raise DyflowError(
                    f"sensor {sensor_id!r} uses a HEALTH source but no enabled "
                    "ObservabilitySpec is configured "
                    "(pass options=RuntimeOptions(observability=...))"
                )
            source: object = self.health.bind_source(var)
        else:
            if task not in self._tasks:
                raise DyflowError(f"monitor-task references unknown task {task!r}")
            source = make_source(
                spec.source_type, self.hub, self.workflow_id, task,
                info_source=info_source, var=var,
            )
        instance = SensorInstance(
            spec=spec, workflow_id=self.workflow_id, task=task, source=source
        )
        self.clients[client % len(self.clients)].add_binding(instance)
        return instance

    def add_policy(self, spec: PolicySpec) -> None:
        self.decision.add_policy(spec)

    def apply_policy(self, application: PolicyApplication) -> None:
        self.decision.apply_policy(application)

    # -- shared service steps ----------------------------------------------------------
    def _run_preflight(self, **targets: Any) -> None:
        """Verify the configured spec before tick zero (``preflight`` mode).

        Pure static analysis: draws no RNG stream, reads no clock, so a
        passing spec runs bit-identically with preflight on.
        """
        if self.preflight == "off":
            return
        from repro.lint.preflight import run_preflight, spec_from_runtime

        run_preflight(self.preflight, spec_from_runtime(self), **targets)

    def _drain_ingress(self, now: float, journal=None) -> None:
        """Drain the fabric ingress queue into the server, then step degraded mode.

        With *journal*, each envelope is recorded at drain time, so replay
        (receive only) needs no queue.
        """
        for env in self.server.take_ingress():
            if journal is not None and not journal.closed:
                journal.append("obs", env=env.to_json())
            self.server.note_staleness(max(0.0, now - env.time))
            self.server.receive(env)
        for alert in self.degrade.tick(now, self.server.last_seen):
            if self.health is not None:
                self.health.alerts.append(alert)
            self.tracer.point("health.alert", "health", **alert.to_dict())
        self.decision.set_degraded(self.degrade.degraded)

    def _open_journal(self) -> bool:
        """Open the configured JournalSpec unless a journal is attached; True if opened."""
        if self._journal is not None or self._journal_spec is None:
            return False
        from repro.journal import Journal

        self._journal = Journal.open(self._journal_spec, metrics=self.tracer.metrics)
        return True

    def _close_journal(self) -> None:
        if self._journal is not None and not self._journal.closed:
            self._journal.sync()
            self._journal.close()

    # -- end-of-run exports ------------------------------------------------------------
    def finalize_telemetry(self) -> None:
        """Flush the JSONL log and write the Chrome trace and observability
        exports (OpenMetrics, run report), if configured."""
        if self._telemetry_finalized or not self.tracer.enabled:
            return
        self._telemetry_finalized = True
        self._final_points()
        self.tracer.flush()
        if self.telemetry is not None and self.telemetry.chrome_trace_path is not None:
            write_chrome_trace(self.telemetry.chrome_trace_path, self.tracer)
        spec = self.observability
        if spec is None or not spec.enabled:
            return
        if spec.openmetrics_path is not None:
            write_openmetrics(spec.openmetrics_path, self.tracer.metrics)
        if spec.analysis and (spec.report_path is not None or spec.report_json_path is not None):
            report = report_from_run(
                self.tracer,
                alerts=self.health.alerts if self.health is not None else (),
                top_n=spec.top_n,
                meta={"workflow": self.workflow_id},
                **self._report_context(),
            )
            write_report(report, path=spec.report_path, json_path=spec.report_json_path)

    def _final_points(self) -> None:
        """Trace points recorded just before the final flush."""

    def _report_context(self) -> dict[str, Any]:
        """Extra :func:`report_from_run` arguments (launcher, end time)."""
        return {}
