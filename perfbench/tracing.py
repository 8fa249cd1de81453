"""Out-of-program span tracing for the traced benchmark run.

The benchmark measures each DYFLOW layer from the outside: for the
traced run only, :class:`Tracer` replaces a fixed list of public
functions and methods with timing wrappers, and puts the originals back
when the run ends.  Nothing in the program is edited.

Spans (name, start, end, parent, run id) live in flat in-memory lists
and are written out as JSONL after the run.  A span's *self time* is its
duration minus the time its child spans cover, so summing self time per
layer splits the traced wall time without double counting.

Generator plugin ops (Actuation ``execute``, the WMS ``start``/``stop``
ops) run in slices between simulated waits; each resume of such a
generator is one span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

_now = time.perf_counter


class SpanLog:
    """Spans kept as parallel lists; one ``enter``/``exit`` pair per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.child: list[float] = []
        self._stack: list[int] = []
        self.run_id = ""

    def enter(self, name: str) -> int:
        idx = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.runs.append(self.run_id)
        self.child.append(0.0)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(_now())
        return idx

    def exit(self, idx: int) -> None:
        end = _now()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child[parent] += end - self.starts[idx]

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child):
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def write_jsonl(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "run": self.runs[i], "parent": self.parents[i],
                    "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                    "self": self.ends[i] - self.starts[i] - self.child[i],
                }) + "\n")


@dataclass(frozen=True)
class Target:
    """One function or method to time.

    ``owner`` is ``"module:Class"`` for a method or ``"module"`` for a
    module-level function; a module-level function is replaced in every
    loaded module that bound it by name (``from x import f``).
    ``after(counters, args, kwargs, result, before)`` updates counters
    from the call; ``before(args, kwargs)`` captures state ahead of it.
    """

    owner: str
    attr: str
    span: str
    generator: bool = False
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[[dict, tuple, dict, Any, Any], None] | None = None


def _bump(counters: dict, key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _keep(counters: dict, key: str, obj: Any) -> None:
    counters.setdefault(key, {})[id(obj)] = obj


def _collect_after(c, args, kwargs, result, before):
    client = args[0]
    _bump(c, "collect.bindings", len(client.bindings))
    _bump(c, "collect.envelopes", len(result))


def _restart_before(args, kwargs):
    return len(args[0].bindings)


def _restart_after(c, args, kwargs, result, visits):
    _bump(c, "restart.visits", visits)


def _scan_after(c, args, kwargs, result, before):
    _bump(c, "scan.returned", len(result))
    _bump(c, "scan.entries", len(args[0]))


def _ingest_before(args, kwargs):
    return args[0].updates_seen


def _ingest_after(c, args, kwargs, result, seen_before):
    _bump(c, "decision.updates", args[0].updates_seen - seen_before)


def _arbitrate_after(c, args, kwargs, result, before):
    _keep(c, "arbitration.stages", args[0])
    suggestions = args[1] if len(args) > 1 else kwargs["suggestions"]
    if suggestions:
        _bump(c, "arbitrate.with_suggestions")
        if result is not None:
            _bump(c, "arbitrate.plans")


def _keep_self(key: str):
    def after(c, args, kwargs, result, before):
        _keep(c, key, args[0])
    return after


def _submit_after(c, args, kwargs, result, before):
    _bump(c, "submit.attempted")
    if result.accepted:
        _bump(c, "submit.accepted")


def _counted(key: str):
    def after(c, args, kwargs, result, before):
        _bump(c, key)
    return after


def _run_pending_after(c, args, kwargs, result, before):
    _bump(c, "campaign.records", len(result))
    _bump(c, "campaign.replayed", sum(1 for r in result if r["replayed"]))


_RM = "repro.cluster.resource_manager:ResourceManager"

#: Every wrapped function, grouped by the layer (module) it belongs to.
TARGETS: tuple[Target, ...] = (
    Target("repro.sim.engine:SimEngine", "step", "sim"),
    Target("repro.core.monitor:MonitorClient", "collect", "core.monitor.collect",
           after=_collect_after),
    Target("repro.core.monitor:MonitorServer", "receive", "core.monitor.receive"),
    Target("repro.core.monitor:MonitorClient", "on_task_restart", "core.monitor.restart",
           before=_restart_before, after=_restart_after),
    Target("repro.staging.filesystem:SimFilesystem", "scan", "staging.scan",
           after=_scan_after),
    Target("repro.core.decision:DecisionStage", "ingest", "core.decision.ingest",
           before=_ingest_before, after=_ingest_after),
    Target("repro.core.decision:DecisionStage", "tick", "core.decision.tick"),
    Target("repro.core.arbitration:ArbitrationStage", "arbitrate",
           "core.arbitration.arbitrate", after=_arbitrate_after),
    Target("repro.core.actuation:ActuationStage", "execute", "core.actuation.execute",
           generator=True),
    Target("repro.core.actuation:ActuationStage", "resume_plan", "core.actuation.execute",
           generator=True),
    Target("repro.wms.launcher:Savanna", "start_task_with_resources", "wms.start",
           generator=True),
    Target("repro.wms.launcher:Savanna", "stop_task", "wms.stop", generator=True),
    *(Target(_RM, name, "cluster.placement")
      for name in ("plan_placement", "assign", "grow", "shrink", "release", "free")),
    Target("repro.fabric.link:FabricLink", "send", "fabric.send",
           after=_keep_self("fabric.links")),
    Target("repro.fabric.link:FabricLink", "poll", "fabric.poll",
           after=_keep_self("fabric.links")),
    Target("repro.journal.journal:Journal", "append", "journal.append",
           after=_keep_self("journals")),
    Target("repro.journal.journal:Journal", "sync", "journal.sync",
           after=_keep_self("journals")),
    Target("repro.journal.journal:Journal", "snapshot", "journal.snapshot",
           after=_keep_self("journals")),
    Target("repro.journal.resume", "read_journal", "journal.read"),
    Target("repro.runtime.sim_driver:DyflowOrchestrator", "resume_from", "journal.read"),
    Target("repro.telemetry.tracer:Tracer", "start_span", "telemetry.span",
           after=_counted("telemetry.spans")),
    Target("repro.telemetry.tracer:Tracer", "add_span", "telemetry.span",
           after=_counted("telemetry.spans")),
    Target("repro.telemetry.tracer:Tracer", "end_span", "telemetry.span"),
    Target("repro.telemetry.tracer:Tracer", "point", "telemetry.span"),
    Target("repro.telemetry.tracer:Tracer", "flush", "telemetry.flush"),
    Target("repro.xmlspec.parser", "parse_dyflow_xml", "xmlspec.parse"),
    Target("repro.lint.preflight", "run_preflight", "lint.preflight"),
    Target("repro.campaign.service:CampaignService", "run_pending", "campaign.run_pending",
           after=_run_pending_after),
    Target("repro.campaign.service:CampaignService", "submit", "campaign.submit",
           after=_submit_after),
    Target("repro.observability.watch:WatchStream", "emit", "observability.watch_emit"),
    Target("repro.observability.fleet:FleetHealthEngine", "record_cell", "observability.fleet"),
    # The benchmark's own cell runner, so campaign service time excludes cells.
    Target("workloads:CampaignDurable", "run_cell", "campaign.run_cell"),
)


def resolve(target: Target) -> tuple[Any, Any]:
    """``(owner object, original attribute)`` for *target*."""
    module_name, _, cls_name = target.owner.partition(":")
    owner: Any = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name)
        return owner, owner.__dict__[target.attr]
    return owner, getattr(owner, target.attr)


def bindings_of(fn: Any) -> list[tuple[Any, str]]:
    """Every ``(module, name)`` in ``sys.modules`` bound to *fn*."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is fn:
                found.append((module, name))
    return found


def binding_sites(targets: tuple[Target, ...] = TARGETS) -> list[tuple[Any, str, Any]]:
    """Every ``(owner, name, current value)`` a :class:`Tracer` would patch."""
    sites = []
    for target in targets:
        owner, original = resolve(target)
        if inspect.ismodule(owner):
            sites += [(module, name, original) for module, name in bindings_of(original)]
        else:
            sites.append((owner, target.attr, original))
    return sites


def unrestored(sites: list[tuple[Any, str, Any]]) -> list[str]:
    """Names from :func:`binding_sites` no longer bound to their value."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, value in sites
            if vars(owner).get(name) is not value]


class Tracer:
    """Install timing wrappers on :data:`TARGETS`; restore them on exit.

    Use as a context manager around the traced run only.  ``counters``
    collects the call-site counts and the instances (arbitration stages,
    fabric links, journals) whose own counters are read after the run.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.counters: dict[str, Any] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        log, counters, span = self.log, self.counters, target.span
        before, after = target.before, target.after
        if target.generator:
            calls = "calls." + span

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                _bump(counters, calls)
                return _timed_generator(log, span, fn(*args, **kwargs))
            return gen_wrapper
        if before is None and after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = log.enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.exit(idx)
            return wrapper

        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = log.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.exit(idx)
            if after is not None:
                after(counters, args, kwargs, result, state)
            return result
        return counting_wrapper

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                _, original = resolve(target)
                if target.generator and not inspect.isgeneratorfunction(original):
                    raise TypeError(f"{target.owner}.{target.attr} is not a generator")
                wrapper = self._wrap(target, original)
                for owner, name, _ in binding_sites((target,)):
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _timed_generator(log: SpanLog, span: str, gen):
    """Delegate to *gen*, timing each resume as one span."""
    to_send: Any = None
    to_throw: BaseException | None = None
    while True:
        idx = log.enter(span)
        try:
            if to_throw is not None:
                exc, to_throw = to_throw, None
                item = gen.throw(exc)
            else:
                item = gen.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            log.exit(idx)
        try:
            to_send = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into the wrapped generator
            to_throw = exc


@dataclass(frozen=True)
class Row:
    """One per-layer metric; ``base`` is a ratio's numerator/denominator."""

    name: str
    value: float
    unit: str
    base: str = ""


def _ratio(name: str, num: float, den: float, what: str) -> Row:
    return Row(name, num / den if den else 0.0, "ratio", f"{num:g} / {den:g} {what}")


def ledger(log: SpanLog, counters: dict, *, codec: dict, journal_bytes: int,
           traced_wall: float, untraced_wall: float) -> list[Row]:
    """Per-layer metrics of one traced op (see perfbench/README.md)."""
    self_s = log.self_times()
    calls = log.counts()
    c = counters

    attributed: set[str] = set()

    def secs(name: str, span: str) -> Row:
        attributed.add(span)
        return Row(name, self_s.get(span, 0.0), "s")

    def count(name: str, value: float) -> Row:
        return Row(name, value, "count")

    stages = c.get("arbitration.stages", {}).values()
    memo_hits = sum(s.memo_stats()["hits"] for s in stages)
    memo_misses = sum(s.memo_stats()["misses"] for s in stages)
    links = c.get("fabric.links", {}).values()
    journals = c.get("journals", {}).values()
    encodes = codec["encode_hits"] + codec["encode_misses"]
    rows = [
        count("sim.events", calls.get("sim", 0)),
        secs("sim.self_s", "sim"),
        secs("core.monitor.collect_s", "core.monitor.collect"),
        _ratio("core.monitor.collect_yield", c.get("collect.envelopes", 0),
               c.get("collect.bindings", 0), "envelopes / bindings polled"),
        secs("core.monitor.receive_s", "core.monitor.receive"),
        count("core.monitor.restart_calls", calls.get("core.monitor.restart", 0)),
        count("core.monitor.restart_visits", c.get("restart.visits", 0)),
        secs("core.monitor.restart_s", "core.monitor.restart"),
        count("staging.scan_calls", calls.get("staging.scan", 0)),
        secs("staging.scan_s", "staging.scan"),
        _ratio("staging.scan_hit_ratio", c.get("scan.returned", 0),
               c.get("scan.entries", 0), "entries returned / entries in the filesystem"),
        secs("core.decision.ingest_s", "core.decision.ingest"),
        secs("core.decision.tick_s", "core.decision.tick"),
        count("core.decision.updates", c.get("decision.updates", 0)),
        secs("core.arbitration.arbitrate_s", "core.arbitration.arbitrate"),
        _ratio("core.arbitration.plan_ratio", c.get("arbitrate.plans", 0),
               c.get("arbitrate.with_suggestions", 0), "plans / arbitrate calls with suggestions"),
        _ratio("core.arbitration.memo_hit_ratio", memo_hits, memo_hits + memo_misses,
               "memo hits / lookups"),
        count("core.actuation.plans", c.get("calls.core.actuation.execute", 0)),
        secs("core.actuation.execute_s", "core.actuation.execute"),
        count("wms.start_calls", c.get("calls.wms.start", 0)),
        secs("wms.start_s", "wms.start"),
        secs("wms.stop_s", "wms.stop"),
        count("cluster.placement_calls", calls.get("cluster.placement", 0)),
        secs("cluster.placement_s", "cluster.placement"),
        secs("fabric.send_s", "fabric.send"),
        secs("fabric.poll_s", "fabric.poll"),
        _ratio("fabric.delivery_ratio", sum(x.acked for x in links),
               sum(x.transmitted for x in links), "acked / transmitted"),
        count("journal.append_calls", calls.get("journal.append", 0)),
        secs("journal.append_s", "journal.append"),
        Row("journal.bytes", journal_bytes, "bytes"),
        count("journal.fsyncs", sum(j.fsync_count for j in journals)),
        secs("journal.sync_s", "journal.sync"),
        secs("journal.snapshot_s", "journal.snapshot"),
        secs("journal.read_s", "journal.read"),
        count("telemetry.spans", c.get("telemetry.spans", 0)),
        secs("telemetry.span_s", "telemetry.span"),
        secs("telemetry.flush_s", "telemetry.flush"),
        _ratio("util.jsonmsg.encode_hit_ratio", codec["encode_hits"], encodes,
               "memoized encodes / encodes"),
        secs("xmlspec.parse_s", "xmlspec.parse"),
        secs("lint.preflight_s", "lint.preflight"),
        secs("campaign.service_self_s", "campaign.run_pending"),
        _ratio("campaign.admitted_ratio", c.get("submit.accepted", 0),
               c.get("submit.attempted", 0), "submissions accepted / attempted"),
        _ratio("campaign.replay_ratio", c.get("campaign.replayed", 0),
               c.get("campaign.records", 0), "cells replayed / cells served"),
        secs("observability.watch_emit_s", "observability.watch_emit"),
        secs("observability.fleet_s", "observability.fleet"),
    ]
    # Time in no listed layer: app models, scenario assembly, the harness.
    other = traced_wall - sum(self_s.get(span, 0.0) for span in attributed)
    return rows + [
        Row("other.self_s", other, "s"),
        Row("trace.overhead_s", traced_wall - untraced_wall, "s"),
        count("trace.spans", len(log)),
    ]
