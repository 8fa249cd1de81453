"""The repository benchmark: DYFLOW's control loop on three batch workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-xgc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs one untraced op, then the same op under the span
tracer (``perfbench/tracing.py``), and reports the per-layer ledger and
the tracing overhead.  Each run checks its outputs against reference
fingerprints.  It writes a results file and, when traced, a spans file
under ``--out``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an output check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: End-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_s", "s"),
    ("cell_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-xgc", "synth-fanin-4k", "campaign-durable", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=".perfbench_out",
                    help="directory for results, spans and scratch WALs")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_stamp() -> dict:
    """Recorded, never gated: lets runs on other machines be normalized."""
    from benchmarks.bench_core_throughput import calibrate

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "calibration_events_per_s": calibrate(repeats=1),
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], ops) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, in reference seconds
    (``yardstick.py``).

    Only cells that passed their checks count; with none, nothing is
    reported (the run has failed anyway).
    """
    cells = [c for op in ops for c in op.cells if c.ok]
    if not cells or not setups:
        return {}
    walls = [c.wall for c in cells]
    return {
        "setup_s": statistics.median(setups),
        "ticks_per_s": statistics.median(c.ticks / (c.wall - c.setup) for c in cells),
        "cells_per_s": statistics.median(op.completed / op.wall for op in ops),
        "cell_p50_s": statistics.median(walls),
        "cell_p90_s": percentile(walls, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def setup_samples(workload, count: int) -> list[float]:
    """*count* set-up-only samples; a failing one is skipped, since the op
    that follows runs the same set-up and records the failure."""
    samples = []
    for _ in range(count):
        try:
            samples.append(workload.setup_sample())
        except Exception:  # noqa: BLE001 - reported by the op
            pass
    return samples


def journal_bytes(journals) -> int:
    total = 0
    for directory in {j.spec.dir for j in journals}:
        for base, _dirs, files in os.walk(directory):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def report(rows, ops, out_path: Path, extra: dict) -> dict:
    """Print every metric with its unit; write the results file."""
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for name, value, unit, base in rows:
        suffix = f"   ({base})" if base else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{suffix}")
    print(f"  {'ops_failed_ratio':<34} {failed / attempted:>14.6g} ratio"
          f"   ({failed} / {attempted} ops failed)")
    for op in ops:
        for err in op.errors:
            print(f"  CHECK FAILED: {err}")
    doc = {
        **extra,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit, **({"base": base} if base else {})}
                    for name, value, unit, base in rows},
        "ops": [{"wall_s": op.wall, "setups": op.setups,
                 "attempted": op.attempted, "failed": op.failed,
                 "completed": op.completed, "errors": op.errors,
                 "cells": [c.__dict__ for c in op.cells]} for op in ops],
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows}}


def declared_metrics(trace: int) -> list[tuple[str, str]] | None:
    """The metric list BENCHMARK.json promises for this mode, if present."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args) -> int:
    import tracing
    import workloads
    from yardstick import HostClock
    from repro.util.jsonmsg import codec_stats, reset_codec_stats

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, str(out / f"{stem}.work"))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {workload.why}")
    extra = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        workload.prepare()
        # Every op starts from a collected heap, outside every timed
        # interval.  Otherwise the garbage of the previous op or set-up
        # sample is still there in some ops and not in others, and each
        # collection the op triggers walks it: synth-fanin-4k cells then
        # alternate between about 5.7 and 6.7 reference seconds.
        if args.trace:
            gc.collect()
            untraced = workload.op()
            log = tracing.SpanLog()
            log.run_id = f"{args.workload}:{args.seed}"
            sites = tracing.binding_sites()
            reset_codec_stats()
            gc.collect()
            with tracing.Tracer(log) as tracer:
                traced = workload.op()
            leftovers = tracing.unrestored(sites)
            if leftovers:
                raise RuntimeError(f"tracing wrappers left installed: {leftovers}")
            rows = tracing.ledger(
                log, tracer.counters, codec=codec_stats(),
                journal_bytes=journal_bytes(tracer.counters.get("journals", {}).values()),
                traced_wall=traced.wall, untraced_wall=untraced.wall,
            )
            rows = [(r.name, r.value, r.unit, r.base) for r in rows]
            ops = [untraced, traced]
            spans_path = out / f"{args.workload}-seed{args.seed}-spans.jsonl"
            log.write_jsonl(str(spans_path))
            print(f"  spans: {len(log)} written to {spans_path}; tracing overhead "
                  f"{traced.wall - untraced.wall:.3f} s on a {untraced.wall:.3f} s op")
        else:
            setups, ops = [], []
            start = time.perf_counter()
            with HostClock() as host:
                workload.clock = host.now
                setup_samples(workload, workload.setups_per_op)  # warm-up, not recorded
                while not ops or time.perf_counter() - start < args.seconds:
                    gc.collect()
                    setups += setup_samples(workload, workload.setups_per_op)
                    gc.collect()
                    ops.append(workload.op())
                    setups += ops[-1].setups
                speed = host.now() / (time.perf_counter() - start - host.pass_s)
            print(f"  host speed: {speed:.3f} of the reference over {host.passes} yardstick "
                  f"passes ({host.pass_s:.2f} s); times below are reference seconds")
            extra["setup_samples"] = setups
            extra["host_speed"] = speed
            units = dict(END_TO_END)
            rows = [(name, value, units[name], "")
                    for name, value in end_to_end(setups, ops).items()]
    finally:
        workload.cleanup()
    stamp = env_stamp()
    print("  env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    result = report(rows, ops, out / f"{stem}.json", {**extra, "env": stamp})
    declared = declared_metrics(args.trace)
    produced = [(name, unit) for name, _, unit, _ in rows]
    if result["correct"] and declared is not None and sorted(declared) != sorted(produced):
        mismatch = sorted(set(declared) ^ set(produced))
        print(f"perfbench: metrics differ from BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    summary = {}
    for name in ("paper-xgc", "synth-fanin-4k", "campaign-durable"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "error": f"exit {proc.returncode}"}
            status = status or 1
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
