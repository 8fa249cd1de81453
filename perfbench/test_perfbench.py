"""Fast checks of the benchmark itself, at its smallest inputs (--tiny).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.runtime.sim_driver import DyflowOrchestrator  # noqa: E402


def bench(capsys, tmp_path, *args):
    code = run.main([*args, "--tiny", "--seconds", "0", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def assert_printed(lines, metrics):
    for name, unit in metrics.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


def test_every_metric_is_printed_with_its_unit(capsys, tmp_path):
    code, lines, result = bench(capsys, tmp_path, "--workload", "synth-fanin-4k", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    want = declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert_printed(lines, {**want, "ops_failed_ratio": "ratio"})


def test_traced_run_prints_the_ledger_and_restores_every_wrapped_function(capsys, tmp_path):
    sites = tracing.binding_sites()
    start = DyflowOrchestrator.__dict__["start"]
    code, lines, result = bench(capsys, tmp_path, "--workload", "campaign-durable",
                                "--trace", "1", "--seed", "3")
    assert code == 0 and result["correct"]
    want = declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert_printed(lines, want)
    assert tracing.unrestored(sites) == []
    assert DyflowOrchestrator.__dict__["start"] is start
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["journal.append_calls"] > 0 and metrics["telemetry.spans"] > 0
    assert 0 < metrics["fabric.delivery_ratio"] < 1
    spans = (tmp_path / "campaign-durable-seed3-spans.jsonl").read_text().splitlines()
    assert len(spans) == metrics["trace.spans"]


def corrupt_reference(monkeypatch):
    monkeypatch.setitem(workloads.PINNED, ("xgc", "summit", 1), "0" * 64)
    return "summit: summit fingerprint"


def raise_before_tick_zero(monkeypatch):
    def broken_start(orch, *args, **kwargs):
        raise RuntimeError("preflight exploded")

    monkeypatch.setattr(DyflowOrchestrator, "start", broken_start)
    return "summit: RuntimeError: preflight exploded"


@pytest.mark.parametrize("breakage", [corrupt_reference, raise_before_tick_zero])
def test_corrupted_reference_fingerprint_fails_the_command(capsys, tmp_path, monkeypatch,
                                                           breakage):
    detail = breakage(monkeypatch)
    code, lines, result = bench(capsys, tmp_path, "--workload", "paper-xgc", "--seed", "1")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    ratio = next(line for line in lines if line.split()[:1] == ["ops_failed_ratio"])
    assert float(ratio.split()[1]) == 1.0
    assert any(f"CHECK FAILED: {detail}" in line for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-xgc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
