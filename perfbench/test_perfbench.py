"""Tests of the control-loop benchmark itself (not of the program it measures).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import loop  # noqa: E402
import refkernel  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

#: Smoke size: a handful of flows, a few forwarded datagrams each.
SMOKE = loop.Size(flows=12, datagrams_per_flow=3)

_FINGERPRINT = """
import json, sys
import loop
result = loop.run({workload!r}, {seed}, loop.Size(flows={flows}, datagrams_per_flow={per_flow}),
                  setups=1, reps=1, slice_s={slice_s!r})
e2e = loop.end_to_end(result)
print(json.dumps({{
    "counts": result.counts,
    "outcomes": [list(p.outcome()) for p in result.phases],
    "paths_per_flow": result.counts["apps.paths"] / result.flows_set_up,
    "sim_ms": [e2e[n][0] for n in ("flow_setup_sim_ms_p50", "flow_setup_sim_ms_p95", "flow_setup_sim_ms_mean")],
}}))
"""


def _clean_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in bench.MONITOR_ENV}
    env.update(extra)
    return env


def _fingerprint(workload: str, *, hashseed: int, slice_s: float | None) -> dict:
    code = _FINGERPRINT.format(
        workload=workload, seed=3, flows=SMOKE.flows, per_flow=SMOKE.datagrams_per_flow, slice_s=slice_s
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        env=_clean_env(PYTHONHASHSEED=str(hashseed)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(loop.WORKLOADS))
def test_counts_repeat_across_hash_seeds_and_slicing(workload):
    sliced = _fingerprint(workload, hashseed=0, slice_s=loop.SLICE_S)
    unsliced = _fingerprint(workload, hashseed=1, slice_s=None)
    for name in ("sim.events", "drivers.packet_ins", "drivers.flow_mods", "syscall.total"):
        assert sliced["counts"][name] == unsliced["counts"][name], name
    assert sliced == unsliced


@pytest.mark.parametrize("workload", sorted(loop.WORKLOADS))
def test_traced_run_reproduces_counts_and_attributes_its_time(workload, tmp_path):
    untraced = loop.run(workload, 3, SMOKE, setups=1, reps=1)
    traced, trace = spans.traced_run(workload, 3, SMOKE, tmp_path)
    assert spans.behaviour_changes(untraced, traced) == []
    assert loop.failures(untraced) == [] and loop.failures(traced) == []

    metrics = spans.layer_metrics(untraced, traced, trace)
    shares = [metrics[f"{layer}.self_share"][0] for layer in spans.LAYERS]
    unattributed = metrics["trace.unattributed_share"][0]
    assert sum(shares) + unattributed == pytest.approx(1.0, abs=1e-9)
    assert all(share >= 0.0 for share in shares)
    assert 0.0 <= unattributed < 0.2
    for name in ("host.ref_ms", "host.raw_flow_setups_per_s", "host.raw_delivered_pps"):
        assert metrics[name][0] > 0

    written = tmp_path / f"{workload}-seed3.spans"
    header = json.loads(written.read_bytes().split(b"\n", 1)[0])
    assert header["spans"] == trace.spans > 0


def test_tracer_restores_every_entry_point():
    before = {name: value for name, value in vars(loop.RouterDaemon).items()}
    syscalls = dict(vars(spans.Syscalls))
    with spans.Tracer():
        assert vars(spans.Syscalls)["read_text"] is not syscalls["read_text"]
    assert dict(vars(loop.RouterDaemon)) == before
    assert dict(vars(spans.Syscalls)) == syscalls


@pytest.mark.parametrize("workload", sorted(loop.WORKLOADS))
def test_seed_changes_the_matrix_not_the_flow_count(workload):
    hosts = [f"h{i}" for i in range(1, 17)]
    size = loop.size_for(loop.WORKLOADS[workload], 15)
    one = loop.plan(loop.WORKLOADS[workload], 1, size, hosts)
    two = loop.plan(loop.WORKLOADS[workload], loop.HELD_OUT_SEED, size, hosts)
    assert [len(m.flows) for _, m in one] == [len(m.flows) for _, m in two]
    assert all(len(m.flows) >= loop.MIN_FLOWS for name, m in one if name != "forward")
    assert [m.flows for _, m in one] != [m.flows for _, m in two]
    assert [m.flows for _, m in one] == [m.flows for _, m in loop.plan(loop.WORKLOADS[workload], 1, size, hosts)]


def test_reference_kernel_imports_nothing_from_repro():
    tree = ast.parse((HERE / "refkernel.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] in ("repro", "loop", "spans")]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, refkernel; refkernel.sample(); print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        cwd=HERE,
        env=_clean_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]", done.stderr


def test_reference_kernel_runs_with_gc_paused(monkeypatch):
    seen = []
    monkeypatch.setattr(refkernel, "kernel", lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    refkernel.sample()
    assert seen == [False]
    assert gc.isenabled()


def test_table_check_catches_a_lost_flow_mod():
    stack = loop.Stack(loop.WORKLOADS["flow_setup"], loop.Timer())
    assert stack.table_errors() == []
    switch = next(iter(stack.net.switches.values()))
    switch.table.remove_entry(switch.table.entries()[0])
    errors = stack.table_errors()
    assert len(errors) == 1 and stack.ctl.fs_name_of(switch.name) in errors[0]


def test_benchmark_json_names_what_the_code_emits():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(loop.WORKLOADS)
    assert [m["name"] for m in config["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in config["per_layer"]] == list(spans.PER_LAYER)


def test_refuses_to_run_under_a_runtime_monitor():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_setup", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        env=_clean_env(YANCSAN="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "YANCSAN" in done.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_setup", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=_clean_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
