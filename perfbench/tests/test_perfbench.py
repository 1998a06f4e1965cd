"""The benchmark's own checks: determinism, seeding, a held-out seed.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They take about two minutes: each runs one small unit of worlds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worlds  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layertrace import LAYERS, LayerTracer  # noqa: E402

#: Never used while the benchmark was written or tuned.
HELD_OUT_SEED = 20261017

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def _declared(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def _printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_same_seed_gives_identical_digest_and_service_metrics():
    unit = worlds.make_units("paper-lan-wan", 3, 1)[0]
    first = [worlds.run_world(w, True, HostSpeed()) for w in unit]
    second = [worlds.run_world(w, True, HostSpeed()) for w in unit]
    assert run.digest(first) == run.digest(second)
    assert run.service_summary(first) == run.service_summary(second)
    assert run.sum_counters(first) == run.sum_counters(second)


def test_a_different_seed_changes_the_arrival_schedule():
    def schedule(seed):
        return worlds.make_units("vcr-storm-64", seed, 1)[0][0].arrival_times()

    assert schedule(1) == schedule(1)
    assert schedule(1) != schedule(2)
    assert len(schedule(1)) == worlds.STORM_SPEC.workload.n_viewers
    # Consecutive units of one run are distinct worlds too.
    first, second = worlds.make_units("vcr-storm-64", 1, 2)
    assert first[0].arrival_times() != second[0].arrival_times()


@pytest.mark.parametrize("workload", sorted(worlds.WORKLOADS))
def test_a_held_out_seed_runs_clean(workload):
    done = _cli("--workload", workload, "--seed", str(HELD_OUT_SEED),
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    assert "invariant violation" not in done.stdout
    assert _printed(result) == _declared("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_the_traced_run_prints_every_per_layer_metric():
    done = _cli("--workload", "paper-lan-wan", "--seed", str(HELD_OUT_SEED),
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert _printed(result) == _declared("per_layer")
    assert result["metrics"]["trace.overhead"]["value"] > 1.0


def test_the_tracer_partitions_time_and_does_not_perturb():
    world = worlds.World("lan", 5)
    plain = worlds.run_world(world, True, HostSpeed(share=0.0))
    tracer = LayerTracer(max_spans=1000)
    tracer.start()
    try:
        traced = worlds.run_world(world, True, HostSpeed(share=0.0))
    finally:
        tracer.stop()
    assert run.digest([plain]) == run.digest([traced])
    table = tracer.layer_table()
    assert abs(sum(row["self_share"] for row in table.values()) - 1.0) < 1e-9
    for layer in ("sim", "net", "gcs", "server", "client", "telemetry"):
        assert table[layer]["calls"] > 0 and table[layer]["self_s"] > 0
    assert set(LAYERS) < set(table)
    assert tracer.events == plain.events
    assert len(tracer.span_id) == 1000 < tracer.spans_total


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _cli("--workload", "paper-lan-wan", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
