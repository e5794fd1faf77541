"""The benchmark's own test: each layer wrapper fires on the workload meant
to exercise it and reads zero where the layer map predicts it is bypassed,
and a traced repetition computes the same rows as an untraced one.

Every workload runs one untraced and one traced repetition of its real draw
(seed 1), each in a fresh interpreter, through ``perfbench/run.py``'s own
functions.  The host-speed sampler that scales the reported times is tested
on its own: its window median, and that it logs until it is stopped.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hostspeed
from perfbench.run import (ROOT, child_env, emit, repetition, start_sampler,
                           step)

BUILD = ("workloads.build_calls", "core.obfuscate_calls",
         "baselines.obfuscate_calls", "opt.optimize_calls",
         "backend.lower_calls", "opt.ir_instructions",
         "backend.binary_instructions")
VM = ("vm.run_calls", "vm.steps", "vm.run_s")
DIFF = ("diffing.diff_calls", "diffing.features_calls", "diffing.bindiff_s",
        "diffing.vulseeker_s", "diffing.asm2vec_s", "diffing.safe_s",
        "diffing.deepbindiff_s")
STORE_READ = ("store.get_calls", "store.hits", "store.bytes_read")
STORE_WRITE = ("store.put_calls", "store.bytes_written")
SCHEDULE = ("evaluation.run_tasks_s", "evaluation.tasks",
            "evaluation.worker_busy_s")
GC = ("gc.collections",)

#: workload -> (layer metrics that must be positive, that must be zero)
PREDICTIONS = {
    "precision": (BUILD + DIFF + GC,
                  VM + STORE_READ + STORE_WRITE + SCHEDULE),
    "precision_jobs2": (BUILD + DIFF + STORE_WRITE + SCHEDULE + GC, VM),
    "overhead_warm": (VM + STORE_READ + GC,
                      BUILD + DIFF + STORE_WRITE + SCHEDULE),
}


def _repetitions(workload: str, tmp_path: Path) -> tuple:
    """An untraced and a traced repetition, as ``run.py`` runs them."""
    args = argparse.Namespace(workload=workload, seed=1)
    warm_tree = None
    if workload == "overhead_warm":
        warm_tree = tmp_path / "warm"
        step({"phase": "populate", "workload": workload, "seed": 1,
              "tree": str(warm_tree)}, tmp_path, child_env(tmp_path))
    return (repetition(args, tmp_path, 0, False, warm_tree),
            repetition(args, tmp_path, 1, True, warm_tree))


@pytest.mark.parametrize("workload", sorted(PREDICTIONS))
def test_layers_fire_where_predicted(workload, tmp_path):
    plain, traced = _repetitions(workload, tmp_path)
    assert traced["rows"] == plain["rows"]
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    positive, zero = PREDICTIONS[workload]
    assert {name: layers[name] for name in positive
            if layers[name] <= 0} == {}
    assert {name: layers[name] for name in zero if layers[name] != 0} == {}
    assert layers["store.quarantined"] == 0
    if workload == "overhead_warm":
        assert layers["store.misses"] == 0
    assert (plain["store_mb"] > 0) == (workload in ("precision_jobs2",
                                                    "overhead_warm"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "precision",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


def test_unmeasured_metric_still_prints_an_incorrect_result(capsys):
    emit(True, 6, 3, [{"name": "vm.run_s", "unit": "s"}], {})
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
        "correct": False, "attempted": 6, "failed": 3,
        "metrics": {"vm.run_s": {"value": 0.0, "unit": "s"}}}


def test_host_speed_is_the_reference_over_the_window_median():
    slow = hostspeed.REFERENCE_S * 2
    samples = [(float(at), slow if 10 <= at <= 30 else hostspeed.REFERENCE_S)
               for at in range(100)]
    assert hostspeed.speed(samples, 10.0, 30.0) == pytest.approx(0.5)
    assert hostspeed.speed(samples, 50.0, 90.0) == pytest.approx(1.0)
    # a window with fewer samples than MIN_SAMPLES takes the nearest ones
    assert hostspeed.speed(samples, 20.0, 20.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.speed(samples[:3], 0.0, 3.0)


def test_sampler_logs_until_stopped(tmp_path):
    log = tmp_path / "hostspeed.log"
    sampler = start_sampler(log)
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and (
                not log.exists()
                or len(hostspeed.read_log(log)) < hostspeed.MIN_SAMPLES):
            time.sleep(0.1)
    finally:
        sampler.kill()
        sampler.wait(timeout=10)
    samples = hostspeed.read_log(log)
    assert len(samples) >= hostspeed.MIN_SAMPLES
    assert all(loop > 0 for _at, loop in samples)
