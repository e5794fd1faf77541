"""Figure 9's serial per-workload loop, kept as the bit-identity oracle.

:func:`~repro.evaluation.bintuner_compare.measure_bintuner` runs the
binary-pair shards of :mod:`repro.evaluation.diff_sharding` at every width;
this module keeps the whole-workload loop it replaced — storeless, no
scheduler, every binary built afresh — so tests can check the shards
reassemble exactly its rows and overhead geomean.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.backend.lowering import lower_program
from repro.baselines.bintuner import BinTuner
from repro.diffing.bindiff import BinDiff
from repro.evaluation.bintuner_compare import (OPT_LEVELS, BinTunerReport,
                                               SimilarityRow)
from repro.opt.pass_manager import OptOptions
from repro.opt.pipelines import optimize_program
from repro.toolchain import build_obfuscated, obfuscator_for
from repro.utils import geometric_mean
from repro.vm.machine import run_program
from repro.workloads.suites import WorkloadProgram


def _bintuner_task(workload: WorkloadProgram, tuner_iterations: int
                   ) -> Tuple[List[SimilarityRow], float]:
    """Tune, obfuscate and diff one workload against every opt level.

    Returns the workload's similarity rows plus its BinTuner overhead factor
    against the O2+LTO baseline.
    """
    differ = BinDiff()
    rows: List[SimilarityRow] = []

    level_binaries = {}
    for level in OPT_LEVELS:
        options = OptOptions(level=level, lto=level >= 2)
        level_binaries[level] = lower_program(
            optimize_program(workload.build(), options))

    tuner = BinTuner(iterations=tuner_iterations)
    tuned = tuner.tune(workload.build())
    khaos = build_obfuscated(workload.build(), obfuscator_for("fufi.all"))

    for level in OPT_LEVELS:
        reference = level_binaries[level]
        rows.append(SimilarityRow(
            program=workload.name, protection="bintuner", opt_level=level,
            similarity=differ.diff(reference, tuned.best_binary).similarity_score))
        rows.append(SimilarityRow(
            program=workload.name, protection="khaos", opt_level=level,
            similarity=differ.diff(reference, khaos.binary).similarity_score))

    baseline_run = run_program(optimize_program(workload.build(), OptOptions()))
    tuned_run = run_program(optimize_program(workload.build(),
                                             tuned.best_options))
    base = baseline_run.cycles or 1
    return rows, (tuned_run.cycles - base) / base


def serial_bintuner_report(workloads: Sequence[WorkloadProgram],
                           tuner_iterations: int = 6) -> BinTunerReport:
    """Figure 9 by the serial loop: rows and overhead geomean in workload
    order."""
    report = BinTunerReport()
    overheads: List[float] = []
    for workload in workloads:
        rows, overhead = _bintuner_task(workload, tuner_iterations)
        report.rows.extend(rows)
        overheads.append(overhead)
    report.bintuner_overhead_percent = geometric_mean(overheads) * 100.0
    return report
