"""Runtime-overhead experiments: Figure 6 and Figure 7.

Figure 6 reports the per-program runtime overhead of the five Khaos variants
on SPEC CPU 2006 and 2017; Figure 7 compares their geometric means against
the O-LLVM baselines (Sub, Bog, Fla, Fla-10).  Here "runtime" is the dynamic
cycle count of the interpreter (see DESIGN.md for the substitution), so the
columns are directly comparable between baseline and obfuscated builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.variant_cache import VariantCache, variant_key
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..toolchain import (KHAOS_LABELS, build_baseline, build_obfuscated,
                         obfuscator_for)
from ..utils import geometric_mean
from ..vm.machine import run_program
from ..workloads.suites import WorkloadProgram, spec2006_programs, spec2017_programs
from .checkpoint import ShardRunStats, run_checkpointed
from .executor import parallel_matrix, worker_cache


@dataclass
class OverheadRow:
    program: str
    suite: str
    label: str
    baseline_cycles: int
    cycles: int

    @property
    def overhead_percent(self) -> float:
        base = self.baseline_cycles or 1
        return (self.cycles - base) / base * 100.0


@dataclass
class OverheadReport:
    rows: List[OverheadRow] = field(default_factory=list)

    def labels(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.label not in seen:
                seen.append(row.label)
        return seen

    def programs(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.program not in seen:
                seen.append(row.program)
        return seen

    def overhead(self, program: str, label: str) -> Optional[float]:
        for row in self.rows:
            if row.program == program and row.label == label:
                return row.overhead_percent
        return None

    def geomean(self, label: str, suite: Optional[str] = None) -> float:
        values = [row.overhead_percent / 100.0 for row in self.rows
                  if row.label == label and (suite is None or row.suite == suite)]
        return geometric_mean(values) * 100.0


def build_variant(workload: WorkloadProgram, label: str,
                  options: Optional[OptOptions] = None,
                  cache: Optional[VariantCache] = None):
    """Build one variant of ``workload``, through ``cache`` when given.

    ``label`` is either ``"baseline"`` or an obfuscation label understood by
    :func:`~repro.toolchain.obfuscator_for`.  Builds are deterministic, so a
    cached artifact is bit-identical to a fresh build; cached artifacts are
    shared and must not be mutated (execute / diff / read only).
    """
    if label == "baseline":
        key_source = "baseline"
        builder = lambda: build_baseline(workload.build(), options)  # noqa: E731
    else:
        key_source = obfuscator_for(label)
        builder = lambda: build_obfuscated(  # noqa: E731
            workload.build(), key_source, options)

    def traced_builder():
        # the span covers only *fresh* builds — cache/store hits are already
        # visible as store.read spans and store.*_hits counters
        with obs_tracing.span("build.variant", cat="build",
                              workload=workload.name, label=label):
            artifact = builder()
        obs_metrics.counter("build.variants")
        return artifact

    if cache is None:
        return traced_builder()
    return cache.get_or_build(variant_key(workload, key_source, options),
                              traced_builder)


def measure_workload(workload: WorkloadProgram, labels: Sequence[str],
                     options: Optional[OptOptions] = None,
                     cache: Optional[VariantCache] = None) -> List[OverheadRow]:
    """One workload's row of the matrix: the unit of Figures 6/7.

    Builds the baseline and every ``labels`` variant through ``cache`` and
    executes each once in the VM; the baseline's cycle count is shared by
    every row.  The serial loop calls it with the caller's cache, the
    ``jobs > 1`` shard task with the worker's store-backed cache.
    """
    def cycles(label: str, artifact) -> int:
        with obs_tracing.span("vm.measure", cat="measure",
                              workload=workload.name, label=label):
            return run_program(artifact.program).cycles

    baseline_cycles = cycles(
        "baseline", build_variant(workload, "baseline", options, cache))
    return [OverheadRow(program=workload.name, suite=workload.suite,
                        label=label, baseline_cycles=baseline_cycles,
                        cycles=cycles(label, build_variant(
                            workload, label, options, cache)))
            for label in labels]


#: One unit of parallel work: a workload with its full label row.
OverheadShard = Tuple[WorkloadProgram, Tuple[str, ...], Optional[OptOptions]]


def _overhead_shard(shard: OverheadShard) -> List[OverheadRow]:
    """Executor entry point: one workload's rows via the worker's cache."""
    workload, labels, options = shard
    with obs_tracing.span("shard.fig67", cat="measure",
                          workload=workload.name, labels=len(labels)):
        return measure_workload(workload, labels, options, worker_cache())


def measure_overhead_sharded(workloads: Sequence[WorkloadProgram],
                             labels: Sequence[str],
                             options: Optional[OptOptions] = None,
                             jobs: Optional[int] = None,
                             run_stats: Optional[ShardRunStats] = None
                             ) -> OverheadReport:
    """The figure-6/7 matrix through the checkpointed scheduler.

    One shard per workload, in workload order, each carrying the whole label
    row, so a workload's builds never split across workers.  The per-shard
    rows are concatenated in shard order: bit-identical to the serial
    :func:`measure_overhead` loop at any ``jobs``.

    With a shared store attached, every finished shard's row list is
    journaled under its value-based key (kind ``"shard"``); the run identity
    does not depend on ``jobs``, so a run restarted at any width over the
    same tree re-executes only unfinished workloads (``run_stats`` reports
    the resume accounting).
    """
    shards = [(workload, tuple(labels), options) for workload in workloads]
    keys = [("fig67shard", variant_key(workload, "baseline", options),
             tuple(labels)) for workload in workloads]
    report = OverheadReport()
    for rows in run_checkpointed(_overhead_shard, shards, keys,
                                 ("fig67", tuple(keys)), jobs=jobs,
                                 stats=run_stats):
        report.rows.extend(rows)
    return report


def measure_overhead(workloads: Sequence[WorkloadProgram],
                     labels: Sequence[str] = KHAOS_LABELS,
                     options: Optional[OptOptions] = None,
                     cache: Optional[VariantCache] = None,
                     jobs: Optional[int] = None) -> OverheadReport:
    """Run every workload under the baseline and each obfuscation label.

    Passing a :class:`~repro.core.variant_cache.VariantCache` skips the build
    phase (obfuscate → optimize → lower) for variants already built by an
    earlier experiment; the VM measurement still executes every variant.

    ``jobs > 1`` (or ``REPRO_JOBS``) runs the same per-workload unit
    (:func:`measure_workload`) one task per workload across worker processes
    (:func:`measure_overhead_sharded`); workers build through their own
    store-backed caches, so a passed ``cache`` applies to serial runs only —
    and an *explicit* ``cache`` is never overridden by the ambient
    ``REPRO_JOBS`` (only an explicit ``jobs`` argument engages the executor
    then).  Row order and row contents are identical either way.
    """
    if parallel_matrix(jobs, cache):
        return measure_overhead_sharded(workloads, labels, options, jobs=jobs)
    report = OverheadReport()
    for workload in workloads:
        report.rows.extend(measure_workload(workload, labels, options, cache))
    return report


def figure6(limit: Optional[int] = None,
            options: Optional[OptOptions] = None,
            cache: Optional[VariantCache] = None,
            jobs: Optional[int] = None) -> OverheadReport:
    """Figure 6: Khaos overhead on the SPEC CPU 2006/2017 programs."""
    workloads = spec2006_programs() + spec2017_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_overhead(workloads, KHAOS_LABELS, options, cache,
                            jobs=jobs)


def figure7(limit: Optional[int] = None,
            options: Optional[OptOptions] = None,
            cache: Optional[VariantCache] = None,
            jobs: Optional[int] = None) -> OverheadReport:
    """Figure 7: O-LLVM (Sub/Bog/Fla/Fla-10) vs Khaos overhead."""
    workloads = spec2006_programs() + spec2017_programs()
    if limit is not None:
        workloads = workloads[:limit]
    labels = ("sub", "bog", "fla", "fla-10") + tuple(KHAOS_LABELS)
    return measure_overhead(workloads, labels, options, cache, jobs=jobs)
