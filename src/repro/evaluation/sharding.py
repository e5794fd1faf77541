"""Sharded/batched VM measurement for the overhead experiments (Figures 6/7).

The overhead figures execute every (program × obfuscation) variant in the VM
to collect dynamic cycle counts — the end-to-end bottleneck of the
evaluation, and until now a strictly serial loop.  Every cell is a pure
function of seeded inputs, so the matrix shards cleanly:

* :func:`shard_overhead_matrix` partitions the matrix deterministically —
  one shard per workload, in workload order, each shard carrying the full
  label row.  Keeping a workload's baseline and variants on one shard means
  no build is ever duplicated across workers and the baseline VM run is
  shared by every row of the shard;
* :class:`ShardBatch` is the per-shard measurement batch: it builds through
  the worker's :func:`~repro.evaluation.executor.worker_cache` (which, with
  ``REPRO_STORE_DIR`` set, attaches to the shared on-disk
  :class:`~repro.store.artifact_store.ArtifactStore` — a warm tree rebuilds
  nothing) and memoises one :func:`~repro.vm.machine.run_program` execution
  per distinct variant, so the compiled-dispatch VM state is reused instead
  of re-created when the same variant backs several rows (the baseline backs
  all of them);
* :func:`measure_overhead_sharded` fans the shards across the
  :mod:`~repro.evaluation.executor` pool and flattens the results in shard
  order — row-for-row identical to the serial loop, which stays the default
  (``jobs=1``) and the differential reference
  (``tests/test_sharding.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.variant_cache import variant_key
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..vm.batch import VMBatch
from ..vm.machine import ExecutionResult
from ..workloads.suites import WorkloadProgram
from .checkpoint import ShardRunStats, run_checkpointed
from .executor import worker_cache
from .overhead import OverheadReport, OverheadRow, build_variant

#: One unit of parallel work: a workload with its full label row.
OverheadShard = Tuple[WorkloadProgram, Tuple[str, ...], Optional[OptOptions]]


def shard_overhead_matrix(workloads: Sequence[WorkloadProgram],
                          labels: Sequence[str],
                          options: Optional[OptOptions] = None
                          ) -> List[OverheadShard]:
    """Deterministic partitioning of the (program × label) matrix.

    One shard per workload, in the caller's workload order; every shard
    carries the whole label tuple.  The partition depends only on the
    arguments, so any two schedulers (serial, ``jobs=2``, ``jobs=64``)
    produce the same shards and hence the same report rows.
    """
    return [(workload, tuple(labels), options) for workload in workloads]


class ShardBatch:
    """One shard's batched VM measurements against one cache.

    Builds go through ``cache`` (the worker's store-backed cache in the
    pool, any :class:`~repro.core.variant_cache.VariantCache` serially) and
    every execution routes through :meth:`VMBatch.run_many`: one interpreter
    per distinct variant drives the shard's whole ``input_sets`` batch, and
    results are memoised by the lowered binary's content digest — the
    baseline is executed once and its cycle count shared by every row, and
    artifacts revived from a warm store tree as distinct objects still
    dedupe, exactly like the serial loop.  The default ``input_sets``
    (one empty input vector) keeps rows bit-identical to the serial
    :func:`~repro.evaluation.overhead.measure_overhead` reference.
    """

    def __init__(self, workload: WorkloadProgram,
                 options: Optional[OptOptions], cache,
                 input_sets: Sequence[Sequence[int]] = ((),),
                 dispatch: Optional[str] = None):
        self.workload = workload
        self.options = options
        self.cache = cache
        self.input_sets = tuple(tuple(inputs) for inputs in input_sets)
        self.vm = VMBatch(dispatch=dispatch)

    def execute_many(self, label: str) -> List[ExecutionResult]:
        """Build (or fetch) the ``label`` variant and run the input batch."""
        artifact = build_variant(self.workload, label, self.options,
                                 self.cache)
        with obs_tracing.span("vm.measure", cat="measure",
                              workload=self.workload.name, label=label,
                              inputs=len(self.input_sets)):
            return self.vm.run_many(artifact.program, self.input_sets,
                                    binary=getattr(artifact, "binary", None))

    def execute(self, label: str) -> ExecutionResult:
        """The variant's first-input execution (the figure-driver row)."""
        return self.execute_many(label)[0]

    def rows(self, labels: Sequence[str]) -> List[OverheadRow]:
        baseline_cycles = self.execute("baseline").cycles
        return [OverheadRow(program=self.workload.name,
                            suite=self.workload.suite, label=label,
                            baseline_cycles=baseline_cycles,
                            cycles=self.execute(label).cycles)
                for label in labels]


def _overhead_shard(shard: OverheadShard) -> List[OverheadRow]:
    """Executor entry point: one workload's rows via the worker's cache."""
    workload, labels, options = shard
    with obs_tracing.span("shard.fig67", cat="measure",
                          workload=workload.name, labels=len(labels)):
        batch = ShardBatch(workload, options, worker_cache())
        return batch.rows(labels)


def measure_overhead_sharded(workloads: Sequence[WorkloadProgram],
                             labels: Sequence[str],
                             options: Optional[OptOptions] = None,
                             jobs: Optional[int] = None,
                             run_stats: Optional[ShardRunStats] = None
                             ) -> OverheadReport:
    """The figure-6/7 matrix through the sharded scheduler.

    Fans one shard per workload across the process pool (shards are
    workload-granular, so a workload's builds never split across workers)
    and concatenates the per-shard rows in shard order.  Bit-identical to
    :func:`~repro.evaluation.overhead.measure_overhead` run serially.

    With a shared store attached, every finished shard's row list is
    journaled under its value-based key (kind ``"shard"``): an interrupted
    run restarted over the same tree re-executes only unfinished workloads
    (``run_stats`` reports the resume accounting).
    """
    shards = shard_overhead_matrix(workloads, labels, options)
    keys = [("fig67shard", variant_key(workload, "baseline", options),
             tuple(labels)) for workload in workloads]
    report = OverheadReport()
    for rows in run_checkpointed(_overhead_shard, shards, keys,
                                 ("fig67", tuple(keys)), jobs=jobs,
                                 stats=run_stats):
        report.rows.extend(rows)
    return report
