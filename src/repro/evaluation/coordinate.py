"""Multi-worker coordination of the sharded experiment matrices.

The sharded fig8/9/10 drivers already reduce a matrix run to a
deterministic list of value-keyed shard units whose results live in the
shared :class:`~repro.store.artifact_store.ArtifactStore` — which means
"run this matrix on N machines" is pure scheduling: partition the shard
list, point every partition at the same store (a local tree today, a
``REPRO_STORE_URL`` server for a fleet), and merge the results through
the same :func:`~repro.evaluation.diff_sharding.merge_shard_results` /
``merge_partials`` contract the serial drivers use.  This module is that
scheduler:

* :func:`partition_round_robin` deals shard indices round-robin across
  ``workers`` partitions — deterministic, balanced (cells interleave
  instead of clustering), and independent of scheduling order;
* each partition executes as **one supervised task**
  (:func:`_coordinate_partition`): inside the worker process it runs its
  shard slice serially through
  :func:`~repro.evaluation.checkpoint.run_checkpointed` with the *same*
  run identity as the serial sharded driver, so all partitions journal
  into one shared run manifest (``O_APPEND``-interleaved by design).  A
  partition killed mid-flight re-executes only its unjournaled shards —
  the supervisor's retry and the checkpoint layer compose;
* results reassemble in shard order and merge exactly like the serial
  path, so a coordinated run is **bit-identical** to the serial driver
  over the same matrix (``tests/test_coordinate.py`` asserts it), and a
  warm rerun — local or remote — re-scores zero units.

Workers are processes on this machine today; because every unit of state
they share lives behind the store (objects, journals, telemetry), the
same partitioning runs on remote-store-attached hosts tomorrow — each
host runs its partition list against ``REPRO_STORE_URL`` and the merge
happens wherever the journal-complete shard results are read back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..diffing import all_differs
from ..diffing.base import BinaryDiffer
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.collect import open_run
from ..opt.pass_manager import OptOptions
from ..store.artifact_store import store_dir_from_env
from ..toolchain import ALL_LABELS
from ..workloads.suites import WorkloadProgram
from .bintuner_compare import BinTunerReport
from .checkpoint import ShardRunStats, run_checkpointed, run_id
from .diff_sharding import (DiffShardStats, MergedCell, _diff_shard,
                            _bintuner_shard, _normalize_resumed,
                            bintuner_report_from_results, bintuner_shard_key,
                            diff_shard_key, escape_report_from_cells,
                            merge_shard_results, precision_report_from_cells,
                            shard_bintuner_matrix, shard_diff_matrix)
from .escape import ESCAPE_LABELS, EscapeReport, escape_differs
from .executor import resolve_positive_int, run_tasks
from .precision import PrecisionReport

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Default worker (partition) count.  Override with ``REPRO_COORD_WORKERS``
#: or the ``workers`` argument.
DEFAULT_WORKERS = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """Coordinator width: explicit, else ``REPRO_COORD_WORKERS``, else 2."""
    return resolve_positive_int(workers, "REPRO_COORD_WORKERS",
                                DEFAULT_WORKERS, "workers")


def partition_round_robin(count: int, workers: int) -> List[List[int]]:
    """Deal ``count`` shard indices across ``workers`` partitions.

    Partition ``k`` takes indices ``k, k + workers, k + 2·workers, ...`` —
    matrix cells interleave across workers instead of one worker getting a
    whole workload's (expensive) cells.  Empty partitions are dropped, so
    ``workers > count`` degrades gracefully.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    parts = [list(range(k, count, workers)) for k in range(workers)]
    return [part for part in parts if part]


@dataclass
class CoordinatorStats:
    """Partitioning + resume accounting of one coordinated run."""

    workers: int = 0
    #: shard-unit counts per (non-empty) partition, in partition order
    partitions: List[int] = field(default_factory=list)
    planned: int = 0
    resumed: int = 0
    executed: int = 0
    journaled: int = 0

    def add_run(self, run_stats: Dict[str, int]) -> None:
        self.planned += run_stats.get("planned", 0)
        self.resumed += run_stats.get("resumed", 0)
        self.executed += run_stats.get("executed", 0)
        self.journaled += run_stats.get("journaled", 0)

    def as_dict(self) -> Dict[str, object]:
        return {"workers": self.workers, "partitions": list(self.partitions),
                "planned": self.planned, "resumed": self.resumed,
                "executed": self.executed, "journaled": self.journaled}


#: One partition's picklable work order:
#: (task_fn, tasks, keys, run_parts, normalize).
_PartitionPayload = Tuple[Callable, List, List, object, Optional[Callable]]


def _coordinate_partition(payload: _PartitionPayload
                          ) -> Tuple[List, Dict[str, int]]:
    """Worker entry point: run one partition's shards serially, journaled.

    Runs under the supervised executor, so worker-side chaos (crash, hang)
    applies at partition granularity; the inner ``run_checkpointed`` call
    journals each completed shard into the run's shared manifest, so a
    retried partition revives everything its previous incarnation finished.
    """
    task_fn, tasks, keys, run_parts, normalize = payload
    stats = ShardRunStats()
    with obs_tracing.span("coordinate.partition", cat="coordinate",
                          shards=len(tasks)):
        results = run_checkpointed(task_fn, tasks, keys, run_parts, jobs=1,
                                   normalize=normalize, stats=stats)
    return results, stats.as_dict()


def coordinate_tasks(task_fn: Callable[[Task], Result],
                     tasks: Sequence[Task], task_keys: Sequence[object],
                     run_parts: object, workers: Optional[int] = None,
                     normalize: Optional[Callable[[Result], Result]] = None,
                     stats: Optional[CoordinatorStats] = None
                     ) -> List[Result]:
    """Partition a shard list across workers; results come back in order.

    The coordinated analogue of
    :func:`~repro.evaluation.checkpoint.run_checkpointed` — same task/key
    discipline, same ``run_parts`` identity (so serial and coordinated
    runs of one matrix share a journal and resume each other's work),
    but each worker owns a whole partition instead of single tasks.
    """
    tasks = list(tasks)
    keys = list(task_keys)
    if len(tasks) != len(keys):
        raise ValueError(
            f"coordinate_tasks: {len(tasks)} tasks but {len(keys)} keys")
    width = resolve_workers(workers)
    parts = partition_round_robin(len(tasks), width)
    identity = run_id(run_parts)
    if stats is not None:
        stats.workers = width
        stats.partitions = [len(part) for part in parts]
    obs_metrics.counter("coordinator.runs")
    obs_metrics.counter("coordinator.partitions", len(parts))
    obs_metrics.counter("coordinator.units", len(tasks))
    payloads: List[_PartitionPayload] = [
        (task_fn, [tasks[i] for i in part], [keys[i] for i in part],
         run_parts, normalize)
        for part in parts]
    # the telemetry run wraps the whole coordinated matrix; partition
    # workers inherit it through the environment and flush into its shard
    # files, exactly like executor tasks do
    with open_run(store_dir_from_env(), identity):
        with obs_tracing.span("coordinate", cat="coordinate",
                              run_id=identity, workers=len(parts),
                              units=len(tasks)):
            outcomes = run_tasks(_coordinate_partition, payloads,
                                 jobs=max(1, len(parts)))
    results: List[object] = [None] * len(tasks)
    for part, (part_results, run_stats) in zip(parts, outcomes):
        for offset, index in enumerate(part):
            results[index] = part_results[offset]
        if stats is not None:
            stats.add_run(run_stats)
    return results  # type: ignore[return-value]


# -- figure 8/10: coordinated function-granularity diff matrices ----------------------


def coordinate_diff_cells(workloads: Sequence[WorkloadProgram],
                          labels: Sequence[str],
                          differs: Sequence[BinaryDiffer],
                          options: Optional[OptOptions] = None,
                          workers: Optional[int] = None,
                          shards_per_cell: Optional[int] = None,
                          stats: Optional[DiffShardStats] = None,
                          coord_stats: Optional[CoordinatorStats] = None
                          ) -> List[MergedCell]:
    """The coordinated analogue of ``_merged_cells``: same shards, same
    keys, same run identity, same merge — different scheduler."""
    shards = shard_diff_matrix(workloads, labels, differs, options,
                               shards_per_cell)
    keys = [diff_shard_key(shard) for shard in shards]
    results = coordinate_tasks(_diff_shard, shards, keys,
                               ("fig8-10", tuple(keys)), workers=workers,
                               normalize=_normalize_resumed,
                               stats=coord_stats)
    return merge_shard_results(workloads, labels, differs, shards, results,
                               stats)


def measure_precision_coordinated(workloads: Sequence[WorkloadProgram],
                                  labels: Sequence[str] = ALL_LABELS,
                                  differs: Optional[Sequence[BinaryDiffer]]
                                  = None,
                                  options: Optional[OptOptions] = None,
                                  workers: Optional[int] = None,
                                  shards_per_cell: Optional[int] = None,
                                  stats: Optional[DiffShardStats] = None,
                                  coord_stats: Optional[CoordinatorStats]
                                  = None) -> PrecisionReport:
    """Figure 8 across N workers — bit-identical to the serial drivers."""
    differs = list(differs) if differs is not None else all_differs()
    return precision_report_from_cells(coordinate_diff_cells(
        workloads, labels, differs, options, workers, shards_per_cell,
        stats, coord_stats))


def measure_escape_coordinated(workloads: Sequence[WorkloadProgram],
                               labels: Sequence[str] = ESCAPE_LABELS,
                               differs: Optional[Sequence[BinaryDiffer]]
                               = None,
                               options: Optional[OptOptions] = None,
                               workers: Optional[int] = None,
                               shards_per_cell: Optional[int] = None,
                               stats: Optional[DiffShardStats] = None,
                               coord_stats: Optional[CoordinatorStats] = None
                               ) -> EscapeReport:
    """Figure 10 across N workers — bit-identical to the serial drivers."""
    differs = list(differs) if differs is not None else escape_differs()
    vulnerable_workloads = [w for w in workloads if w.vulnerable_functions]
    return escape_report_from_cells(coordinate_diff_cells(
        vulnerable_workloads, labels, differs, options, workers,
        shards_per_cell, stats, coord_stats))


# -- figure 9: coordinated binary-pair shards -----------------------------------------


def measure_bintuner_coordinated(workloads: Sequence[WorkloadProgram],
                                 tuner_iterations: int = 6,
                                 workers: Optional[int] = None,
                                 coord_stats: Optional[CoordinatorStats]
                                 = None) -> BinTunerReport:
    """Figure 9 across N workers — bit-identical to the serial drivers."""
    shards = shard_bintuner_matrix(workloads, tuner_iterations)
    keys = [bintuner_shard_key(shard) for shard in shards]
    results = coordinate_tasks(_bintuner_shard, shards, keys,
                               ("fig9", tuple(keys)), workers=workers,
                               stats=coord_stats)
    return bintuner_report_from_results(workloads, results)
