"""Function-granularity sharding of the diffing matrices (Figures 8/9/10).

The diffing-side experiments score (program × obfuscation × tool) cells whose
expensive phase — pairwise function diffing over per-binary
:class:`~repro.diffing.index.FeatureIndex` objects — previously could not be
split below a whole cell.  Every tool now exposes a partial-result contract
(:class:`~repro.diffing.base.PartialDiff`): one source function's candidate
ranking is a pure function of (tool config, baseline variant, obfuscated
variant, source function), so the matrix shards *below* the cell:

* :func:`shard_diff_matrix` partitions each cell deterministically into
  ``shards_per_cell`` modular slices over the pair's source functions (shard
  ``k`` scores units ``k, k+N, k+2N, ...`` in roster order) — tools whose
  scoring is not pairwise-decomposable (DeepBinDiff,
  ``shard_granularity == "binary"``) fall back to one whole-pair shard;
* :func:`_diff_shard` is the executor task: it attaches to the shared
  :class:`~repro.store.artifact_store.ArtifactStore` through
  :func:`~repro.evaluation.executor.worker_cache`, adopts persisted
  ``FeatureIndex`` payloads (building and persisting them on miss), scores
  its pair set through :meth:`~repro.diffing.base.BinaryDiffer.partial_diff`
  and persists every unit's outcome under its stable per-function shard key
  (kind ``"diff"``, :mod:`repro.store.diff_payloads`).  A fully warm shard
  never unpickles a binary, extracts a feature or scores a pair — it is pure
  store reads, local or through a remote store server;
* the merge layer (:func:`_merged_cells` +
  :meth:`~repro.diffing.base.BinaryDiffer.merge_partials`) deterministically
  reassembles each cell's :class:`~repro.diffing.base.DiffResult` and report
  rows **bit-identical** to the serial cell loops
  (:func:`~repro.evaluation.precision.measure_precision`,
  :func:`~repro.evaluation.escape.measure_escape`), which remain the
  storeless differential references (``tests/test_diff_sharding.py``).

Figure 9's unit stays the binary pair (its row value is the whole-binary
similarity score and its dominant cost is the BinTuner option search, not a
single diff): :func:`measure_bintuner_sharded` splits each workload into one
shard per protection scheme, each diffing its protected binary against the
four store-keyed opt-level references.  It is Figure 9's only driver at every
width; its per-workload oracle lives in ``tests/test_diff_sharding.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.bintuner import BinTuner
from ..core.variant_cache import variant_key
from ..diffing import all_differs, rank_of_correct
from ..diffing.base import BinaryDiffer, DiffResult, PartialDiff
from ..diffing.bindiff import BinDiff
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..opt.pipelines import optimize_program
from ..store.artifact_store import KIND_DIFF
from ..store.diff_payloads import (diff_pair_key, load_roster, load_unit,
                                   load_whole, persist_roster, persist_unit,
                                   persist_whole, unit_key)
from ..store.feature_payloads import persist_features, warm_features
from ..toolchain import ALL_LABELS, obfuscator_for
from ..utils import geometric_mean
from ..vm.machine import run_program
from ..workloads.suites import WorkloadProgram
from .bintuner_compare import OPT_LEVELS, BinTunerReport, SimilarityRow
from .checkpoint import ShardRunStats, run_checkpointed
from .escape import ESCAPE_LABELS, EscapeReport, EscapeRow, escape_differs
from .executor import resolve_positive_int, rooted_store, worker_cache
from .overhead import build_variant
from .precision import PrecisionReport, PrecisionRow

#: Default modular slices per function-granularity cell.  Override with
#: ``REPRO_DIFF_SHARDS`` or the ``shards_per_cell`` argument.
DEFAULT_SHARDS_PER_CELL = 2


def resolve_diff_shards(shards_per_cell: Optional[int] = None) -> int:
    """Shard count per cell: explicit, else ``REPRO_DIFF_SHARDS``, else 2.

    Like :func:`~repro.evaluation.executor.resolve_jobs`, anything that is
    not a positive integer raises :class:`ValueError` at entry.
    """
    return resolve_positive_int(shards_per_cell, "REPRO_DIFF_SHARDS",
                                DEFAULT_SHARDS_PER_CELL, "shards_per_cell")


#: One unit of parallel diff work: modular slice ``index`` of ``count`` over
#: the source functions of one (workload, label, tool) cell.
DiffShard = Tuple[WorkloadProgram, str, BinaryDiffer, Optional[OptOptions],
                  int, int]


def shard_diff_matrix(workloads: Sequence[WorkloadProgram],
                      labels: Sequence[str],
                      differs: Sequence[BinaryDiffer],
                      options: Optional[OptOptions] = None,
                      shards_per_cell: Optional[int] = None
                      ) -> List[DiffShard]:
    """Deterministic partition of the diff matrix below cell granularity.

    Cells are emitted in the serial drivers' loop order (workload-major,
    then label, then tool); each function-granularity cell yields
    ``shards_per_cell`` modular slices, each binary-granularity cell one
    whole-pair shard.  The partition depends only on the arguments, so any
    two schedulers produce the same shards and hence the same merged rows.
    """
    count = resolve_diff_shards(shards_per_cell)
    shards: List[DiffShard] = []
    for workload in workloads:
        for label in labels:
            for differ in differs:
                per_cell = count if differ.shard_granularity == "function" else 1
                for index in range(per_cell):
                    shards.append((workload, label, differ, options,
                                   index, per_cell))
    return shards


@dataclass
class DiffShardResult:
    """One shard's mergeable outcome, picklable across process boundaries."""

    shard_index: int
    shard_count: int
    partial: PartialDiff
    #: 1-based provenance rank of the correct match per scored unit.
    ranks: Dict[str, Optional[int]]
    units_scored: int = 0
    units_from_store: int = 0
    features_adopted: int = 0
    features_persisted: int = 0
    diff_payloads_persisted: int = 0


@dataclass
class DiffShardStats:
    """Aggregated shard counters — the zero-rebuild assertions read these."""

    shards: int = 0
    units_total: int = 0
    units_scored: int = 0
    units_from_store: int = 0
    features_adopted: int = 0
    features_persisted: int = 0
    diff_payloads_persisted: int = 0

    def add(self, result: DiffShardResult) -> None:
        self.shards += 1
        self.units_total += len(result.partial.sources)
        self.units_scored += result.units_scored
        self.units_from_store += result.units_from_store
        self.features_adopted += result.features_adopted
        self.features_persisted += result.features_persisted
        self.diff_payloads_persisted += result.diff_payloads_persisted

    def as_dict(self) -> Dict[str, int]:
        return {
            "shards": self.shards,
            "units_total": self.units_total,
            "units_scored": self.units_scored,
            "units_from_store": self.units_from_store,
            "features_adopted": self.features_adopted,
            "features_persisted": self.features_persisted,
            "diff_payloads_persisted": self.diff_payloads_persisted,
        }


def _diff_shard(shard: DiffShard) -> DiffShardResult:
    """Executor entry point: score (or adopt) one shard's pair set."""
    workload, label, differ, _options, index, count = shard
    with obs_tracing.span("shard.diff", cat="diff", workload=workload.name,
                          label=label, tool=differ.info.name, slice=index,
                          count=count):
        return _diff_shard_impl(shard)


def _diff_shard_impl(shard: DiffShard) -> DiffShardResult:
    workload, label, differ, options, index, count = shard
    cache = worker_cache()
    store = rooted_store(cache)
    granular = differ.shard_granularity == "function"
    baseline_key = variant_key(workload, "baseline", options)
    label_key = variant_key(workload, obfuscator_for(label), options)
    pair_key = diff_pair_key(differ, baseline_key, label_key) \
        if store is not None else None

    result = DiffShardResult(shard_index=index, shard_count=count,
                             partial=None, ranks={})  # type: ignore[arg-type]
    roster = load_roster(store, pair_key) if store is not None else None
    baseline = variant = None

    def built_pair():
        nonlocal baseline, variant
        if baseline is None:
            baseline = build_variant(workload, "baseline", options, cache)
            variant = build_variant(workload, label, options, cache)
        return baseline, variant

    if roster is None:
        base, var = built_pair()
        roster = {
            "units": tuple(differ.shard_units(base.binary)),
            "original": base.binary.name, "obfuscated": var.binary.name,
            "original_functions": len(base.binary.functions),
            "obfuscated_functions": len(var.binary.functions),
        }
        if store is not None:
            persist_roster(store, pair_key, roster["units"],
                           roster["original"], roster["obfuscated"],
                           roster["original_functions"],
                           roster["obfuscated_functions"])
    units: Tuple[str, ...] = tuple(roster["units"])

    if not granular:
        payload = load_whole(store, pair_key) if store is not None else None
        if payload is not None and set(payload["matches"]) == set(units):
            result.partial = PartialDiff(
                tool=differ.name, original=roster["original"],
                obfuscated=roster["obfuscated"], units=units, sources=units,
                matches=payload["matches"],
                original_functions=roster["original_functions"],
                obfuscated_functions=roster["obfuscated_functions"],
                similarity_score=payload["similarity_score"])
            result.ranks = dict(payload["ranks"])
            result.units_from_store = len(units)
            return result
        base, var = built_pair()
        result.features_adopted = _warm_pair_features(
            store, baseline_key, label_key, base, var)
        partial = differ.partial_diff(base.binary, var.binary)
        result.partial = partial
        result.ranks = {unit: rank_of_correct(partial.matches.get(unit, []),
                                              unit, var.provenance)
                        for unit in units}
        result.units_scored = len(units)
        if store is not None:
            result.features_persisted = _persist_pair_features(
                store, baseline_key, label_key, base, var)
            persist_whole(store, pair_key, partial.matches,
                          partial.similarity_score, result.ranks)
            result.diff_payloads_persisted = 1
        return result

    mine = units[index::count]
    if store is not None:
        # a warm remote shard would otherwise pay one round trip per unit;
        # coalesce them into batch fetches (no-op on local/storeless paths)
        store.prefetch(KIND_DIFF, [unit_key(pair_key, unit)
                                   for unit in mine])
    stored: Dict[str, Dict] = {}
    missing: List[str] = []
    for unit in mine:
        payload = load_unit(store, pair_key, unit) if store is not None else None
        if payload is None:
            missing.append(unit)
        else:
            stored[unit] = payload
    fresh: Optional[PartialDiff] = None
    if missing:
        base, var = built_pair()
        result.features_adopted = _warm_pair_features(
            store, baseline_key, label_key, base, var)
        fresh = differ.partial_diff(base.binary, var.binary, tuple(missing))
        if store is not None:
            result.features_persisted = _persist_pair_features(
                store, baseline_key, label_key, base, var)
    matches: Dict[str, list] = {}
    channels: Dict[str, Dict[str, list]] = {}
    for unit in mine:
        if unit in stored:
            payload = stored[unit]
            matches[unit] = payload["ranked"]
            unit_channels = payload["channels"]
            rank = payload["rank"]
        else:
            matches[unit] = fresh.matches[unit]
            unit_channels = {name: ranked[unit]
                            for name, ranked in fresh.channels.items()}
            rank = rank_of_correct(matches[unit], unit,
                                   built_pair()[1].provenance)
            if store is not None:
                persist_unit(store, pair_key, unit, matches[unit],
                             unit_channels, rank)
                result.diff_payloads_persisted += 1
        for name, ranked in unit_channels.items():
            channels.setdefault(name, {})[unit] = ranked
        result.ranks[unit] = rank
    result.units_scored = len(missing)
    result.units_from_store = len(stored)
    result.partial = PartialDiff(
        tool=differ.name, original=roster["original"],
        obfuscated=roster["obfuscated"], units=units, sources=mine,
        matches=matches, channels=channels,
        original_functions=roster["original_functions"],
        obfuscated_functions=roster["obfuscated_functions"])
    return result


def _warm_pair_features(store, baseline_key, label_key, baseline, variant) -> int:
    """Adopt both binaries' persisted ``FeatureIndex`` payloads; count them."""
    if store is None:
        return 0
    return (warm_features(store, baseline_key, baseline.binary)
            + warm_features(store, label_key, variant.binary))


def _persist_pair_features(store, baseline_key, label_key, baseline,
                           variant) -> int:
    """Persist both binaries' feature payloads; count the writes."""
    written = 0
    if persist_features(store, baseline_key, baseline.binary) is not None:
        written += 1
    if persist_features(store, label_key, variant.binary) is not None:
        written += 1
    return written


#: One merged cell: (workload, label, differ, unit roster, DiffResult, ranks).
MergedCell = Tuple[WorkloadProgram, str, BinaryDiffer, Tuple[str, ...],
                   DiffResult, Dict[str, Optional[int]]]


def diff_shard_key(shard: DiffShard) -> Tuple:
    """The value-based checkpoint identity of one diff shard.

    Built from the same ingredients as the per-unit diff payload keys (tool
    config × variant keys × modular slice), so it is stable across
    processes, machines and schedulers — which is what lets an interrupted
    run resume and two overlapping matrices (fig8 and fig10 share cells)
    reuse each other's journaled shards.
    """
    workload, label, differ, options, index, count = shard
    return ("diffshard", differ.cache_key(),
            variant_key(workload, "baseline", options),
            variant_key(workload, obfuscator_for(label), options),
            index, count)


def _normalize_resumed(result: DiffShardResult) -> DiffShardResult:
    """Rewrite a revived shard's counters as the pure store read it was.

    A resumed shard scored nothing, adopted no features and persisted
    nothing in *this* run — exactly like a fully warm shard — so the
    zero-rebuild stats assertions hold across a resume.
    """
    return replace(result, units_scored=0,
                   units_from_store=len(result.partial.sources),
                   features_adopted=0, features_persisted=0,
                   diff_payloads_persisted=0)


def _merged_cells(workloads: Sequence[WorkloadProgram],
                  labels: Sequence[str],
                  differs: Sequence[BinaryDiffer],
                  options: Optional[OptOptions],
                  jobs: Optional[int],
                  shards_per_cell: Optional[int],
                  stats: Optional[DiffShardStats],
                  run_stats: Optional[ShardRunStats] = None
                  ) -> List[MergedCell]:
    """Run the sharded matrix and merge each cell deterministically.

    Shards fan out one per task — there is no one-workload-per-worker
    grouping, because the whole point is splitting below a cell; variant
    reuse across shards comes from the shared store (or each worker's
    in-memory cache without one).  With
    a store the run checkpoints: each shard's result is journaled on
    completion and revived on a restart instead of re-scored.
    """
    shards = shard_diff_matrix(workloads, labels, differs, options,
                               shards_per_cell)
    keys = [diff_shard_key(shard) for shard in shards]
    results = run_checkpointed(_diff_shard, shards, keys,
                               ("fig8-10", tuple(keys)), jobs=jobs,
                               normalize=_normalize_resumed, stats=run_stats)
    return merge_shard_results(workloads, labels, differs, shards, results,
                               stats)


def merge_shard_results(workloads: Sequence[WorkloadProgram],
                        labels: Sequence[str],
                        differs: Sequence[BinaryDiffer],
                        shards: Sequence[DiffShard],
                        results: Sequence[DiffShardResult],
                        stats: Optional[DiffShardStats] = None
                        ) -> List[MergedCell]:
    """Deterministically reassemble cells from shard results in matrix order.

    ``results[i]`` must be the outcome of ``shards[i]`` — any width of
    :func:`~repro.evaluation.checkpoint.run_checkpointed` (which returns
    results in task order) merges to identical cells, which is the
    bit-identity contract.
    """
    cells: List[MergedCell] = []
    position = 0
    for workload in workloads:
        for label in labels:
            for differ in differs:
                count = shards[position][5]
                cell_results = results[position:position + count]
                position += count
                merged = differ.merge_partials(
                    [r.partial for r in cell_results])
                ranks: Dict[str, Optional[int]] = {}
                for cell_result in cell_results:
                    ranks.update(cell_result.ranks)
                    if stats is not None:
                        stats.add(cell_result)
                cells.append((workload, label, differ,
                              cell_results[0].partial.units, merged, ranks))
    return cells


def precision_report_from_cells(cells: Sequence[MergedCell]
                                ) -> PrecisionReport:
    """Figure 8 rows from merged cells (shared by every scheduler)."""
    report = PrecisionReport()
    for workload, label, differ, units, merged, ranks in cells:
        correct = sum(1 for unit in units if ranks.get(unit) == 1)
        precision = correct / len(units) if units else 0.0
        report.rows.append(PrecisionRow(
            program=workload.name, suite=workload.suite, tool=differ.name,
            label=label, precision=precision,
            similarity_score=merged.similarity_score))
    return report


def escape_report_from_cells(cells: Sequence[MergedCell]) -> EscapeReport:
    """Figure 10 rows from merged cells (shared by every scheduler)."""
    report = EscapeReport()
    for workload, label, differ, units, _merged, ranks in cells:
        unit_set = set(units)
        for function_name in workload.vulnerable_functions:
            if function_name not in unit_set:
                continue
            report.rows.append(EscapeRow(
                program=workload.name, function=function_name,
                tool=differ.name, label=label,
                rank_of_correct=ranks[function_name]))
    return report


def measure_precision_sharded(workloads: Sequence[WorkloadProgram],
                              labels: Sequence[str] = ALL_LABELS,
                              differs: Optional[Sequence[BinaryDiffer]] = None,
                              options: Optional[OptOptions] = None,
                              jobs: Optional[int] = None,
                              shards_per_cell: Optional[int] = None,
                              stats: Optional[DiffShardStats] = None,
                              run_stats: Optional[ShardRunStats] = None
                              ) -> PrecisionReport:
    """Figure 8 through function-granularity shards.

    Row-for-row and bit-for-bit identical to the serial
    :func:`~repro.evaluation.precision.measure_precision`: Precision@1 is
    the fraction of units whose correct match ranks first (every unit's rank
    rides in its shard result) and the similarity score comes from the
    tool's deterministic merge.
    """
    differs = list(differs) if differs is not None else all_differs()
    return precision_report_from_cells(_merged_cells(
        workloads, labels, differs, options, jobs, shards_per_cell, stats,
        run_stats))


def measure_escape_sharded(workloads: Sequence[WorkloadProgram],
                           labels: Sequence[str] = ESCAPE_LABELS,
                           differs: Optional[Sequence[BinaryDiffer]] = None,
                           options: Optional[OptOptions] = None,
                           jobs: Optional[int] = None,
                           shards_per_cell: Optional[int] = None,
                           stats: Optional[DiffShardStats] = None,
                           run_stats: Optional[ShardRunStats] = None
                           ) -> EscapeReport:
    """Figure 10 through function-granularity shards (serial-identical)."""
    differs = list(differs) if differs is not None else escape_differs()
    vulnerable_workloads = [w for w in workloads if w.vulnerable_functions]
    return escape_report_from_cells(_merged_cells(
        vulnerable_workloads, labels, differs, options, jobs,
        shards_per_cell, stats, run_stats))


# -- figure 9: binary-pair shards ------------------------------------------------------

#: One figure-9 shard: a workload's binaries under one protection scheme,
#: diffed against every opt-level reference.
BinTunerShard = Tuple[WorkloadProgram, str, int]


def shard_bintuner_matrix(workloads: Sequence[WorkloadProgram],
                          tuner_iterations: int) -> List[BinTunerShard]:
    """One shard per (workload, protection): Figure 9's binary-pair units."""
    return [(workload, protection, tuner_iterations)
            for workload in workloads
            for protection in ("bintuner", "khaos")]


def _bintuner_shard(shard: BinTunerShard) -> Tuple[List[float], Optional[float]]:
    """Diff one protection scheme's binary against every opt-level reference.

    The opt-level references and the Khaos build are store-keyed variants
    (fetched, not rebuilt, from a warm shared tree); the BinTuner search is
    seeded, so the tuned binary is deterministic per (workload, iterations).
    Returns the four similarity scores in :data:`OPT_LEVELS` order plus, for
    the ``bintuner`` shard, the runtime-overhead factor.
    """
    workload, protection, tuner_iterations = shard
    with obs_tracing.span("shard.fig9", cat="diff", workload=workload.name,
                          protection=protection):
        return _bintuner_shard_impl(shard)


def _bintuner_shard_impl(shard: BinTunerShard
                         ) -> Tuple[List[float], Optional[float]]:
    workload, protection, tuner_iterations = shard
    cache = worker_cache()
    differ = BinDiff()
    references = {}
    for level in OPT_LEVELS:
        level_options = OptOptions(level=level, lto=level >= 2)
        references[level] = build_variant(workload, "baseline", level_options,
                                          cache).binary
    overhead: Optional[float] = None
    if protection == "bintuner":
        tuned = BinTuner(iterations=tuner_iterations).tune(workload.build())
        target = tuned.best_binary
        baseline_run = run_program(
            build_variant(workload, "baseline", None, cache).program)
        tuned_run = run_program(optimize_program(workload.build(),
                                                 tuned.best_options))
        base = baseline_run.cycles or 1
        overhead = (tuned_run.cycles - base) / base
    else:
        target = build_variant(workload, "fufi.all", None, cache).binary
    similarities = [differ.diff(references[level], target).similarity_score
                    for level in OPT_LEVELS]
    return similarities, overhead


def bintuner_shard_key(shard: BinTunerShard) -> Tuple:
    """The value-based checkpoint identity of one figure-9 shard."""
    workload, protection, iterations = shard
    return ("fig9shard", variant_key(workload, "baseline", None),
            protection, iterations)


def bintuner_report_from_results(workloads: Sequence[WorkloadProgram],
                                 results: Sequence[Tuple[List[float],
                                                         Optional[float]]]
                                 ) -> BinTunerReport:
    """Figure 9 rows from shard results in :func:`shard_bintuner_matrix`
    order: per opt level bintuner then khaos, overhead geomean in workload
    order."""
    report = BinTunerReport()
    overheads: List[float] = []
    for position, workload in enumerate(workloads):
        bintuner_sims, overhead = results[2 * position]
        khaos_sims, _ = results[2 * position + 1]
        for level, bintuner_sim, khaos_sim in zip(OPT_LEVELS, bintuner_sims,
                                                  khaos_sims):
            report.rows.append(SimilarityRow(
                program=workload.name, protection="bintuner",
                opt_level=level, similarity=bintuner_sim))
            report.rows.append(SimilarityRow(
                program=workload.name, protection="khaos",
                opt_level=level, similarity=khaos_sim))
        overheads.append(overhead)
    report.bintuner_overhead_percent = geometric_mean(overheads) * 100.0
    return report


def measure_bintuner_sharded(workloads: Sequence[WorkloadProgram],
                             tuner_iterations: int = 6,
                             jobs: Optional[int] = None,
                             run_stats: Optional[ShardRunStats] = None
                             ) -> BinTunerReport:
    """Figure 9 through binary-pair shards at any ``jobs``.

    The merge interleaves each workload's two protection shards back into
    per-workload row order (per opt level: bintuner, then khaos) and
    aggregates the overhead geomean in workload order, so the report is the
    same at every width.
    """
    shards = shard_bintuner_matrix(workloads, tuner_iterations)
    keys = [bintuner_shard_key(shard) for shard in shards]
    results = run_checkpointed(_bintuner_shard, shards, keys,
                               ("fig9", tuple(keys)), jobs=jobs,
                               stats=run_stats)
    return bintuner_report_from_results(workloads, results)
