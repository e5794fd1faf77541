"""Compiler-option comparison: Figure 9 (BinDiff similarity, BinTuner vs Khaos).

Following section 4.2 ("Compared with compiler options"), BinTuner iteratively
searches compiler options against an O0 baseline, Khaos uses FuFi.all on the
standard O2 + LTO build, and both resulting binaries are compared by BinDiff
against the program compiled at O0, O1, O2 and O3.  The paper additionally
reports BinTuner's runtime overhead against the O2 + LTO baseline (30.35%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..utils import geometric_mean
from ..workloads.suites import (SPECINT_2006, SPECSPEED_2017, WorkloadProgram,
                                find_program)

OPT_LEVELS = (0, 1, 2, 3)


@dataclass
class SimilarityRow:
    program: str
    protection: str          # "bintuner" or "khaos"
    opt_level: int
    similarity: float


@dataclass
class BinTunerReport:
    rows: List[SimilarityRow] = field(default_factory=list)
    bintuner_overhead_percent: float = 0.0

    def similarity(self, protection: str, opt_level: int) -> float:
        values = [row.similarity for row in self.rows
                  if row.protection == protection and row.opt_level == opt_level]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def geomean(self, protection: str, opt_level: int) -> float:
        values = [row.similarity for row in self.rows
                  if row.protection == protection and row.opt_level == opt_level]
        if not values:
            return 0.0
        return geometric_mean([v - 1.0 for v in values]) + 1.0


def default_programs() -> List[WorkloadProgram]:
    names = list(SPECINT_2006) + list(SPECSPEED_2017)
    return [find_program(name) for name in names]


def measure_bintuner(workloads: Sequence[WorkloadProgram],
                     tuner_iterations: int = 6,
                     jobs: Optional[int] = None) -> BinTunerReport:
    """Figure 9's measurement: one shard per (workload, protection scheme).

    Every width, ``jobs=1`` included, runs the same binary-pair shards
    through the checkpointed scheduler (see
    :func:`~repro.evaluation.diff_sharding.measure_bintuner_sharded`): each
    shard diffs its protected binary against the four opt-level references
    and the rows are reassembled in workload order, so the report does not
    depend on ``jobs`` and a run over a shared store tree journals and
    resumes.
    """
    from .diff_sharding import measure_bintuner_sharded
    return measure_bintuner_sharded(workloads, tuner_iterations, jobs=jobs)


def figure9(limit: Optional[int] = 4,
            tuner_iterations: int = 6,
            jobs: Optional[int] = None) -> BinTunerReport:
    """Figure 9 on a subset of SPECint 2006 + SPECspeed 2017 (``limit=None`` = all)."""
    workloads = default_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_bintuner(workloads, tuner_iterations=tuner_iterations,
                            jobs=jobs)
