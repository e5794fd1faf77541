"""The benchmark's workloads: seeded program draws, the driver calls that
are timed, and the output checks that are not.

Every workload runs one of the paper's two experiment shapes through the
evaluation layer's public drivers and hands them only the drawn
:class:`~repro.workloads.suites.WorkloadProgram` objects:

* ``overhead_warm`` — :func:`measure_overhead` over drawn SPEC programs ×
  baseline + the Figure 7 labels, through
  ``VariantCache(store=ArtifactStore.attach(tree))`` over a tree populated
  beforehand by :func:`populate` (the untimed check runs the same matrix
  cold, without a store);
* ``precision`` / ``precision_jobs2`` — :func:`measure_precision` over drawn
  SPEC + CoreUtils programs × ``ALL_LABELS`` × the five differs, serially or
  at ``jobs=2`` (the executor's workers attach to ``REPRO_STORE_DIR``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.variant_cache import VariantCache
from repro.evaluation.overhead import build_variant, measure_overhead
from repro.evaluation.precision import measure_precision
from repro.store.artifact_store import ArtifactStore
from repro.toolchain import ALL_LABELS, KHAOS_LABELS
from repro.utils import geometric_mean
from repro.vm.machine import run_program
from repro.workloads.suites import (WorkloadProgram, coreutils_programs,
                                    spec2006_programs, spec2017_programs)

#: Figure 7's label set: the O-LLVM baselines, then the five Khaos modes.
OVERHEAD_LABELS = ("sub", "bog", "fla", "fla-10") + tuple(KHAOS_LABELS)

#: Programs drawn per repetition: (SPEC, CoreUtils), by experiment shape.
DRAW_SIZES = {"overhead": (7, 0), "precision": (1, 2)}

#: Candidate draws the seed proposes; the most typical one is kept.
CANDIDATES = 256

#: Worker processes of each workload; only ``precision_jobs2`` uses a pool.
JOBS = {"overhead_warm": 1, "precision": 1, "precision_jobs2": 2}

#: Workloads whose driver reads or writes a store tree.
STORE_WORKLOADS = ("precision_jobs2", "overhead_warm")

Row = Tuple


def shape_of(workload: str) -> str:
    """``overhead`` or ``precision``: the experiment a workload runs."""
    return "overhead" if workload.startswith("overhead") else "precision"


def pool(shape: str) -> List[WorkloadProgram]:
    """The programs a draw of ``shape`` samples from."""
    spec = spec2006_programs() + spec2017_programs()
    return spec if shape == "overhead" else spec + coreutils_programs()


def ir_instructions(program) -> int:
    """Instructions in the defined functions of an IR ``program``."""
    return sum(len(block.instructions)
               for module in program.modules
               for function in module.defined_functions()
               for block in function.blocks)


def draw(workload: str, seed: int) -> List[WorkloadProgram]:
    """The programs ``workload`` runs for ``seed``.

    The seed proposes :data:`CANDIDATES` random samples of the shape's SPEC
    CPU 2006 + 2017 programs (plus CoreUtils for the precision matrix); the
    one whose total size per suite group is nearest the pool's average is
    kept.  A program's size is the instruction count of its un-obfuscated
    IR, built from its profile.  Per-program costs vary by 15-20%, and a
    plain sample would make the figures (precision's peak RSS most) swing
    with the seed.  Both workloads of a shape draw the same programs; the
    same seed gives the same programs in the same order.
    """
    shape = shape_of(workload)
    programs = pool(shape)
    groups = [(count, group) for count, group in zip(DRAW_SIZES[shape], (
        [p for p in programs if p.suite != "coreutils"],
        [p for p in programs if p.suite == "coreutils"])) if count]
    size = {p.name: ir_instructions(p.build()) for p in programs}
    targets = [count * sum(size[p.name] for p in group) / len(group)
               for count, group in groups]
    rng = random.Random(f"{shape}:{seed}")
    best, best_gap = None, None
    for _ in range(CANDIDATES):
        picked = [rng.sample(group, count) for count, group in groups]
        gap = max(abs(sum(size[p.name] for p in sample) - target) / target
                  for sample, target in zip(picked, targets))
        if best_gap is None or gap < best_gap:
            best, best_gap = [p for sample in picked for p in sample], gap
    return best


def open_cache(workload: str, tree: Optional[str]) -> Optional[VariantCache]:
    """The cache ``overhead_warm`` passes its driver; ``None`` otherwise."""
    if workload != "overhead_warm":
        return None
    return VariantCache(store=ArtifactStore.attach(tree))


def run(workload: str, programs: Sequence[WorkloadProgram],
        cache: Optional[VariantCache]):
    """The timed call: one driver run over the drawn matrix."""
    if shape_of(workload) == "overhead":
        return measure_overhead(programs, OVERHEAD_LABELS, cache=cache)
    return measure_precision(programs, ALL_LABELS, jobs=JOBS[workload])


def populate(programs: Sequence[WorkloadProgram], tree: str) -> None:
    """Build every variant ``overhead_warm`` reads into the store ``tree``."""
    cache = VariantCache(store=ArtifactStore.attach(tree))
    for program in programs:
        for label in ("baseline",) + OVERHEAD_LABELS:
            build_variant(program, label, cache=cache)


def rows(workload: str, report) -> List[Row]:
    """A report's rows as plain tuples (floats compared exactly)."""
    if shape_of(workload) == "overhead":
        return [(r.program, r.label, r.baseline_cycles, r.cycles)
                for r in report.rows]
    return [(r.program, r.tool, r.label, r.precision, r.similarity_score)
            for r in report.rows]


def digest(table: Sequence[Row]) -> str:
    return hashlib.sha256(repr(list(table)).encode()).hexdigest()


def quality(workload: str, report) -> Dict[str, float]:
    """The paper's headline number for the workload's matrix: Khaos's
    geomean VM-cycle overhead, or the five tools' mean Precision@1 under
    the five Khaos labels.  The number the matrix does not measure is 0."""
    if shape_of(workload) == "overhead":
        return {"khaos_overhead_pct": 100.0 * geometric_mean(
                    row.overhead_percent / 100.0 for row in report.rows
                    if row.label in KHAOS_LABELS),
                "khaos_precision_at1": 0.0}
    values = [row.precision for row in report.rows
              if row.label in KHAOS_LABELS]
    return {"khaos_overhead_pct": 0.0,
            "khaos_precision_at1": sum(values) / len(values)}


def reference(workload: str, programs: Sequence[WorkloadProgram]
              ) -> Tuple[List[Row], List[Tuple[str, str]]]:
    """Rows from an independent serial, storeless run of the same matrix,
    and the variants whose observable behaviour differs from their
    un-obfuscated baseline's (the paper's semantic-preservation claim; the
    oracle is the baseline program, not the obfuscator)."""
    cache = VariantCache()
    if shape_of(workload) == "overhead":
        labels = OVERHEAD_LABELS
        report = measure_overhead(programs, labels, cache=cache)
    else:
        labels = ALL_LABELS
        report = measure_precision(programs, labels, cache=cache)
    broken = []
    for program in programs:
        expected = run_program(
            build_variant(program, "baseline", cache=cache).program)
        for label in labels:
            variant = build_variant(program, label, cache=cache)
            if run_program(variant.program).observable() != \
                    expected.observable():
                broken.append((program.name, label))
    return rows(workload, report), broken
