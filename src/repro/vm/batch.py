"""Batched VM measurement: one execution per distinct variant per batch.

The overhead experiments (Figures 6/7) execute every built variant in the
interpreter to collect dynamic cycle counts, and several report rows can be
backed by the *same* variant — every row of a workload shares its baseline's
cycle count, and sweep-style drivers may revisit a variant under several
headings.  Execution is deterministic (the VM is seeded through the
program), so re-running a program inside one measurement batch is pure
waste.

:class:`VMBatch` is the measurement unit the sharded scheduler
(:mod:`repro.evaluation.sharding`) hands to each worker.  Every execution
goes through :meth:`VMBatch.run_many`: one :class:`~repro.vm.machine.
Interpreter` per distinct program drives all of the batch's input vectors
through one compiled-block cache, resetting per input — so interpreter
setup and block compilation are amortised across the whole batch instead of
paid per run.

Memo keys prefer content over identity: when the caller can hand over the
lowered :class:`~repro.backend.binary.Binary`, results are keyed by
``Binary.content_digest()`` — two artifacts rebuilt into different objects
(e.g. loaded from a warm store tree by different workers) dedupe to one
execution.  Programs without a binary fall back to the id-keyed memo, with
the program held strongly to pin its id (a bare ``id()`` key could be
recycled by CPython for a new allocation).  The memo lives and dies with
the batch — across batches every variant is measured afresh, exactly like
the serial figure drivers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.module import Program
from ..obs import metrics as obs_metrics
from .costs import CostModel
from .machine import ExecutionResult, Interpreter

#: The single-run input batch: one run, no inputs — what ``run_program``
#: does for drivers that never feed the input intrinsics.
SINGLE_RUN = ((),)


class VMBatch:
    """Memoised, batched program execution over one measurement batch.

    ``dispatch``/``cost_model``/``max_steps`` pin the execution
    configuration for the whole batch (mixing configurations in one batch
    would let a memoised result cross configurations — create one batch per
    configuration instead).
    """

    def __init__(self, dispatch: Optional[str] = None,
                 cost_model: Optional[CostModel] = None,
                 max_steps: int = 5_000_000):
        self.dispatch = dispatch
        self.cost_model = cost_model
        self.max_steps = max_steps
        # key -> ((program, binary), results); the anchor tuple pins both
        # objects so id-based keys stay valid for the life of the batch
        self._results: Dict[tuple, Tuple[tuple, List[ExecutionResult]]] = {}
        self._digests: Dict[int, Tuple[object, str]] = {}
        #: Per-batch counter view chained to the process-global registry:
        #: the ``executions``/``memo_hits``/``interpreters`` attributes keep
        #: their per-instance semantics while every increment also feeds the
        #: telemetry flush (``vmbatch.*`` counters).
        self.metrics = obs_metrics.MetricsRegistry(
            parent=obs_metrics.REGISTRY)

    # -- memo keys ----------------------------------------------------------------

    def _program_key(self, program: Program, binary) -> tuple:
        if binary is not None:
            return ("digest", self._digest_of(binary))
        return ("id", id(program))

    def _digest_of(self, binary) -> str:
        entry = self._digests.get(id(binary))
        if entry is not None and entry[0] is binary:
            return entry[1]
        digest = binary.content_digest()
        self._digests[id(binary)] = (binary, digest)
        return digest

    # -- execution ----------------------------------------------------------------

    def run_many(self, program: Program,
                 input_sets: Sequence[Sequence[int]],
                 binary=None) -> List[ExecutionResult]:
        """Drive every input vector through one interpreter, memoised.

        Result ``i`` is bit-identical to a fresh
        :func:`~repro.vm.machine.run_program` with ``input_sets[i]`` (see
        :meth:`Interpreter.run_many`); the whole batch shares one compiled
        program.  A repeat call with an equal key — same digest (or same
        program object) and same inputs — returns the memoised results.
        """
        sets = tuple(tuple(inputs) for inputs in input_sets)
        key = (self._program_key(program, binary), sets)
        entry = self._results.get(key)
        if entry is not None and (binary is not None
                                  or entry[0][0] is program):
            self.metrics.counter("vmbatch.memo_hits")
            return list(entry[1])
        self.metrics.counter("vmbatch.interpreters")
        self.metrics.counter("vmbatch.executions", len(sets))
        interpreter = Interpreter(program, cost_model=self.cost_model,
                                  max_steps=self.max_steps,
                                  dispatch=self.dispatch)
        results = interpreter.run_many(sets)
        self._results[key] = ((program, binary), results)
        return list(results)

    def run(self, program: Program, binary=None) -> ExecutionResult:
        """Execute ``program`` once per batch; later calls reuse the result."""
        return self.run_many(program, SINGLE_RUN, binary=binary)[0]

    # -- façade counters (instance registry views) --------------------------------

    @property
    def executions(self) -> int:
        return int(self.metrics.get("vmbatch.executions"))

    @property
    def memo_hits(self) -> int:
        return int(self.metrics.get("vmbatch.memo_hits"))

    @property
    def interpreters(self) -> int:
        return int(self.metrics.get("vmbatch.interpreters"))

    def cycles(self, program: Program, binary=None) -> int:
        return self.run(program, binary=binary).cycles


def run_batch(programs: Sequence[Program],
              dispatch: Optional[str] = None,
              cost_model: Optional[CostModel] = None,
              max_steps: int = 5_000_000) -> List[ExecutionResult]:
    """Execute a sequence of programs as one batch, in order.

    Duplicate program objects are executed once and their result repeated in
    the output — positionally identical to calling
    :func:`~repro.vm.machine.run_program` in a loop (execution is
    deterministic), just without the redundant work.
    """
    batch = VMBatch(dispatch=dispatch, cost_model=cost_model,
                    max_steps=max_steps)
    return [batch.run(program) for program in programs]
