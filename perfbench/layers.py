"""Per-layer tracing for the traced benchmark run, installed from outside.

:class:`Tracer` wraps the public entry points of each layer of the pipeline
and records, per layer, the number of calls and the *self* time of its spans
(a span's duration minus the part covered by nested layer spans), so the
layer times of one process never overlap.  The program itself is not
modified: functions are replaced at every import site (drivers do
``from ..vm.machine import run_program``, so patching only the defining
module would miss the calls) and methods on their class.

Wrappers are installed before the executor forks its pool, so the workers
inherit them.  Each worker starts from zeroed totals and writes its totals to
``<records_dir>/<pid>.json`` after every task; :meth:`Tracer.collect` sums
them with the calling process's own totals.  Installation is process-wide and
permanent: a traced repetition runs in a process of its own.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

from perfbench.matrix import ir_instructions

#: The totals each process books; a layer the workload does not touch
#: reads 0.  ``BENCHMARK.json`` gives their units.
LAYER_METRICS = (
    "workloads.build_s", "workloads.build_calls",
    "core.obfuscate_s", "core.obfuscate_calls",
    "baselines.obfuscate_s", "baselines.obfuscate_calls",
    "opt.optimize_s", "opt.optimize_calls", "opt.ir_instructions",
    "backend.lower_s", "backend.lower_calls", "backend.binary_instructions",
    "vm.run_s", "vm.run_calls", "vm.steps",
    "diffing.features_s", "diffing.features_calls",
    "diffing.bindiff_s", "diffing.vulseeker_s", "diffing.asm2vec_s",
    "diffing.safe_s", "diffing.deepbindiff_s", "diffing.diff_calls",
    "store.get_s", "store.get_calls", "store.hits", "store.misses",
    "store.bytes_read", "store.put_s", "store.put_calls",
    "store.bytes_written", "store.quarantined",
    "evaluation.run_tasks_s", "evaluation.tasks", "evaluation.retries",
    "evaluation.worker_busy_s",
    "gc.pause_s", "gc.collections", "gc.gen2_collections",
)


class Tracer:
    """Span totals of one process; see the module docstring."""

    def __init__(self, records_dir: str, jobs: int = 1):
        self.records_dir = records_dir
        self.jobs = jobs
        self.totals: Dict[str, float] = defaultdict(float)
        #: open spans: [layer, start, time covered by nested spans]
        self._stack = []
        self._gc_started: Optional[float] = None

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, ended: float,
              inclusive: bool = False) -> None:
        """Book ``frame``'s self (or ``inclusive``) time; the caller's
        post-processing since ``ended`` is hidden from the enclosing span,
        not charged to it."""
        self._stack.pop()
        layer, started, nested = frame
        self.totals[layer + "_s"] += (ended - started) - (
            0.0 if inclusive else nested)
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - started

    def _span(self, layer: str, fn: Callable,
              after: Optional[Callable] = None,
              inclusive: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, time.perf_counter(), inclusive)
                raise
            ended = time.perf_counter()
            self.totals[layer + "_calls"] += 1
            if after is not None:
                after(result)
            self._exit(frame, ended, inclusive)
            return result
        return traced

    def _replace_function(self, module_name: str, name: str,
                          layer: str, after: Optional[Callable] = None,
                          inclusive: bool = False) -> None:
        """Wrap a function at its definition and at every import site."""
        original = getattr(sys.modules[module_name], name)
        wrapped = self._span(layer, original, after, inclusive)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                setattr(module, name, wrapped)

    def _replace_method(self, cls: type, name: str, layer: str) -> None:
        setattr(cls, name, self._span(layer, getattr(cls, name)))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points in this process (and its forks)."""
        import repro.evaluation.checkpoint  # noqa: F401 (import sites)
        import repro.evaluation.diff_sharding  # noqa: F401
        import repro.evaluation.overhead  # noqa: F401
        import repro.evaluation.precision  # noqa: F401
        from repro.baselines.ollvm import OLLVMObfuscator
        from repro.core.obfuscator import Khaos
        from repro.diffing.base import BinaryDiffer
        from repro.diffing.index import FeatureIndex
        from repro.evaluation import executor
        from repro.store import artifact_store
        from repro.store.backend import LocalBackend
        from repro.workloads.suites import WorkloadProgram

        totals = self.totals

        def count_ir(program):
            totals["opt.ir_instructions"] += ir_instructions(program)

        def count_binary(binary):
            totals["backend.binary_instructions"] += binary.total_instructions

        def count_steps(result):
            totals["vm.steps"] += result.steps

        self._replace_method(WorkloadProgram, "build", "workloads.build")
        self._replace_method(Khaos, "obfuscate", "core.obfuscate")
        self._replace_method(OLLVMObfuscator, "obfuscate",
                             "baselines.obfuscate")
        self._replace_function("repro.opt.pipelines", "optimize_program",
                               "opt.optimize", count_ir)
        self._replace_function("repro.backend.lowering", "lower_program",
                               "backend.lower", count_binary)
        self._replace_function("repro.vm.machine", "run_program", "vm.run",
                               count_steps)
        self._wrap_features(FeatureIndex)
        for name in ("diff", "partial_diff"):
            self._wrap_differ(BinaryDiffer, name)
        self._wrap_store(artifact_store.ArtifactStore,
                         artifact_store._MISSING, LocalBackend)
        # the parent's wall inside the executor, waiting included
        self._replace_function("repro.evaluation.executor", "run_tasks",
                               "evaluation.run_tasks", inclusive=True)
        self._wrap_worker_entry(executor)
        gc.callbacks.append(self._on_gc)
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap_features(self, cls: type) -> None:
        """Book ``FeatureIndex.memo`` only when it extracts features: a
        lookup the memo already holds is neither a call nor a span."""
        original = cls.memo
        extract = self._span("diffing.features", original)

        @functools.wraps(original)
        def memo(index, key, builder):
            if key in index._memo:
                return original(index, key, builder)
            return extract(index, key, builder)
        cls.memo = memo

    def _wrap_differ(self, cls: type, name: str) -> None:
        """Book each tool's scoring per tool; a nested call of the same tool
        (a whole-binary tool's ``partial_diff`` calling ``diff``) is one
        call."""
        original = getattr(cls, name)

        @functools.wraps(original)
        def traced(differ, *args, **kwargs):
            layer = "diffing." + type(differ).__name__.lower()
            outermost = not (self._stack and self._stack[-1][0] == layer)
            frame = self._enter(layer)
            try:
                return original(differ, *args, **kwargs)
            finally:
                if outermost:
                    self.totals["diffing.diff_calls"] += 1
                self._exit(frame, time.perf_counter())
        setattr(cls, name, traced)

    def _wrap_store(self, store_cls: type, missing: object,
                    backend_cls: type) -> None:
        """``_read_object`` and ``_write_object`` are the funnels every
        store read and write (with its pickling, fsync and ledger append)
        goes through; the backend's methods see the bytes."""
        def hit_or_miss(payload):
            self.totals["store.misses" if payload is missing
                        else "store.hits"] += 1

        self._store_span(store_cls, "_read_object", "store.get", hit_or_miss)
        self._store_span(store_cls, "_write_object", "store.put")
        self._count(backend_cls, "get", "store.bytes_read",
                    lambda data, args: len(data) if data is not None else 0)
        self._count(backend_cls, "put", "store.bytes_written",
                    lambda written, args: len(args[3]) if written else 0)
        self._count(backend_cls, "quarantine", "store.quarantined",
                    lambda moved, args: 1 if moved else 0)

    def _store_span(self, cls: type, name: str, layer: str,
                    after: Optional[Callable] = None) -> None:
        """A span over persistent stores only: a memory-only store does no
        I/O, so storeless workloads read 0."""
        original = getattr(cls, name)

        @functools.wraps(original)
        def traced(store, *args, **kwargs):
            if not store.persistent:
                return original(store, *args, **kwargs)
            frame = self._enter(layer)
            try:
                result = original(store, *args, **kwargs)
            finally:
                self.totals[layer + "_calls"] += 1
                self._exit(frame, time.perf_counter())
            if after is not None:
                after(result)
            return result
        setattr(cls, name, traced)

    def _count(self, cls: type, name: str, metric: str,
               amount: Callable) -> None:
        """Add ``amount(result, args)`` of every call to ``metric``."""
        original = getattr(cls, name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.totals[metric] += amount(result, args)
            return result
        setattr(cls, name, counted)

    def _wrap_worker_entry(self, executor) -> None:
        """Time each task inside the worker and hand the worker's totals to
        the parent after it.  The executor submits ``_supervised_entry`` by
        name, so the forked worker resolves it to this wrapper."""
        original = executor._supervised_entry

        @functools.wraps(original)
        def traced_entry(payload):
            attempt = payload[3]
            started = time.perf_counter()
            try:
                return original(payload)
            finally:
                self.totals["evaluation.worker_busy_s"] += (
                    time.perf_counter() - started)
                self.totals["evaluation.retries" if attempt
                            else "evaluation.tasks"] += 1
                self.flush()
        executor._supervised_entry = traced_entry

    # -- gc and processes ------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.totals["gc.pause_s"] += time.perf_counter() - self._gc_started
            self.totals["gc.collections"] += 1
            if info.get("generation") == 2:
                self.totals["gc.gen2_collections"] += 1
            self._gc_started = None

    def _after_fork(self) -> None:
        self.totals.clear()
        self._stack.clear()
        self._gc_started = None

    def flush(self) -> None:
        """Write this process's totals (a worker's hand-over to the parent)."""
        path = os.path.join(self.records_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.totals, fh)
        os.replace(path + ".tmp", path)

    def collect(self) -> Dict[str, float]:
        """This process's totals plus every worker's, with derived metrics.

        Call after the workers have ended, so their records are final.
        """
        merged: Dict[str, float] = defaultdict(float)
        for name in os.listdir(self.records_dir):
            if name.endswith(".json") and name != f"{os.getpid()}.json":
                with open(os.path.join(self.records_dir, name)) as fh:
                    for key, value in json.load(fh).items():
                        merged[key] += value
        for key, value in self.totals.items():
            merged[key] += value
        return derive(merged, self.jobs)


def derive(totals: Dict[str, float], jobs: int) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`, plus the VM's steps per second
    and the share of the pool's time its workers sat idle."""
    metrics = {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
    run_s = metrics["vm.run_s"]
    metrics["vm.steps_per_s"] = metrics["vm.steps"] / run_s if run_s else 0.0
    window = metrics["evaluation.run_tasks_s"] * jobs
    metrics["evaluation.worker_idle_frac"] = (
        max(0.0, 1.0 - metrics["evaluation.worker_busy_s"] / window)
        if window else 0.0)
    return metrics
