"""Differential tests: compiled-dispatch VM vs. the legacy interpreter.

The compiled fast path must be bit-for-bit identical on everything the
evaluation observes: exit value, output stream, cycle count, step count,
instruction count and call count — across every workload of every suite
(`workloads/suites.py`), across obfuscated (Khaos / flattened) variants,
across batched ``run_many`` re-runs of one interpreter, and at nasty
boundaries (step limit inside a hot loop, mid-block aborts, IR invalidated
under live compiled blocks).  Behaviours every tier must share are
parametrized over both tiers.
"""

import gc

import pytest

from repro.analysis.manager import PRESERVE_ALL, AnalysisManager
from repro.baselines import ControlFlowFlattening
from repro.core.obfuscator import obfuscate
from repro.opt.pipelines import optimize_program
from repro.vm import DISPATCH_TIERS, Interpreter, StepLimitExceeded, run_program
from repro.vm.machine import ExecutionError
from repro.workloads.suites import load_suite, suite_names
from repro.ir import (FunctionType, IRBuilder, Module, Program,
                      create_function, I64)


def result_tuple(result):
    return (result.exit_value, tuple(result.output), result.cycles,
            result.instructions_executed, result.call_count, result.steps)


def all_workloads():
    for name in suite_names():
        for workload in load_suite(name):
            yield workload


def hot_loop_program(iterations=400):
    """A multi-block counting loop run for a few thousand steps."""
    module = Module("hot")
    f = create_function(module, "main", I64, [])
    loop = f.add_block("loop")
    body = f.add_block("body")
    step = f.add_block("step")
    done = f.add_block("done")
    b = IRBuilder(f.entry_block)
    slot = b.alloca(I64, name="n")
    b.store(0, slot)
    b.br(loop)
    b.position_at_end(loop)
    n = b.load(slot)
    b.cond_br(b.icmp("slt", n, iterations), body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(slot), 1), slot)
    b.br(step)
    b.position_at_end(step)
    b.store(b.mul(b.sdiv(b.load(slot), 1), 1), slot)
    b.br(loop)
    b.position_at_end(done)
    b.ret(b.load(slot))
    return Program("hot", [module])


def input_sum_program():
    """Sums the input stream through the ``input_len``/``input_i64``
    intrinsics — run_many batches must feed each run its own inputs."""
    module = Module("insum")
    input_len = module.declare_function("input_len", FunctionType(I64, []))
    input_i64 = module.declare_function("input_i64", FunctionType(I64, [I64]))
    putint = module.declare_function("putint", FunctionType(I64, [I64]))
    f = create_function(module, "main", I64, [])
    loop = f.add_block("loop")
    body = f.add_block("body")
    done = f.add_block("done")
    b = IRBuilder(f.entry_block)
    count = b.call(input_len, [])
    i_slot = b.alloca(I64, name="i")
    acc_slot = b.alloca(I64, name="acc")
    b.store(0, i_slot)
    b.store(0, acc_slot)
    b.br(loop)
    b.position_at_end(loop)
    i = b.load(i_slot)
    b.cond_br(b.icmp("slt", i, count), body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(acc_slot), b.call(input_i64, [b.load(i_slot)])),
            acc_slot)
    b.store(b.add(b.load(i_slot), 1), i_slot)
    b.br(loop)
    b.position_at_end(done)
    acc = b.load(acc_slot)
    b.call(putint, [acc])
    b.ret(acc)
    return Program("insum", [module])


class TestEveryWorkload:
    @pytest.mark.parametrize("workload", list(all_workloads()),
                             ids=lambda wp: f"{wp.suite}-{wp.name}")
    def test_identical_on_workload(self, workload):
        program = workload.build()
        legacy = run_program(program, dispatch="legacy")
        fast = run_program(program, dispatch="compiled")
        assert result_tuple(legacy) == result_tuple(fast)

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    @pytest.mark.parametrize("workload", list(all_workloads()),
                             ids=lambda wp: f"{wp.suite}-{wp.name}")
    def test_warm_rerun_identical_on_workload(self, workload, dispatch):
        """A rerun on one interpreter (``Interpreter.run_many``) starts
        from ``reset`` with the first run's compiled blocks kept; it must
        still match a fresh legacy run."""
        reference = result_tuple(run_program(workload.build(),
                                             dispatch="legacy"))
        interp = Interpreter(workload.build(), dispatch=dispatch)
        for result in interp.run_many([()] * 2):
            assert result_tuple(result) == reference


class TestObfuscatedVariants:
    @pytest.mark.parametrize("mode", ["fission", "fusion", "fufi.sep",
                                      "fufi.ori", "fufi.all"])
    def test_identical_after_khaos_and_o2(self, mode):
        workload = load_suite("spec2006")[0]
        optimized = optimize_program(obfuscate(workload.build(),
                                               mode=mode).program)
        legacy = run_program(optimized, dispatch="legacy")
        fast = run_program(optimized, dispatch="compiled")
        assert result_tuple(legacy) == result_tuple(fast)

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    def test_one_shot_run_leaves_no_cyclic_garbage(self, dispatch):
        """``run_program``'s interpreter is freed by reference counting
        alone: its compiled blocks, block compiler and intrinsics close over
        it, and left in place they would hand the collector a cycle of
        thousands of objects on every call of the Figs 6/7 loop."""
        workload = load_suite("spec2006")[0]
        optimized = optimize_program(obfuscate(workload.build(),
                                               mode="fufi.all").program)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run_program(optimized, dispatch=dispatch)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    def test_identical_after_control_flow_flattening(self, dispatch):
        """Flattened functions (dispatcher + switch) route every block back
        through the dispatcher; warm reruns must match a fresh legacy run."""
        program = load_suite("coreutils")[0].build()
        ControlFlowFlattening(ratio=1.0).run(program)
        reference = result_tuple(run_program(program, dispatch="legacy"))
        interp = Interpreter(program, dispatch=dispatch)
        for result in interp.run_many([()] * 4):
            assert result_tuple(result) == reference


@pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
class TestBatchedRunMany:
    def test_warm_reruns_stay_identical(self, dispatch):
        for workload in (load_suite("spec2006")[0], load_suite("coreutils")[0],
                         load_suite("embedded")[0]):
            reference = result_tuple(run_program(workload.build(),
                                                 dispatch="legacy"))
            interp = Interpreter(workload.build(), dispatch=dispatch)
            for result in interp.run_many([()] * 6):
                assert result_tuple(result) == reference

    def test_run_many_feeds_each_run_its_inputs(self, dispatch):
        input_sets = [(1, 2, 3), (), (5,), (7, 8, 9, 10)]
        references = [result_tuple(run_program(input_sum_program(),
                                               inputs=inputs,
                                               dispatch="legacy"))
                      for inputs in input_sets]
        interp = Interpreter(input_sum_program(), dispatch=dispatch)
        got = [result_tuple(r) for r in interp.run_many(input_sets)]
        assert got == references


class TestEdgeSemantics:
    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    @pytest.mark.parametrize("make_program",
                             [lambda: load_suite("coreutils")[0].build(),
                              hot_loop_program],
                             ids=["coreutils", "hot-loop"])
    def test_step_limit_fires_at_the_same_step(self, dispatch, make_program):
        """The limit stops at exactly ``limit + 1`` steps on every tier, on
        a fresh interpreter and again on the same (block-warm) one."""
        limit = run_program(make_program(), dispatch="legacy").steps // 2
        interp = Interpreter(make_program(), max_steps=limit,
                             dispatch=dispatch)
        with pytest.raises(StepLimitExceeded):
            interp.run()
        first = interp.steps
        interp.reset()
        with pytest.raises(StepLimitExceeded):
            interp.run()
        assert (first, interp.steps) == (limit + 1, limit + 1)

    def test_mid_block_abort_reports_the_same_error(self):
        module = Module("oob")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        buf = b.alloca(I64, name="buf")
        b.store(1, buf)
        wild = b.gep(buf, 5)
        b.store(2, wild)  # out of bounds: aborts mid-block
        b.ret(0)
        program = Program("oob", [module])
        messages = set()
        for dispatch in DISPATCH_TIERS:
            with pytest.raises(ExecutionError) as err:
                run_program(program, dispatch=dispatch)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert "out-of-bounds store" in messages.pop()

    def test_exit_mid_program_counts_identically(self):
        module = Module("m")
        putint = module.declare_function("putint", FunctionType(I64, [I64]))
        exit_fn = module.declare_function("exit", FunctionType(I64, [I64]))
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        b.call(putint, [b.add(20, 22)])
        b.call(exit_fn, [3])
        b.call(putint, [99])  # never reached
        b.ret(0)
        program = Program("p", [module])
        legacy = run_program(program, dispatch="legacy")
        fast = run_program(program, dispatch="compiled")
        assert legacy.exit_value == fast.exit_value == 3
        assert result_tuple(legacy) == result_tuple(fast)


class TestInvalidation:
    def test_invalidate_compiled_drops_cached_blocks(self):
        workload = load_suite("coreutils")[0]
        program = workload.build()
        interp = Interpreter(program, dispatch="compiled")
        interp.run()
        assert interp._compiled_blocks
        some_block = next(iter(interp._compiled_blocks))
        function = some_block.parent
        interp.invalidate_compiled(function)
        assert all(block.parent is not function
                   for block in interp._compiled_blocks)
        interp.invalidate_compiled()
        assert not interp._compiled_blocks

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    def test_analysis_manager_invalidation_reaches_compiled_blocks(
            self, dispatch):
        program = load_suite("coreutils")[0].build()
        reference = result_tuple(run_program(program, dispatch="legacy"))
        manager = AnalysisManager()
        interp = Interpreter(program, dispatch=dispatch, analyses=manager)
        interp.run()
        function = interp.program.find_function(interp.program.entry)
        manager.invalidate(function)
        assert all(block.parent is not function
                   for block in interp._compiled_blocks)
        # invalidated state recompiles to the same results
        interp.reset()
        assert result_tuple(interp.run()) == reference
        # PRESERVE_ALL asserts "nothing structural changed": blocks stay
        kept = dict(interp._compiled_blocks)
        manager.invalidate(function, preserve=PRESERVE_ALL)
        assert interp._compiled_blocks == kept

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    def test_dead_listeners_are_pruned(self, dispatch):
        program = load_suite("coreutils")[0].build()
        manager = AnalysisManager()
        interp = Interpreter(program, dispatch=dispatch, analyses=manager)
        interp.run()
        function = interp.program.find_function(interp.program.entry)
        del interp
        gc.collect()  # the intrinsic closures form a cycle with the interpreter
        # must not blow up on the dead weakref, and must drop it
        manager.invalidate(function)
        assert manager._listeners == []


class TestDispatchSelection:
    def test_dispatch_env_var_selects_the_path(self, monkeypatch):
        workload = load_suite("coreutils")[1]
        program = workload.build()
        monkeypatch.setenv("REPRO_VM_DISPATCH", "legacy")
        assert Interpreter(program).dispatch == "legacy"
        monkeypatch.setenv("REPRO_VM_DISPATCH", "compiled")
        assert Interpreter(program).dispatch == "compiled"
        monkeypatch.setenv("REPRO_VM_DISPATCH", "warp-drive")
        assert Interpreter(program).dispatch == "compiled"
        monkeypatch.delenv("REPRO_VM_DISPATCH")
        assert Interpreter(program).dispatch == "compiled"

    @pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
    def test_explicit_argument_beats_env(self, monkeypatch, dispatch):
        workload = load_suite("coreutils")[1]
        other = next(t for t in DISPATCH_TIERS if t != dispatch)
        monkeypatch.setenv("REPRO_VM_DISPATCH", other)
        assert Interpreter(workload.build(),
                           dispatch=dispatch).dispatch == dispatch

    def test_unknown_explicit_dispatch_raises(self):
        workload = load_suite("coreutils")[1]
        with pytest.raises(ValueError, match="unknown dispatch tier"):
            Interpreter(workload.build(), dispatch="turbo")
