"""Tests for lowering, the Binary container and opcode histograms."""

import pickle

import pytest

from repro.backend import (disassemble, lower_function, lower_program,
                           normalised_distances, opcode_histogram,
                           opcode_histogram_distance, instruction_category)
from repro.backend.isa import MachineBlock, MachineInstruction
from repro.ir import FunctionType, IRBuilder, Module, create_function, I64
from repro.opt import optimize_program


class TestLowering:
    def test_every_defined_function_lowered(self, demo_program):
        binary = lower_program(demo_program)
        names = set(binary.function_names())
        assert {"main", "classify", "scale", "mix", "select_op"} <= names
        # declarations (putint) are not lowered
        assert "putint" not in names

    def test_prologue_and_return(self, demo_module):
        lowered = lower_function(demo_module.get_function("scale"))
        opcodes = [inst.opcode for inst in lowered.instructions()]
        assert opcodes[0] == "push"
        assert "ret" in opcodes and "leave" in opcodes

    def test_direct_call_records_target(self, demo_module):
        lowered = lower_function(demo_module.get_function("main"))
        assert "classify" in lowered.call_targets()
        assert lowered.call_count >= 9

    def test_branches_reference_block_labels(self, demo_module):
        lowered = lower_function(demo_module.get_function("classify"))
        labels = {block.label for block in lowered.blocks}
        for block in lowered.blocks:
            for successor in block.successors:
                assert successor in labels

    def test_stack_arguments_emit_push(self):
        module = Module("m")
        many = create_function(module, "many", I64, [I64] * 8)
        mb = IRBuilder(many.entry_block)
        mb.ret(many.args[7])
        main = create_function(module, "main", I64, [])
        b = IRBuilder(main.entry_block)
        b.ret(b.call(many, list(range(8))))
        lowered = lower_function(main)
        opcodes = [inst.opcode for inst in lowered.instructions()]
        assert opcodes.count("push") >= 3  # prologue push + 2 stack args

    def test_tag_intrinsics_lower_inline(self):
        from repro.ir import PointerType
        module = Module("m")
        pointer = PointerType(FunctionType(I64, [], variadic=True))
        extract = module.declare_function("__khaos_extract_tag",
                                          FunctionType(I64, [pointer]))
        target = create_function(module, "target", I64, [])
        IRBuilder(target.entry_block).ret(0)
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        b.ret(b.call(extract, [target]))
        lowered = lower_function(f)
        assert not lowered.call_targets()  # no call emitted for the intrinsic
        assert "sar" in [i.opcode for i in lowered.instructions()]


class TestBinary:
    def test_function_features(self, demo_program):
        binary = lower_program(demo_program)
        classify = binary.get_function("classify")
        assert classify.block_count == 6
        assert classify.edge_count >= 6
        assert classify.size > 0

    def test_call_graph_edges(self, demo_program):
        binary = lower_program(demo_program)
        edges = set(binary.call_graph_edges())
        assert ("main", "classify") in edges
        assert binary.callers_of("classify") == {"main"}
        assert "classify" in binary.callees_of("main")

    def test_strip_anonymises_names(self, demo_program):
        binary = lower_program(demo_program)
        stripped = binary.strip()
        assert stripped.stripped
        assert all(name.startswith("sub_") for name in stripped.function_names())
        # call targets are consistently renamed
        mapping = stripped.metadata["strip_mapping"]
        main = stripped.get_function(mapping["main"])
        assert mapping["classify"] in main.call_targets()

    def test_total_counts(self, demo_program):
        binary = lower_program(demo_program)
        assert binary.total_instructions == sum(
            f.instruction_count for f in binary.functions)
        assert binary.total_size > binary.total_instructions


#: Every scheme of the Figs 6/7 overhead matrix, plus the baseline.
SCHEMES = ("baseline", "sub", "bog", "fla", "fla-10", "fission", "fusion",
           "fufi.sep", "fufi.ori", "fufi.all")


class TestMachineCodePickling:
    """Machine code is slotted (no per-instance ``__dict__``) and survives
    the pickle round trip the artifact store puts it through."""

    def test_machine_code_has_no_instance_dict(self):
        block = MachineBlock("entry")
        inst = block.append("mov", "rax", "rdi")
        assert not hasattr(inst, "__dict__")
        assert not hasattr(block, "__dict__")
        with pytest.raises(AttributeError):
            inst.comment = "slots reject new attributes"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lowered_binary_round_trips(self, scheme):
        from repro.evaluation.overhead import build_variant
        from repro.workloads.suites import load_suite
        binary = build_variant(load_suite("spec2006")[0], scheme).binary
        restored = pickle.loads(pickle.dumps(binary,
                                             protocol=pickle.HIGHEST_PROTOCOL))
        assert restored is not binary
        assert restored.content_digest() == binary.content_digest()
        for before, after in zip(binary.functions, restored.functions,
                                 strict=True):
            assert after.blocks == before.blocks
            for block in after.blocks:
                for inst in block.instructions:
                    assert type(inst) is MachineInstruction
                    assert isinstance(inst.operands, tuple)


class TestHistograms:
    def test_histogram_counts_opcodes(self, demo_program):
        binary = lower_program(demo_program)
        histogram = opcode_histogram(binary)
        assert histogram["mov"] > 0
        assert sum(histogram.values()) == binary.total_instructions

    def test_distance_zero_for_identical(self, demo_program):
        binary = lower_program(demo_program)
        assert opcode_histogram_distance(binary, binary) == 0.0

    def test_distance_positive_after_optimization(self, demo_program):
        o0 = lower_program(demo_program)
        o2 = lower_program(optimize_program(demo_program))
        assert opcode_histogram_distance(o0, o2) > 0.0

    def test_normalised_distances_max_is_one(self, demo_program):
        o0 = lower_program(demo_program)
        o2 = lower_program(optimize_program(demo_program))
        distances = normalised_distances(o0, {"same": o0, "opt": o2})
        assert distances["opt"] == pytest.approx(1.0)
        assert distances["same"] == pytest.approx(0.0)

    def test_disassemble_listing(self, demo_program):
        listing = disassemble(lower_program(demo_program))
        assert "classify" in listing and "push rbp" in listing

    def test_instruction_categories(self):
        assert instruction_category("add") == "arithmetic"
        assert instruction_category("jmp") == "transfer"
        assert instruction_category("call") == "call"
        assert instruction_category("push") == "stack"
        assert instruction_category("cmp") == "compare"
