"""Shared fixtures: small hand-built programs and a fresh shared store."""

from __future__ import annotations

import pytest

from repro.ir import (FunctionType, IRBuilder, Module, PointerType, Program,
                      assert_valid, create_function, I64)


@pytest.fixture
def tmp_store(tmp_path, monkeypatch):
    """A fresh shared-store root, exported and cleaned up.

    Yields an empty directory path with ``REPRO_STORE_DIR`` pointing at it,
    so executor workers (and the in-process serial path) attach to exactly
    this tree.
    The process-local worker cache is reset on both sides of the test —
    store-backed scenarios must never leak an attached store into each
    other; ``monkeypatch`` restores the environment afterwards.
    """
    from repro.evaluation.executor import reset_worker_cache
    root = str(tmp_path / "store")
    monkeypatch.setenv("REPRO_STORE_DIR", root)
    # a leaked server URL would silently win over the local tree
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    monkeypatch.delenv("REPRO_STORE_CACHE_DIR", raising=False)
    reset_worker_cache()
    yield root
    reset_worker_cache()


def build_demo_program() -> Program:
    """A small but representative program.

    It contains a loop-and-branch function (fission material), two functions
    with compatible signatures (fusion material), an indirect call through a
    function pointer (tagged-pointer handling) and a ``main`` that prints
    observable values through ``putint``.
    """
    module = Module("demo")
    putint = module.declare_function("putint", FunctionType(I64, [I64]))

    classify = create_function(module, "classify", I64, [I64], ["x"])
    b = IRBuilder(classify.entry_block)
    acc = b.alloca(I64, name="acc")
    b.store(0, acc)
    negative = classify.add_block("negative")
    positive = classify.add_block("positive")
    loop = classify.add_block("loop")
    body = classify.add_block("body")
    done = classify.add_block("done")
    b.cond_br(b.icmp("slt", classify.args[0], 0), negative, positive)
    b.position_at_end(negative)
    b.store(b.sub(0, classify.args[0]), acc)
    b.br(done)
    b.position_at_end(positive)
    index = b.alloca(I64, name="i")
    b.store(0, index)
    b.br(loop)
    b.position_at_end(loop)
    current = b.load(index)
    b.cond_br(b.icmp("slt", current, classify.args[0]), body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(acc), current), acc)
    b.store(b.add(current, 1), index)
    b.br(loop)
    b.position_at_end(done)
    b.ret(b.load(acc))

    scale = create_function(module, "scale", I64, [I64, I64], ["a", "b"])
    bs = IRBuilder(scale.entry_block)
    bs.ret(bs.add(bs.mul(scale.args[0], 3), scale.args[1]))

    mix = create_function(module, "mix", I64, [I64, I64], ["a", "b"])
    bm = IRBuilder(mix.entry_block)
    bm.ret(bm.xor(bm.add(mix.args[0], mix.args[1]), 7))

    pointer_type = PointerType(FunctionType(I64, [I64, I64]))
    select_op = create_function(module, "select_op", I64, [I64, I64, I64],
                                ["which", "a", "b"])
    bo = IRBuilder(select_op.entry_block)
    slot = bo.alloca(pointer_type, name="fp")
    use_scale = select_op.add_block("use_scale")
    use_mix = select_op.add_block("use_mix")
    join = select_op.add_block("join")
    bo.cond_br(bo.icmp("eq", select_op.args[0], 0), use_scale, use_mix)
    bo.position_at_end(use_scale)
    bo.store(scale, slot)
    bo.br(join)
    bo.position_at_end(use_mix)
    bo.store(mix, slot)
    bo.br(join)
    bo.position_at_end(join)
    handler = bo.load(slot)
    bo.ret(bo.call(handler, [select_op.args[1], select_op.args[2]]))

    main = create_function(module, "main", I64, [])
    bmain = IRBuilder(main.entry_block)
    for value in (-5, 0, 7):
        bmain.call(putint, [bmain.call(classify, [value])])
    bmain.call(putint, [bmain.call(scale, [4, 9])])
    bmain.call(putint, [bmain.call(mix, [4, 9])])
    bmain.call(putint, [bmain.call(select_op, [0, 2, 3])])
    bmain.call(putint, [bmain.call(select_op, [1, 2, 3])])
    bmain.ret(0)

    assert_valid(module)
    return Program("demo", [module])


@pytest.fixture
def demo_program() -> Program:
    return build_demo_program()


@pytest.fixture
def demo_module(demo_program) -> Module:
    return demo_program.modules[0]
