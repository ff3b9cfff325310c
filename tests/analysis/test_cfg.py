"""CFG recovery over the fixed-width ISA."""

import pytest

from repro.analysis.cfg import (
    CfgDecodeError,
    TERMINATORS,
    build_cfg,
    decode_section,
)
from repro.hw.isa import I, INSTR_SIZE, assemble

VA = 0x1000


def test_straight_line_is_one_block():
    cfg = build_cfg(assemble([I("nop"), I("addi", "rax", imm=1), I("ret")]),
                    VA)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[VA].end_va == VA + 3 * INSTR_SIZE
    assert cfg.edges == []


def test_branch_splits_blocks_and_adds_edges():
    #   0: cmpi rax, 0
    #   1: jz -> 3
    #   2: addi rax, 1     (fall-through of the jz)
    #   3: ret             (branch target)
    cfg = build_cfg(assemble([
        I("cmpi", "rax", imm=0),
        I("jz", imm=VA + 3 * INSTR_SIZE),
        I("addi", "rax", imm=1),
        I("ret"),
    ]), VA)
    assert set(cfg.blocks) == {VA, VA + 2 * INSTR_SIZE, VA + 3 * INSTR_SIZE}
    kinds = {(e.src, e.dst): e.kind for e in cfg.edges}
    assert kinds[(VA, VA + 3 * INSTR_SIZE)] == "branch"
    assert kinds[(VA, VA + 2 * INSTR_SIZE)] == "fall"
    assert kinds[(VA + 2 * INSTR_SIZE, VA + 3 * INSTR_SIZE)] == "fall"


def test_call_has_call_edge_and_fall_through():
    target = VA + 3 * INSTR_SIZE
    cfg = build_cfg(assemble([
        I("call", imm=target),
        I("hlt"),
        I("nop"),
        I("ret"),
    ]), VA)
    kinds = {(e.src, e.dst): e.kind for e in cfg.edges}
    assert kinds[(VA, target)] == "call"
    assert kinds[(VA, VA + INSTR_SIZE)] == "fall"


def test_terminators_have_no_successors():
    for op in sorted(TERMINATORS):
        cfg = build_cfg(assemble([I(op), I("nop"), I("ret")]), VA)
        assert all(e.src != VA for e in cfg.edges), op


def test_movi_icall_peephole_recovers_target():
    target = VA + 3 * INSTR_SIZE
    cfg = build_cfg(assemble([
        I("movi", "rbx", imm=target),
        I("icall", "rbx"),
        I("ret"),
        I("endbr"),
        I("ret"),
    ]), VA)
    [site] = cfg.indirect_sites
    assert site.op == "icall" and site.reg == "rbx"
    assert site.target == target
    kinds = {(e.src, e.dst): e.kind for e in cfg.edges}
    assert kinds[(VA, target)] == "indirect"
    # an icall returns: fall-through to the next slot
    assert kinds[(VA, VA + 2 * INSTR_SIZE)] == "fall"


def test_unknown_indirect_target_is_none():
    cfg = build_cfg(assemble([
        I("mov", "rbx", "rcx"),
        I("ijmp", "rbx"),
    ]), VA)
    [site] = cfg.indirect_sites
    assert site.target is None


def test_peephole_requires_matching_register():
    cfg = build_cfg(assemble([
        I("movi", "rcx", imm=VA),      # feeds rcx, branch uses rbx
        I("ijmp", "rbx"),
    ]), VA)
    [site] = cfg.indirect_sites
    assert site.target is None


def test_decode_error_carries_offset():
    blob = assemble([I("nop")]) + b"\xEE" + b"\x00" * (INSTR_SIZE - 1)
    with pytest.raises(CfgDecodeError) as exc:
        decode_section(blob, VA)
    assert exc.value.offset == INSTR_SIZE


def test_unaligned_length_rejected():
    with pytest.raises(CfgDecodeError):
        decode_section(b"\x01" * (INSTR_SIZE + 3), VA)


def test_reachability():
    #   0: jmp -> 2
    #   1: nop          (dead)
    #   2: ret
    cfg = build_cfg(assemble([
        I("jmp", imm=VA + 2 * INSTR_SIZE),
        I("nop"),
        I("ret"),
    ]), VA)
    # the jmp's one successor is its target; no edge reaches the nop
    assert [(e.src, e.dst) for e in cfg.edges if e.src == VA] == [
        (VA, VA + 2 * INSTR_SIZE)]
    assert all(e.dst != VA + INSTR_SIZE for e in cfg.edges)
