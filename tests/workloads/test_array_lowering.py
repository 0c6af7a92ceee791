"""Lowering oracle: the array-native GEMM lowering equals the object walk.

``generate_gemm_program`` lowers a GEMM straight to its
:class:`repro.cpu.decode.DecodedProgram` and builds ``Instruction`` objects
only when something iterates the program.  These tests hold the two forms
to each other, field for field and dtype for dtype:

- every suite's distinct programs at scales 4 and 8;
- hypothesis shapes over m/n/k, every register blocking within the budget,
  both mm orders and scalar overhead counts 0-9;
- the shared writer resolver against the scoreboard loop it replaced, on
  random hand-built programs (multi-source scalar ops included).

They also pin the lazy view itself: ``len()`` and ``.name`` never build the
objects, iteration and indexing do, once.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.decode import DecodedProgram, _decode, decode_program
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS, ScalarReg, TileReg
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite, suite_names
from repro.workloads.tiling import BlockingConfig, MMOrder

#: Programs above this size are left out of the suite oracle, because their
#: object view alone takes from half a gigabyte up: one resnet50-train weight
#: gradient per scale (3.3M instructions at scale 4, 0.9M at scale 8).
#: Every other distinct program (61 at scale 4, 54 at scale 8) is checked.
ORACLE_MAX_INSTRUCTIONS = 200_000

#: Every (bm, bn) the 8-register budget allows.
BLOCKINGS = [
    (bm, bn)
    for bm in range(1, NUM_TILE_REGS)
    for bn in range(1, NUM_TILE_REGS)
    if bm * bn + bm + bn <= NUM_TILE_REGS
]


def assert_same_decode(actual: DecodedProgram, expected: DecodedProgram) -> None:
    for field in dataclasses.fields(DecodedProgram):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(e, np.ndarray):
            assert a.dtype == e.dtype, field.name
            assert a.shape == e.shape, field.name
            assert np.array_equal(a, e), field.name
        else:
            assert a == e, field.name


def assert_lowering_matches_objects(program: Program) -> None:
    """The carried decode equals ``_decode`` of the materialized objects."""
    assert program.decoded is not None and not program.is_materialized
    lowered = program.decoded
    assert_same_decode(lowered, _decode(program))
    assert program.is_materialized
    assert len(program) == lowered.n


def _suite_programs(scale: int) -> List[GemmShape]:
    """Every suite's distinct programs at ``scale``, each once."""
    seen = {}
    for name in suite_names():
        for gemm in get_suite(name, scale=scale).distinct():
            seen[gemm.shape.tile_padded().unlabeled()] = None
    return list(seen)


class TestSuiteOracle:
    @pytest.mark.parametrize("scale", [4, 8])
    def test_every_suite_program(self, scale):
        skipped = 0
        for shape in _suite_programs(scale):
            program = generate_gemm_program(shape)
            if len(program) > ORACLE_MAX_INSTRUCTIONS:
                skipped += 1
                continue
            assert_lowering_matches_objects(program)
        assert skipped <= 1


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 120),
    n=st.integers(1, 120),
    k=st.integers(1, 200),
    blocking=st.sampled_from(BLOCKINGS),
    order=st.sampled_from(list(MMOrder)),
    per_kstep=st.integers(0, 9),
    per_block=st.integers(0, 9),
)
def test_lowering_matches_objects(m, n, k, blocking, order, per_kstep, per_block):
    options = CodegenOptions(
        blocking=BlockingConfig(bm=blocking[0], bn=blocking[1], mm_order=order),
        scalar_overhead_per_kstep=per_kstep,
        scalar_overhead_per_block=per_block,
    )
    assert_lowering_matches_objects(generate_gemm_program(GemmShape(m, n, k), options))


# -- the resolver against the scoreboard walk it replaced ------------------------


def scoreboard_decode(program: Program) -> dict:
    """The per-instruction register scoreboard walk, as a reference."""
    tile_writer = [-1] * NUM_TILE_REGS
    tile_version = [0] * NUM_TILE_REGS
    scalar_writer = [-1] * NUM_SCALAR_REGS
    out: dict = {
        "store_writer": [], "mm_a_writer": [], "mm_b_writer": [],
        "mm_c_writer": [], "mm_b_reg": [], "mm_b_version": [], "alu_reads": [],
    }
    for i, inst in enumerate(program):
        op = inst.opcode
        if op is Opcode.RASA_TL:
            tile_writer[inst.dst.index] = i
            tile_version[inst.dst.index] += 1
        elif op is Opcode.RASA_TS:
            out["store_writer"].append(tile_writer[inst.srcs[0].index])
        elif op is Opcode.RASA_MM:
            a, b, c = inst.mm_a.index, inst.mm_b.index, inst.mm_c.index
            out["mm_a_writer"].append(tile_writer[a])
            out["mm_b_writer"].append(tile_writer[b])
            out["mm_c_writer"].append(tile_writer[c])
            out["mm_b_reg"].append(b)
            out["mm_b_version"].append(tile_version[b])
            tile_writer[c] = i
            tile_version[c] += 1
        else:
            out["alu_reads"].append(
                tuple(scalar_writer[src.index] for src in inst.scalar_reads)
            )
            for dst in inst.scalar_writes:
                scalar_writer[dst.index] = i
    return out


@st.composite
def mixed_programs(draw):
    """Random well-formed streams, scalar ops with 0-3 sources included."""
    builder = ProgramBuilder("mixed")
    written = {0}
    builder.tl(TileReg(0), 0x0)
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(["tl", "ts", "mm", "scalar", "branch"]))
        if kind == "tl":
            reg = draw(st.integers(0, NUM_TILE_REGS - 1))
            builder.tl(TileReg(reg), draw(st.integers(0, 1 << 16)) * 64,
                       stride=draw(st.sampled_from([64, 128])))
            written.add(reg)
        elif kind == "ts":
            builder.ts(draw(st.integers(0, 1 << 16)) * 64,
                       TileReg(draw(st.sampled_from(sorted(written)))))
        elif kind == "mm":
            regs = [TileReg(draw(st.sampled_from(sorted(written)))) for _ in range(3)]
            builder.mm(*regs)
        elif kind == "scalar":
            srcs = draw(st.lists(st.integers(0, NUM_SCALAR_REGS - 1), max_size=3))
            builder.scalar(
                draw(st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.CMP])),
                dst=ScalarReg(draw(st.integers(0, NUM_SCALAR_REGS - 1))),
                srcs=tuple(ScalarReg(s) for s in srcs),
            )
        else:
            builder.scalar(Opcode.BRANCH)
    return builder.build()


@settings(max_examples=80, deadline=None)
@given(program=mixed_programs())
def test_resolver_matches_the_scoreboard_walk(program):
    decoded = decode_program(program)
    expected = scoreboard_decode(program)
    for name in ("store_writer", "mm_a_writer", "mm_b_writer", "mm_c_writer",
                 "mm_b_reg", "mm_b_version"):
        assert getattr(decoded, name).tolist() == expected[name], name
    # alu_reads pads short source lists with -1, which reads as "reset".
    width = decoded.alu_reads.shape[1]
    assert width == max([1] + [len(r) for r in expected["alu_reads"]])
    padded = [list(r) + [-1] * (width - len(r)) for r in expected["alu_reads"]]
    assert decoded.alu_reads.tolist() == padded


# -- the lazy object view ---------------------------------------------------------


class TestLazyView:
    def test_len_and_name_do_not_build_objects(self):
        program = generate_gemm_program(GemmShape(64, 48, 96, name="fc"))
        assert len(program) == program.decoded.n > 0
        assert program.name == "fc"
        assert decode_program(program) is program.decoded
        assert not program.is_materialized

    def test_indexing_builds_once_and_matches_the_decode(self):
        program = generate_gemm_program(GemmShape(32, 32, 64))
        first = program[0]
        assert program.is_materialized
        assert first is program[0]
        assert first.opcode is Opcode.RASA_TL
        assert len(list(program)) == len(program)

    def test_object_programs_carry_no_decode(self):
        program = ProgramBuilder("plain").tl(TileReg(0), 0x0).build()
        assert program.decoded is None and program.is_materialized
        assert decode_program(program) is decode_program(program)
