"""Shared structure-of-arrays program pre-decode for the vectorized fast model.

The scalar :class:`repro.cpu.fast.FastCoreModel` re-walks ``Instruction``
objects once per design — for a table1 sweep that is 8 identical attribute
walks over every program.  A :class:`DecodedProgram` holds the same stream
once, as numpy arrays (instruction kinds, memory operands) plus, per
instruction class, the *writer index* of every register operand — the
program-order index of the instruction whose result the operand reads, or
``-1`` when the operand still holds its reset value.

Writer indices are the key design move: they eliminate the per-design
``tile_ready`` / ``scalar_ready`` register scoreboards entirely.  At run
time a reader's operand-readiness is simply ``complete[writer]``, so the
decoded form is design-independent and one decode is shared by all designs
(and by both the vectorized kernel and any future consumer).

A decode is built in two steps.  First a producer fills
:class:`StreamColumns`, one row of register and memory operands per
instruction: either :func:`stream_columns` walking ``Instruction`` objects,
or the array-native GEMM lowering in :mod:`repro.workloads.codegen`, which
never builds objects at all.  Then :func:`resolve` turns the columns into a
:class:`DecodedProgram`, finding every operand's writer with one
``searchsorted`` over the stream's register writes — so writer semantics are
defined once, for both producers.  :func:`decode_program` returns the decode
a program already carries (the lowering attaches it) and otherwise walks the
objects once, memoized on program identity, riding the same object-reuse
discipline as :func:`repro.runtime.session.cached_program`.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Tuple

import numpy as np

from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Instruction-kind codes stored in :attr:`DecodedProgram.kind`.
KIND_LOAD = 0
KIND_STORE = 1
KIND_MM = 2
KIND_ALU = 3

#: Object decodes retained; matches the program memo so a decode lives
#: exactly as long as sweeps keep handing out the same :class:`Program`.
DECODE_CACHE_SIZE = 256


@dataclasses.dataclass(frozen=True, eq=False)
class DecodedProgram:
    """Design-independent structure-of-arrays view of one program.

    All ``*_pos`` arrays hold program-order instruction indices (int64,
    ascending); all ``*_writer`` arrays hold the program-order index of the
    instruction that produced the operand's value, or ``-1`` for the reset
    value (readiness 0.0).  Equality is identity (``eq=False``): decodes
    are cached per program object and never compared by content.
    """

    n: int
    #: Per-instruction kind code (``KIND_*``), length ``n``.
    kind: np.ndarray
    # -- tile loads --------------------------------------------------------
    load_pos: np.ndarray
    load_addr: np.ndarray
    load_stride: np.ndarray
    # -- tile stores -------------------------------------------------------
    store_pos: np.ndarray
    #: Writer of the stored tile register (a load or an mm), or ``-1``.
    store_writer: np.ndarray
    # -- matrix multiplies -------------------------------------------------
    mm_pos: np.ndarray
    mm_a_writer: np.ndarray
    mm_b_writer: np.ndarray
    mm_c_writer: np.ndarray
    #: Architectural B register index — half of the WLBP weight key.
    mm_b_reg: np.ndarray
    #: Write count of the B register before this mm — the other half: the
    #: scalar model's ``tile_version[b]`` at the moment it schedules the mm.
    mm_b_version: np.ndarray
    # -- scalar ALU / branch ----------------------------------------------
    alu_pos: np.ndarray
    #: ``(len(alu_pos), width)`` writers of each ALU op's scalar sources,
    #: in ISA order; ``-1`` pads ops with fewer than ``width`` sources, which
    #: reads exactly like a reset-value operand (ready at 0.0).
    alu_reads: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class StreamColumns:
    """Per-instruction operand columns: the input of :func:`resolve`.

    Every array has one row per instruction (int64 unless noted); register
    columns hold architectural indices, ``-1`` where there is no operand.
    """

    #: ``KIND_*`` code per instruction (int8).
    kind: np.ndarray
    #: Memory operand of tile loads and stores (0 elsewhere).
    address: np.ndarray
    stride: np.ndarray
    #: Tile register written: a load's destination, an mm's C.
    tile_dst: np.ndarray
    #: ``(n, 3)`` tile registers read: a store's source in column 0, an
    #: mm's ``(C, A, B)``.
    tile_src: np.ndarray
    #: Scalar register written.
    scalar_dst: np.ndarray
    #: ``(n, width)`` scalar registers read, in ISA order.
    scalar_src: np.ndarray


def stream_columns(program: Program) -> StreamColumns:
    """One walk over ``program``'s instruction objects, filling the columns."""
    kind: List[int] = []
    address: List[int] = []
    stride: List[int] = []
    tile_dst: List[int] = []
    tile_src: List[Tuple[int, ...]] = []
    scalar_dst: List[int] = []
    scalar_src: List[Tuple[int, ...]] = []
    no_tiles = (-1, -1, -1)
    for inst in program:
        op = inst.opcode
        mem = inst.mem
        address.append(mem.address if mem is not None else 0)
        stride.append(mem.stride if mem is not None else 0)
        if op.is_tile:
            kind.append(
                KIND_LOAD if op is Opcode.RASA_TL
                else KIND_STORE if op is Opcode.RASA_TS
                else KIND_MM
            )
            tile_dst.append(inst.dst.index if inst.dst is not None else -1)
            srcs = tuple(src.index for src in inst.srcs)
            tile_src.append(srcs + no_tiles[len(srcs):])
            scalar_dst.append(-1)
            scalar_src.append(())
        else:  # scalar ALU / branch
            kind.append(KIND_ALU)
            tile_dst.append(-1)
            tile_src.append(no_tiles)
            writes = inst.scalar_writes
            scalar_dst.append(writes[0].index if writes else -1)
            scalar_src.append(tuple(src.index for src in inst.scalar_reads))
    width = max([1] + [len(srcs) for srcs in scalar_src])
    padded = [srcs + (-1,) * (width - len(srcs)) for srcs in scalar_src]
    n = len(kind)
    return StreamColumns(
        kind=np.asarray(kind, dtype=np.int8),
        address=np.asarray(address, dtype=np.int64),
        stride=np.asarray(stride, dtype=np.int64),
        tile_dst=np.asarray(tile_dst, dtype=np.int64),
        tile_src=np.asarray(tile_src, dtype=np.int64).reshape(n, 3),
        scalar_dst=np.asarray(scalar_dst, dtype=np.int64),
        scalar_src=np.asarray(padded, dtype=np.int64).reshape(n, width),
    )


class _Writes:
    """Every write to one register file, sorted by ``(register, position)``.

    A write at position ``p`` to register ``r`` is the key ``r * span + p``
    (``span = n + 1``), so one ``searchsorted`` answers "which writes to
    ``r`` precede ``p``" for any number of reads at once.
    """

    def __init__(self, dst: np.ndarray) -> None:
        self.span = len(dst) + 1
        pos = np.flatnonzero(dst >= 0)
        # The leading sentinel sorts below every real key, so "the last
        # write before" always has a valid index to look at.
        self.keys = np.concatenate(
            (np.array([-self.span], dtype=np.int64), np.sort(dst[pos] * self.span + pos))
        )

    def before(self, pos: np.ndarray, reg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(writer, version)`` of register ``reg`` as read at ``pos``.

        ``writer`` is the last instruction before ``pos`` that wrote ``reg``
        (``-1`` if none, or if ``reg`` is ``-1``: no operand); ``version``
        counts the writes to ``reg`` before ``pos``.  A read and a write at
        the same position (an mm's C) see the *previous* writer.
        """
        first = np.searchsorted(self.keys, reg * self.span)
        last = np.searchsorted(self.keys, reg * self.span + pos)
        version = (last - first).astype(np.int64)
        writer = np.where(
            (version > 0) & (reg >= 0), self.keys[last - 1] % self.span, -1
        ).astype(np.int64)
        return writer, version


def resolve(columns: StreamColumns) -> DecodedProgram:
    """Resolve every operand's writer: columns -> :class:`DecodedProgram`."""
    kind = columns.kind
    load_pos, store_pos, mm_pos, alu_pos = (
        np.flatnonzero(kind == code).astype(np.int64)
        for code in (KIND_LOAD, KIND_STORE, KIND_MM, KIND_ALU)
    )
    tiles = _Writes(columns.tile_dst)
    store_writer, _ = tiles.before(store_pos, columns.tile_src[store_pos, 0])
    mm_c_writer, _ = tiles.before(mm_pos, columns.tile_src[mm_pos, 0])
    mm_a_writer, _ = tiles.before(mm_pos, columns.tile_src[mm_pos, 1])
    mm_b_reg = columns.tile_src[mm_pos, 2]
    mm_b_writer, mm_b_version = tiles.before(mm_pos, mm_b_reg)
    alu_src = columns.scalar_src[alu_pos]
    alu_reads, _ = _Writes(columns.scalar_dst).before(alu_pos[:, None], alu_src)
    return DecodedProgram(
        n=len(kind),
        kind=kind,
        load_pos=load_pos,
        load_addr=columns.address[load_pos],
        load_stride=columns.stride[load_pos],
        store_pos=store_pos,
        store_writer=store_writer,
        mm_pos=mm_pos,
        mm_a_writer=mm_a_writer,
        mm_b_writer=mm_b_writer,
        mm_c_writer=mm_c_writer,
        mm_b_reg=mm_b_reg,
        mm_b_version=mm_b_version,
        alu_pos=alu_pos,
        alu_reads=alu_reads,
    )


def _decode(program: Program) -> DecodedProgram:
    """Decode ``program`` from its instruction objects (see module doc)."""
    return resolve(stream_columns(program))


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode_objects(program: Program) -> DecodedProgram:
    return _decode(program)


def decode_program(program: Program) -> DecodedProgram:
    """The :class:`DecodedProgram` of ``program``.

    A program lowered by :func:`repro.workloads.codegen.generate_gemm_program`
    carries its decode, which is returned as is: no instruction object is
    built or walked.  Any other program is walked once, memoized on program
    *identity* (:class:`repro.isa.program.Program` hashes by object); the
    session layer (``cached_program``) hands every design the same object per
    distinct (shape, codegen) point, so all 8 designs share one decode.  A
    logically equal program built twice decodes twice — wasteful but
    correct.  ``decode_program.cache_info()`` counts the object walks only.
    """
    if program.decoded is not None:
        return program.decoded
    return _decode_objects(program)


decode_program.cache_info = _decode_objects.cache_info
