"""ProgramBuilder: a fluent emission API for RASA instruction streams.

The builder mirrors how Algorithm 1 in the paper is written — load C tiles,
load A/B tiles, issue ``rasa_mm``s, store C tiles — and optionally interleaves
scalar loop-overhead instructions the way LIBXSMM-generated kernels do.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import IsaError
from repro.isa.instructions import (
    Instruction,
    ScalarReg,
    TileReg,
    rasa_mm,
    rasa_tl,
    rasa_ts,
    scalar_op,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


#: One cycle of the scalar loop overhead :meth:`ProgramBuilder.loop_overhead`
#: emits, as (opcode, destination, sources) in scalar register indices: two
#: pointer bumps of the counter ``r0``, a compare into ``r1`` and a branch.
LOOP_OVERHEAD_PATTERN: Tuple[Tuple[Opcode, Optional[int], Tuple[int, ...]], ...] = (
    (Opcode.ADD, 0, (0,)),
    (Opcode.ADD, 0, (0,)),
    (Opcode.CMP, 1, (0,)),
    (Opcode.BRANCH, None, ()),
)


class ProgramBuilder:
    """Incrementally build a :class:`Program`.

    Example (Algorithm 1 from the paper)::

        b = ProgramBuilder("algorithm1")
        tregs = [TileReg(i) for i in range(8)]
        for i, addr in enumerate(c_addrs):            # Step 1: load C tiles
            b.tl(tregs[i], addr)
        b.tl(tregs[4], b0).tl(tregs[6], a0)           # Step 2: compute
        b.mm(tregs[0], tregs[6], tregs[4])
        ...
        for i, addr in enumerate(c_addrs):            # Step 3: store C tiles
            b.ts(addr, tregs[i])
        program = b.build()
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []

    # -- tile instructions ----------------------------------------------------

    def tl(self, dst: TileReg, address: int, stride: int = 64, tag: str = "") -> "ProgramBuilder":
        """Emit a tile load."""
        self._instructions.append(rasa_tl(dst, address, stride, tag=tag))
        return self

    def ts(self, address: int, src: TileReg, stride: int = 64, tag: str = "") -> "ProgramBuilder":
        """Emit a tile store."""
        self._instructions.append(rasa_ts(address, src, stride, tag=tag))
        return self

    def mm(self, c: TileReg, a: TileReg, b: TileReg, tag: str = "") -> "ProgramBuilder":
        """Emit a matmul-accumulate."""
        self._instructions.append(rasa_mm(c, a, b, tag=tag))
        return self

    # -- scalar loop overhead ---------------------------------------------------

    def scalar(
        self,
        opcode: Opcode,
        dst: Optional[ScalarReg] = None,
        srcs: tuple = (),
        tag: str = "",
    ) -> "ProgramBuilder":
        """Emit one scalar instruction."""
        self._instructions.append(scalar_op(opcode, dst=dst, srcs=srcs, tag=tag))
        return self

    def loop_overhead(self, count: int, tag: str = "loop") -> "ProgramBuilder":
        """Emit ``count`` scalar instructions modelling address/loop arithmetic.

        The mix (:data:`LOOP_OVERHEAD_PATTERN`, repeated) approximates the
        pointer-bump and loop-test code LIBXSMM emits between tile
        instructions.
        """
        if count < 0:
            raise IsaError(f"loop_overhead count must be >= 0, got {count}")
        for i in range(count):
            op, dst, srcs = LOOP_OVERHEAD_PATTERN[i % len(LOOP_OVERHEAD_PATTERN)]
            self.scalar(
                op,
                dst=None if dst is None else ScalarReg(dst),
                srcs=tuple(ScalarReg(src) for src in srcs),
                tag=tag,
            )
        return self

    # -- finalization ----------------------------------------------------------

    def extend(self, program: Program) -> "ProgramBuilder":
        """Append all instructions of an existing program."""
        self._instructions.extend(program)
        return self

    def __len__(self) -> int:
        return len(self._instructions)

    def build(self) -> Program:
        """Finalize into an immutable :class:`Program`."""
        return Program(self._instructions, name=self.name)
