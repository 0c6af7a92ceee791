"""Program container: an ordered instruction stream plus summary statistics."""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
    overload,
)

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode

if TYPE_CHECKING:
    from repro.cpu.decode import DecodedProgram


@dataclasses.dataclass(frozen=True)
class ProgramStats:
    """Instruction-mix statistics of a program."""

    total: int
    tile_loads: int
    tile_stores: int
    matmuls: int
    scalars: int

    @property
    def tile_fraction(self) -> float:
        """Fraction of instructions that are tile instructions."""
        if not self.total:
            return 0.0
        return (self.tile_loads + self.tile_stores + self.matmuls) / self.total


class Program:
    """An ordered sequence of :class:`Instruction` — one dynamic trace.

    Programs are what the code generator emits and what both CPU models
    consume.  They behave like immutable sequences; use
    :class:`repro.isa.builder.ProgramBuilder` to construct them.

    A program built with :meth:`lazy` starts as its
    :class:`repro.cpu.decode.DecodedProgram` alone (:attr:`decoded`): the
    vectorized ``fast`` model reads only that, so a sweep never pays for
    instruction objects.  The objects are built on first iteration or
    indexing and kept; ``len()`` and :attr:`name` never build them.
    """

    def __init__(self, instructions: Iterable[Instruction], name: str = "program") -> None:
        self._instructions: Optional[List[Instruction]] = list(instructions)
        self._build: Optional[Callable[[], Iterable[Instruction]]] = None
        self._length = len(self._instructions)
        self.name = name
        #: The structure-of-arrays decode this program carries, if any.
        self.decoded: Optional["DecodedProgram"] = None

    @classmethod
    def lazy(
        cls,
        decoded: "DecodedProgram",
        build: Callable[[], Iterable[Instruction]],
        name: str = "program",
    ) -> "Program":
        """A program known by its decode; ``build()`` makes the objects.

        ``build`` must yield exactly the stream ``decoded`` describes (the
        lowering-oracle tests hold the GEMM lowering to that).
        """
        program = cls((), name=name)
        program._instructions = None
        program._build = build
        program._length = decoded.n
        program.decoded = decoded
        return program

    @property
    def is_materialized(self) -> bool:
        """Whether the instruction objects exist yet."""
        return self._instructions is not None

    @property
    def _objects(self) -> List[Instruction]:
        if self._instructions is None:
            assert self._build is not None
            self._instructions = list(self._build())
            self._build = None
        return self._instructions

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._objects)

    @overload
    def __getitem__(self, index: int) -> Instruction: ...

    @overload
    def __getitem__(self, index: slice) -> "Program": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Instruction, "Program"]:
        if isinstance(index, slice):
            return Program(
                self._objects[index],
                name=f"{self.name}[{index.start}:{index.stop}]",
            )
        return self._objects[index]

    def __add__(self, other: "Program") -> "Program":
        return Program(
            self._objects + other._objects,
            name=f"{self.name}+{other.name}",
        )

    @property
    def stats(self) -> ProgramStats:
        """Compute the instruction-mix statistics."""
        loads = stores = matmuls = scalars = 0
        for inst in self._objects:
            if inst.opcode is Opcode.RASA_TL:
                loads += 1
            elif inst.opcode is Opcode.RASA_TS:
                stores += 1
            elif inst.opcode is Opcode.RASA_MM:
                matmuls += 1
            else:
                scalars += 1
        return ProgramStats(
            total=len(self),
            tile_loads=loads,
            tile_stores=stores,
            matmuls=matmuls,
            scalars=scalars,
        )

    def matmuls(self) -> List[Instruction]:
        """Return just the ``rasa_mm`` instructions, in program order."""
        return [i for i in self._objects if i.opcode is Opcode.RASA_MM]

    def weight_reuse_fraction(self) -> float:
        """Fraction of ``rasa_mm`` whose B register repeats the previous mm's B
        with no intervening write to it — the upper bound on WLBP bypasses.
        """
        mms_seen = 0
        reuses = 0
        last_b = None
        dirty = True
        for inst in self._objects:
            if inst.opcode is Opcode.RASA_MM:
                if mms_seen and inst.mm_b == last_b and not dirty:
                    reuses += 1
                mms_seen += 1
                last_b = inst.mm_b
                dirty = False
            elif last_b is not None and last_b in inst.tile_writes:
                dirty = True
        if not mms_seen:
            return 0.0
        return reuses / mms_seen

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"Program({self.name!r}, {s.total} insts: {s.matmuls} mm, "
            f"{s.tile_loads} tl, {s.tile_stores} ts, {s.scalars} scalar)"
        )
