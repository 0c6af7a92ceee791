"""LIBXSMM-style code generation: GEMM -> RASA instruction stream.

This substitutes for the paper's Intel-SDE trace collection: instead of
tracing LIBXSMM binaries, we generate the equivalent dynamic stream
directly — the same C-resident register-blocked loop nest, the same
Algorithm-1 register assignment and mm ordering, plus configurable scalar
loop overhead standing in for the pointer arithmetic between tile ops.

The generator also lays the three operand matrices out in simulation memory
(A row-major BF16, B VNNI-packed BF16, C row-major FP32) so the very same
program can be executed functionally and checked against the NumPy oracle.

The stream is lowered straight to its structure-of-arrays decode
(:class:`repro.cpu.decode.DecodedProgram`), which is all the vectorized
``fast`` model reads: each register block's instructions are laid out once
per block geometry (a GEMM has at most four — full, right edge, bottom edge,
corner) as a table of operand columns, tiled over the K steps, gathered into
block order with numpy, and given their ``HostMatrix`` tile addresses.  The
``Instruction`` objects — what asm, the verifier, the bounds and the
``fast-ref``/``ooo``/``engine`` models walk — are built through
:func:`_emit_block` only when something iterates or indexes the program
(:meth:`repro.isa.program.Program.lazy`).  The lowering-oracle tests hold the
two forms field-for-field equal.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.decode import (
    KIND_ALU,
    KIND_LOAD,
    KIND_MM,
    KIND_STORE,
    StreamColumns,
    resolve,
)
from repro.errors import WorkloadError
from repro.isa.builder import LOOP_OVERHEAD_PATTERN, ProgramBuilder
from repro.isa.program import Program
from repro.tile.hostmem import HostMatrix, layout_gemm_operands
from repro.tile.memory import TileMemory
from repro.tile.vnni import pack_b_vnni
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import Block, BlockingConfig, TileLoopNest


@dataclasses.dataclass(frozen=True)
class CodegenOptions:
    """Code generation knobs.

    Attributes:
        blocking: register blocking + mm ordering.
        scalar_overhead_per_kstep: scalar instructions emitted per K step
            (pointer bumps / loop test), approximating LIBXSMM's overhead.
        scalar_overhead_per_block: scalar instructions per register block
            (block setup / loop control).
    """

    blocking: BlockingConfig = BlockingConfig()
    scalar_overhead_per_kstep: int = 2
    scalar_overhead_per_block: int = 6


@dataclasses.dataclass
class GemmKernel:
    """A generated kernel: the program plus its operand layout in memory."""

    shape: GemmShape            # logical (possibly unaligned) dimensions
    padded: GemmShape           # tile-aligned dimensions the program covers
    options: CodegenOptions
    a_host: HostMatrix
    b_host: HostMatrix          # VNNI-packed: (K/2) x (2N)
    c_host: HostMatrix
    program: Program

    def write_inputs(
        self,
        memory: TileMemory,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
    ) -> None:
        """Zero-pad operands to the padded shape and place them in memory."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != (self.shape.m, self.shape.k):
            raise WorkloadError(f"A must be {self.shape.m}x{self.shape.k}, got {a.shape}")
        if b.shape != (self.shape.k, self.shape.n):
            raise WorkloadError(f"B must be {self.shape.k}x{self.shape.n}, got {b.shape}")
        pa = np.zeros((self.padded.m, self.padded.k), dtype=np.float32)
        pa[: self.shape.m, : self.shape.k] = a
        pb = np.zeros((self.padded.k, self.padded.n), dtype=np.float32)
        pb[: self.shape.k, : self.shape.n] = b
        pc = np.zeros((self.padded.m, self.padded.n), dtype=np.float32)
        if c is not None:
            c = np.asarray(c, dtype=np.float32)
            if c.shape != (self.shape.m, self.shape.n):
                raise WorkloadError(
                    f"C must be {self.shape.m}x{self.shape.n}, got {c.shape}"
                )
            pc[: self.shape.m, : self.shape.n] = c
        self.a_host.store(memory, pa)
        self.b_host.store(memory, pack_b_vnni(pb))
        self.c_host.store(memory, pc)

    def read_result(self, memory: TileMemory) -> np.ndarray:
        """Read back the (unpadded) M x N float32 result."""
        full = self.c_host.load(memory)
        return full[: self.shape.m, : self.shape.n]


def _emit_block(
    builder: ProgramBuilder,
    block: Block,
    kernel_shape: GemmShape,
    options: CodegenOptions,
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> None:
    blocking = options.blocking
    # Step 1: load the C block.
    for i in range(block.bm):
        for j in range(block.bn):
            addr = c_host.tile_address(block.m0 + i, block.n0 + j)
            builder.tl(blocking.c_reg(i, j), addr, c_host.stride,
                       tag=f"C[{block.m0 + i},{block.n0 + j}]")
    # Step 2: stream the K dimension, computing partial sums.
    for k in range(kernel_shape.k_tiles):
        for i in range(block.bm):
            addr = a_host.tile_address(block.m0 + i, k)
            builder.tl(blocking.a_reg(i), addr, a_host.stride,
                       tag=f"A[{block.m0 + i},{k}]")
        for j in range(block.bn):
            addr = b_host.tile_address(k, block.n0 + j)
            builder.tl(blocking.b_reg(j), addr, b_host.stride,
                       tag=f"B[{k},{block.n0 + j}]")
        for i, j in block.mm_pairs(blocking.mm_order):
            builder.mm(
                blocking.c_reg(i, j),
                blocking.a_reg(i),
                blocking.b_reg(j),
                tag=f"mm[{block.m0 + i},{block.n0 + j},{k}]",
            )
        builder.loop_overhead(options.scalar_overhead_per_kstep, tag="kstep")
    # Step 3: store the C block.
    for i in range(block.bm):
        for j in range(block.bn):
            addr = c_host.tile_address(block.m0 + i, block.n0 + j)
            builder.ts(addr, blocking.c_reg(i, j), c_host.stride,
                       tag=f"C[{block.m0 + i},{block.n0 + j}]")
    builder.loop_overhead(options.scalar_overhead_per_block, tag="block")


def _emit_program(
    padded: GemmShape,
    options: CodegenOptions,
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> Program:
    """The stream as validated ``Instruction`` objects (the object view)."""
    builder = ProgramBuilder()
    for block in TileLoopNest(padded, options.blocking).blocks():
        _emit_block(builder, block, padded, options, a_host, b_host, c_host)
    return builder.build()


# -- array-native lowering ----------------------------------------------------------
#
# A template row is one instruction of a register block: its operand columns
# (kind, tile dst, tile srcs C/A/B, scalar dst, scalar src) and its memory
# operand as (matrix, block-local row i, block-local column j, K step).  The
# rows mirror _emit_block's order exactly.

_MATRIX_A, _MATRIX_B, _MATRIX_C = 0, 1, 2
_NO_TILES = (-1, -1, -1)
_Row = Tuple[int, ...]


def _tile_row(
    kind: int,
    dst: int = -1,
    srcs: Tuple[int, int, int] = _NO_TILES,
    matrix: int = -1,
    i: int = 0,
    j: int = 0,
) -> _Row:
    return (kind, dst, *srcs, -1, -1, matrix, i, j)


def _overhead_rows(count: int) -> List[_Row]:
    rows = []
    for q in range(count):
        _, dst, srcs = LOOP_OVERHEAD_PATTERN[q % len(LOOP_OVERHEAD_PATTERN)]
        rows.append((
            KIND_ALU, -1, *_NO_TILES,
            -1 if dst is None else dst, srcs[0] if srcs else -1,
            -1, 0, 0,
        ))
    return rows


def _block_template(block: Block, k_tiles: int, options: CodegenOptions) -> np.ndarray:
    """The template rows of one register block, plus its K-step column."""
    blocking = options.blocking
    rm, rn = range(block.bm), range(block.bn)
    c = [[blocking.c_reg(i, j).index for j in rn] for i in rm]
    a = [blocking.a_reg(i).index for i in rm]
    b = [blocking.b_reg(j).index for j in rn]
    head = [_tile_row(KIND_LOAD, dst=c[i][j], matrix=_MATRIX_C, i=i, j=j)
            for i in rm for j in rn]
    step = (
        [_tile_row(KIND_LOAD, dst=a[i], matrix=_MATRIX_A, i=i) for i in rm]
        + [_tile_row(KIND_LOAD, dst=b[j], matrix=_MATRIX_B, j=j) for j in rn]
        + [_tile_row(KIND_MM, dst=c[i][j], srcs=(c[i][j], a[i], b[j]))
           for i, j in block.mm_pairs(blocking.mm_order)]
        + _overhead_rows(options.scalar_overhead_per_kstep)
    )
    tail = (
        [_tile_row(KIND_STORE, srcs=(c[i][j], -1, -1), matrix=_MATRIX_C, i=i, j=j)
         for i in rm for j in rn]
        + _overhead_rows(options.scalar_overhead_per_block)
    )

    def table(rows: Sequence[_Row]) -> np.ndarray:
        return np.array(rows, dtype=np.int64).reshape(len(rows), -1)

    body = np.concatenate([table(head), np.tile(table(step), (k_tiles, 1)), table(tail)])
    k_step = np.concatenate([
        np.zeros(len(head), dtype=np.int64),
        np.repeat(np.arange(k_tiles, dtype=np.int64), len(step)),
        np.zeros(len(tail), dtype=np.int64),
    ])
    return np.column_stack([body, k_step])


def _lower_columns(
    padded: GemmShape,
    options: CodegenOptions,
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> StreamColumns:
    """The whole stream's operand columns, without one ``Instruction``."""
    blocks = list(TileLoopNest(padded, options.blocking).blocks())
    geometry_index: Dict[Tuple[int, int], int] = {}
    templates: List[np.ndarray] = []
    geometry = np.empty(len(blocks), dtype=np.int64)
    for b, block in enumerate(blocks):
        key = (block.bm, block.bn)
        if key not in geometry_index:
            geometry_index[key] = len(templates)
            templates.append(_block_template(block, padded.k_tiles, options))
        geometry[b] = geometry_index[key]
    lengths = np.array([len(t) for t in templates], dtype=np.int64)
    block_len = lengths[geometry]
    n = int(block_len.sum())
    # Instruction p of a block starting at s with a template at offset o is
    # template row o + (p - s): one gather lays every block out in order.
    template_start = np.cumsum(lengths) - lengths
    block_start = np.cumsum(block_len) - block_len
    rows = np.concatenate(templates)[
        np.arange(n, dtype=np.int64)
        + np.repeat(template_start[geometry] - block_start, block_len)
    ]
    (kind, tile_dst, src_c, src_a, src_b, scalar_dst, scalar_src,
     matrix, i, j, k) = rows.T
    m0 = np.repeat(np.array([blk.m0 for blk in blocks], dtype=np.int64), block_len)
    n0 = np.repeat(np.array([blk.n0 for blk in blocks], dtype=np.int64), block_len)
    address = np.zeros(n, dtype=np.int64)
    stride = np.zeros(n, dtype=np.int64)
    for code, host, row_tile, col_tile in (
        (_MATRIX_A, a_host, m0 + i, k),
        (_MATRIX_B, b_host, k, n0 + j),
        (_MATRIX_C, c_host, m0 + i, n0 + j),
    ):
        sel = matrix == code
        address[sel] = host.tile_addresses(row_tile[sel], col_tile[sel])
        stride[sel] = host.stride
    return StreamColumns(
        kind=kind.astype(np.int8),
        address=address,
        stride=stride,
        tile_dst=tile_dst,
        tile_src=np.column_stack([src_c, src_a, src_b]),
        scalar_dst=scalar_dst,
        scalar_src=scalar_src[:, None],
    )


def build_gemm_kernel(
    shape: GemmShape,
    options: CodegenOptions = CodegenOptions(),
    base_address: int = 0x10000,
) -> GemmKernel:
    """Generate the full kernel (program + operand layout) for ``shape``.

    The program carries its decode and builds its instruction objects on
    first use (see the module docstring).
    """
    padded = GemmShape(
        m=shape.padded_m, n=shape.padded_n, k=shape.padded_k, name=shape.name
    )
    a_host, b_host, c_host = layout_gemm_operands(
        padded.m, padded.n, padded.k, base=base_address
    )
    hosts = (a_host, b_host, c_host)
    program = Program.lazy(
        resolve(_lower_columns(padded, options, *hosts)),
        functools.partial(_emit_program, padded, options, *hosts),
        name=shape.name or f"gemm_{shape.m}x{shape.n}x{shape.k}",
    )
    return GemmKernel(
        shape=shape,
        padded=padded,
        options=options,
        a_host=a_host,
        b_host=b_host,
        c_host=c_host,
        program=program,
    )


def generate_gemm_program(
    shape: GemmShape, options: CodegenOptions = CodegenOptions()
) -> Program:
    """Generate just the instruction stream for ``shape``."""
    return build_gemm_kernel(shape, options).program
