"""Analytic O(1) core model: closed-form sweep points, no instruction walk.

The fast model (:mod:`repro.cpu.fast`) is O(n) in dynamic instructions: it
lowers a GEMM to a program and propagates timestamps through every
instruction.  For sweeps that is the dominant cost — even dedup-aware plans
pay codegen plus an O(n) walk per distinct point.  This module computes the
same :class:`repro.cpu.result.SimResult` directly from the *structure* of
the stream the code generator would emit, in time bounded by small
constants per point (independent of M, N, K):

- **counts** (``instructions``, ``mm_count``, ``weight_loads``,
  ``bypass_count``) are exact closed forms over the register-block
  geometry grid.  A GEMM decomposes into at most four distinct block
  geometries (full blocks plus M/N edge clippings); each contributes
  ``k_tiles`` identical K steps whose load/bypass pattern follows from the
  blocking's ``mm_pairs`` order and the per-K-step B reload.
- **engine time** is steady-state weight-stationary pipelining.  Two
  recurrences govern it: the control policy's structural sub-stage overlap
  (the paper's Eq. 1 fold latency ``2·TK + TM + TN − 1`` fully serialized,
  down to the ``TM``-cycle initiation floor for WLS), and the loop-carried
  C accumulation — the mm at K step *s* reads the C tile the same block
  position wrote at step *s − 1*, so its issue floor is that mm's
  completion.  Block boundaries reset the C chain (the C block is freshly
  loaded, and loads run far ahead of the engine).  Both recurrences reach
  a periodic regime within a few K steps, so per-step deltas are obtained
  *exactly* by driving the real :class:`repro.engine.scheduler
  .EngineScheduler` over a bounded probe (a few primed K steps per
  distinct geometry pair), never per instruction.
- **warmup** (the only span where load readiness binds) replays the first
  few K steps of the first block with the fast model's exact dispatch and
  load-port arithmetic — a bounded prefix, not the program.
- **the tail** (C stores through the single store port, trailing scalar
  overhead, retire pacing) is reconstructed from the final K step's
  per-mm completion offsets.

Engine-bound programs dominate this workload family (every design's mm
initiation interval is at least ``TM`` engine cycles, 8x the frontend and
load-port demand per K step), so steady state plus exact warmup/tail keeps
the cycle estimate within a small relative error of the fast model —
:data:`ANALYTIC_CYCLE_ERROR_BOUND` is the documented contract, enforced by
tests and :mod:`repro.experiments.analytic_validation`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EngineScheduler, StageTimes
from repro.physical.energy import EnergyBreakdown, EnergyModel
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder

#: Documented upper bound on the analytic model's relative cycle error
#: versus the fast model (counts are exact).  Validated by
#: tests/cpu/test_analytic.py and repro.experiments.analytic_validation.
ANALYTIC_CYCLE_ERROR_BOUND = 0.02

#: K steps of the first block replayed with exact readiness (dispatch +
#: load-port arithmetic).  Loads stop binding within the first couple of
#: steps; six covers every design with margin while keeping the replayed
#: prefix under the 97-entry ROB window (so ROB stalls cannot occur in it).
_WARMUP_STEPS = 6

#: K steps measured explicitly at the start of a probed block before
#: extrapolating at the settled per-step delta (the C-feedback recurrence
#: settles in two to three steps).
_PROFILE_STEPS = 4

#: K steps used to prime a probe into the end-of-block periodic regime.
_PRIME_STEPS = 5

#: K steps run when measuring the settled per-step delta.
_SETTLE_STEPS = 10


@dataclasses.dataclass(frozen=True)
class _Geometry:
    """One register-block geometry: bm' x bn' C tiles (edge-clipped)."""

    bm: int
    bn: int

    def mm_pairs(self, order: MMOrder) -> List[Tuple[int, int]]:
        if order is MMOrder.WEIGHT_REUSE:
            return [(i, j) for j in range(self.bn) for i in range(self.bm)]
        return [(i, j) for i in range(self.bm) for j in range(self.bn)]

    @property
    def mms_per_step(self) -> int:
        return self.bm * self.bn

    @property
    def loads_per_step(self) -> int:
        return self.bm + self.bn


@dataclasses.dataclass(frozen=True)
class _BlockStructure:
    """The row-major block walk in aggregate (no block enumeration)."""

    blocks: Dict[_Geometry, int]
    boundary: Dict[Tuple[_Geometry, _Geometry], int]
    first: _Geometry
    last: _Geometry
    penultimate: Optional[_Geometry]  # geometry before the last block

    @property
    def block_count(self) -> int:
        return sum(self.blocks.values())


def _block_structure(shape: GemmShape, blocking: BlockingConfig) -> _BlockStructure:
    """Aggregate the block sequence: counts per geometry + boundary pairs.

    ``boundary[(g1, g2)]`` counts consecutive-block boundaries whose
    geometries are ``g1 -> g2`` over the row-major walk of
    :meth:`repro.workloads.tiling.TileLoopNest.blocks` — everything needed
    to sum per-block scheduler deltas without enumerating blocks.
    """
    m_t, n_t = shape.m_tiles, shape.n_tiles
    bm, bn = blocking.bm, blocking.bn
    m_full, m_rem = divmod(m_t, bm)
    n_full, n_rem = divmod(n_t, bn)

    def row_runs(row_bm: int) -> List[Tuple[_Geometry, int]]:
        runs: List[Tuple[_Geometry, int]] = []
        if n_full:
            runs.append((_Geometry(row_bm, bn), n_full))
        if n_rem:
            runs.append((_Geometry(row_bm, n_rem), 1))
        return runs

    # Row kinds and their multiplicities (at most two kinds exist).
    row_kinds: List[Tuple[List[Tuple[_Geometry, int]], int]] = []
    if m_full:
        row_kinds.append((row_runs(bm), m_full))
    if m_rem:
        row_kinds.append((row_runs(m_rem), 1))

    blocks: Dict[_Geometry, int] = {}
    boundary: Dict[Tuple[_Geometry, _Geometry], int] = {}

    def add(key: Tuple[_Geometry, _Geometry], count: int) -> None:
        if count:
            boundary[key] = boundary.get(key, 0) + count

    for runs, mult in row_kinds:
        for geom, count in runs:
            if count:
                blocks[geom] = blocks.get(geom, 0) + count * mult
        for geom, count in runs:
            add((geom, geom), (count - 1) * mult)
        for (g1, _), (g2, _) in zip(runs, runs[1:]):
            add((g1, g2), mult)
    # Row-to-row boundaries: consecutive same-kind rows, then the kind change.
    for runs, mult in row_kinds:
        add((runs[-1][0], runs[0][0]), mult - 1)
    for (runs1, _), (runs2, _) in zip(row_kinds, row_kinds[1:]):
        add((runs1[-1][0], runs2[0][0]), 1)

    # The geometry preceding the final block (drives the tail's probe pair).
    last_runs = row_kinds[-1][0]
    if last_runs[-1][1] >= 2 or len(last_runs) >= 2:
        penultimate: Optional[_Geometry] = (
            last_runs[-1][0] if last_runs[-1][1] >= 2 else last_runs[-2][0]
        )
    elif row_kinds[-1][1] >= 2:
        penultimate = last_runs[-1][0]
    elif len(row_kinds) >= 2:
        penultimate = row_kinds[-2][0][-1][0]
    else:
        penultimate = None

    return _BlockStructure(
        blocks=blocks,
        boundary=boundary,
        first=row_kinds[0][0][0][0],
        last=last_runs[-1][0],
        penultimate=penultimate,
    )


#: Bound of each per-process probe memo.  A probe is keyed on its full
#: inputs — (engine, geometry [pair], blocking), plus core, codegen and step
#: count for the warmup — and one design's whole suite catalog at every
#: batch and scale needs at most a dozen keys per memo, so this holds every
#: design's probes at once with room for ad-hoc blockings and
#: register-scaling variants.
PROBE_CACHE_SIZE = 1024


# -- scheduler probes ------------------------------------------------------------
#
# Pure functions of their arguments, memoized once per process: every
# backend, model and pool worker in the process shares one set of probes,
# so a sweep pays each (engine, geometry, blocking) probe once, not once per
# point.  They return tuples so no caller can mutate a shared value.


def _feedback_step(
    scheduler: EngineScheduler,
    geom: _Geometry,
    blocking: BlockingConfig,
    version: int,
    prev_completes: Optional[Dict[Tuple[int, int], int]],
) -> Tuple[Tuple[StageTimes, ...], Dict[Tuple[int, int], int]]:
    """Schedule one K step, honoring the loop-carried C dependency.

    In the fast model's steady state an mm's issue floor is exactly the
    completion of the same block position one K step earlier (loads and
    dispatch run far ahead): ``ceil(complete·ratio / ratio) ==
    complete``.  The first step of a block passes zero (C freshly
    loaded).  B registers are rewritten every step, so the weight key's
    version component is the step counter.
    """
    step: List[StageTimes] = []
    completes: Dict[Tuple[int, int], int] = {}
    for i, j in geom.mm_pairs(blocking.mm_order):
        ready = prev_completes.get((i, j), 0) if prev_completes else 0
        times = scheduler.schedule_mm(
            ready_b=ready, ready_ac=ready, weight_key=(j, version)
        )
        completes[(i, j)] = times.complete
        step.append(times)
    return tuple(step), completes


@functools.lru_cache(maxsize=PROBE_CACHE_SIZE)
def _settled(
    engine: EngineConfig, geom: _Geometry, blocking: BlockingConfig
) -> Tuple[float, Tuple[StageTimes, ...]]:
    """Settled per-K-step completion delta (and final step pattern)."""
    scheduler = EngineScheduler(engine)
    completes: Optional[Dict[Tuple[int, int], int]] = None
    ends: List[int] = []
    step: Tuple[StageTimes, ...] = ()
    for version in range(_SETTLE_STEPS):
        step, completes = _feedback_step(
            scheduler, geom, blocking, version, completes
        )
        ends.append(step[-1].complete)
    deltas = [b - a for a, b in zip(ends, ends[1:])]
    # Max-plus recurrences can settle into a short limit cycle;
    # averaging the last two periods absorbs a period-2 oscillation.
    return (deltas[-1] + deltas[-2]) / 2.0, step


@functools.lru_cache(maxsize=PROBE_CACHE_SIZE)
def _block_profile(
    engine: EngineConfig,
    prev_geom: _Geometry,
    geom: _Geometry,
    blocking: BlockingConfig,
) -> Tuple[Tuple[int, ...], Tuple[Tuple[StageTimes, ...], ...]]:
    """Per-step deltas for the first K steps of a ``geom`` block.

    The probe primes the scheduler into the end-of-block regime of
    ``prev_geom`` (the state carried across a block boundary is just
    the last mm's stage times), then measures the opening steps of the
    next block: step one has a fresh C block (compressed), subsequent
    steps re-enter the C-feedback recurrence.
    """
    scheduler = EngineScheduler(engine)
    completes: Optional[Dict[Tuple[int, int], int]] = None
    version = 0
    for _ in range(_PRIME_STEPS):
        _, completes = _feedback_step(
            scheduler, prev_geom, blocking, version, completes
        )
        version += 1
    anchor = scheduler.last.complete
    deltas: List[int] = []
    patterns: List[Tuple[StageTimes, ...]] = []
    completes = None  # block boundary: the C block is reloaded
    for _ in range(_PROFILE_STEPS):
        step, completes = _feedback_step(
            scheduler, geom, blocking, version, completes
        )
        version += 1
        deltas.append(step[-1].complete - anchor)
        anchor = step[-1].complete
        patterns.append(step)
    return tuple(deltas), tuple(patterns)


def _block_time(
    engine: EngineConfig,
    prev_geom: _Geometry,
    geom: _Geometry,
    k_tiles: int,
    blocking: BlockingConfig,
) -> float:
    """Engine cycles one ``geom`` block adds after a ``prev_geom`` block."""
    deltas, _ = _block_profile(engine, prev_geom, geom, blocking)
    measured = min(k_tiles, _PROFILE_STEPS)
    total = float(sum(deltas[:measured]))
    if k_tiles > _PROFILE_STEPS:
        settled, _ = _settled(engine, geom, blocking)
        total += (k_tiles - _PROFILE_STEPS) * settled
    return total


# -- warmup: exact replay of the first block's prefix ------------------------------


@functools.lru_cache(maxsize=PROBE_CACHE_SIZE)
def _warmup(
    core: CoreConfig,
    engine: EngineConfig,
    first_geom: _Geometry,
    k_steps: int,
    codegen: CodegenOptions,
) -> Tuple[int, int, Tuple[StageTimes, ...]]:
    """Replay the first ``k_steps`` K steps with exact readiness.

    Mirrors :meth:`repro.cpu.fast.FastCoreModel.run` for the stream
    prefix the code generator emits for the first register block: C
    loads, then per K step A/B loads, mms, and scalar overhead.  The
    prefix stays under the ROB window by construction, so dispatch is
    purely fetch-paced.  Returns ``(first_wl, last_complete, last
    step's StageTimes)`` in engine cycles.
    """
    ratio = core.engine_clock_ratio(engine.clock_mhz)
    blocking = codegen.blocking
    scheduler = EngineScheduler(engine)
    inv_fetch = 1.0 / core.fetch_width
    transfer = core.tile_transfer_cycles
    load_latency = core.l1_latency + transfer

    dispatch = float(core.frontend_latency)
    load_ports = [0.0] * core.load_ports
    ready: Dict[Tuple[str, int], float] = {}

    def do_load(reg: Tuple[str, int]) -> None:
        nonlocal dispatch
        dispatch += inv_fetch
        port = min(range(len(load_ports)), key=load_ports.__getitem__)
        start = max(dispatch, load_ports[port])
        load_ports[port] = start + transfer
        ready[reg] = start + load_latency

    bm, bn = first_geom.bm, first_geom.bn
    for i in range(bm):
        for j in range(bn):
            do_load(("c", i * bn + j))

    first_wl: Optional[int] = None
    last_step: List[StageTimes] = []
    for step in range(k_steps):
        for i in range(bm):
            do_load(("a", i))
        for j in range(bn):
            do_load(("b", j))
        last_step = []
        for i, j in first_geom.mm_pairs(blocking.mm_order):
            dispatch += inv_fetch
            operands = max(
                dispatch, ready[("a", i)], ready[("b", j)],
                ready[("c", i * bn + j)],
            )
            engine_ready = int(-(-operands // ratio))
            times = scheduler.schedule_mm(
                ready_b=engine_ready, ready_ac=engine_ready, weight_key=(j, step)
            )
            if first_wl is None:
                first_wl = times.wl_start
            ready[("c", i * bn + j)] = float(times.complete * ratio)
            last_step.append(times)
        dispatch += inv_fetch * codegen.scalar_overhead_per_kstep
    return (
        first_wl if first_wl is not None else 0,
        last_step[-1].complete,
        tuple(last_step),
    )


class AnalyticCoreModel:
    """Closed-form (GemmShape, design) -> :class:`SimResult` estimation.

    The scheduler probes behind each estimate are memoized per process on
    their full inputs (see :data:`PROBE_CACHE_SIZE`), so every model in a
    process — one per sweep job included — shares them: sweeping many
    shapes against one design runs a handful of probes in total.  Assumes
    the runtime's default ideal memory (fixed-latency tile loads); custom
    memory hierarchies need the fast model.
    """

    def __init__(
        self,
        core: CoreConfig = CoreConfig(),
        engine: Optional[EngineConfig] = None,
    ) -> None:
        self.core = core
        self.engine = engine if engine is not None else EngineConfig()
        self.ratio = core.engine_clock_ratio(self.engine.clock_mhz)

    # -- the public entry point ----------------------------------------------------

    def run_shape(
        self,
        shape: GemmShape,
        codegen: CodegenOptions = CodegenOptions(),
    ) -> SimResult:
        """Estimate the fast model's :class:`SimResult` for ``shape``."""
        engine = self.engine
        blocking = codegen.blocking
        k_t = shape.k_tiles
        structure = _block_structure(shape, blocking)
        bypasses_on = engine.control.bypasses_on_reuse

        # -- exact counts ----------------------------------------------------------
        mm_count = shape.m_tiles * shape.n_tiles * shape.k_tiles
        instructions = 0
        bypass_count = 0
        for geom, nblocks in structure.blocks.items():
            per_block = (
                2 * geom.mms_per_step  # C loads + C stores
                + k_t * (
                    geom.loads_per_step
                    + geom.mms_per_step
                    + codegen.scalar_overhead_per_kstep
                )
                + codegen.scalar_overhead_per_block
            )
            instructions += nblocks * per_block
            if bypasses_on:
                pairs = geom.mm_pairs(blocking.mm_order)
                step_bypasses = sum(
                    1 for (_, j), (_, pj) in zip(pairs[1:], pairs) if j == pj
                )
                bypass_count += nblocks * k_t * step_bypasses
        weight_loads = mm_count - bypass_count

        # -- engine timeline -------------------------------------------------------
        warm_steps = min(_WARMUP_STEPS, k_t)
        first_wl, warm_end, warm_tail = _warmup(
            self.core, engine, structure.first, warm_steps, codegen
        )
        engine_last = float(warm_end)
        if k_t > warm_steps:
            settled, _ = _settled(engine, structure.first, blocking)
            engine_last += (k_t - warm_steps) * settled
        for (g1, g2), count in structure.boundary.items():
            engine_last += count * _block_time(engine, g1, g2, k_t, blocking)

        # The final K step's per-mm completion offsets, for the store tail.
        if structure.penultimate is None:
            if k_t <= warm_steps:
                pattern = warm_tail
            else:
                _, pattern = _settled(engine, structure.last, blocking)
        elif k_t <= _PROFILE_STEPS:
            _, patterns = _block_profile(
                engine, structure.penultimate, structure.last, blocking
            )
            pattern = patterns[k_t - 1]
        else:
            _, pattern = _settled(engine, structure.last, blocking)
        tail_offsets = [pattern[-1].complete - t.complete for t in pattern]

        # -- the CPU-side tail: stores, scalar overhead, retire pacing -------------
        ratio = self.ratio
        transfer = self.core.tile_transfer_cycles
        inv_retire = 1.0 / self.core.retire_width
        last_geom = structure.last
        pairs = last_geom.mm_pairs(blocking.mm_order)
        complete_cpu = {
            pair: (engine_last - offset) * ratio
            for pair, offset in zip(pairs, tail_offsets)
        }
        retire = 0.0
        for pair in pairs:
            retire = max(complete_cpu[pair] + 1, retire + inv_retire)
        retire += codegen.scalar_overhead_per_kstep * inv_retire
        store_port = 0.0
        for i in range(last_geom.bm):
            for j in range(last_geom.bn):
                start = max(complete_cpu[(i, j)], store_port)
                store_port = start + transfer
                retire = max(start + transfer + 1, retire + inv_retire)
        retire += codegen.scalar_overhead_per_block * inv_retire
        # Frontend/retire pacing floor — only binds on degenerate tiny
        # programs where the engine never becomes the bottleneck.
        floor = (
            self.core.frontend_latency
            + instructions / self.core.fetch_width
            + 2.0
        )
        cycles = int(-(-max(retire, floor) // 1))

        return SimResult(
            design=engine.describe(),
            program=shape.name or f"gemm_{shape.m}x{shape.n}x{shape.k}",
            cycles=cycles,
            instructions=instructions,
            mm_count=mm_count,
            bypass_count=bypass_count,
            weight_loads=weight_loads,
            engine_busy_cycles=int(round(engine_last)) - first_wl,
            clock_mhz=self.core.clock_mhz,
        )

    def energy(
        self,
        shape: GemmShape,
        codegen: CodegenOptions = CodegenOptions(),
        model: Optional[EnergyModel] = None,
    ) -> Tuple[SimResult, EnergyBreakdown]:
        """Analytic timing plus the :mod:`repro.physical` energy decomposition.

        ``mm_count``/``weight_loads`` are exact, so the dynamic energy terms
        match a fast-model run exactly; static energy inherits the cycle
        estimate's error bound.
        """
        result = self.run_shape(shape, codegen)
        return result, (model or EnergyModel()).run_energy(result, self.engine)
