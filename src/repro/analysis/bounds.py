"""Static cycle-bound analyzer: provable bounds that sandwich the simulators.

PR 7's verifier proved the *counters* identical across the static, analytic
and fast models; this module does the same for *cycles* — the paper's
headline metric — by turning the hazard structure of a program into a
latency-weighted dependence DAG and bounding, per (program, design), what
any legal execution under the fast model's machine description can achieve:

- **lower bounds**, each sound against :class:`repro.cpu.fast.FastCoreModel`
  by construction:

  - *critical-path* — one O(n) longest-path pass over the RAW dependence
    DAG.  Each instruction's completion floor is the max over its operand
    producers plus its minimum latency (load: L1 hit + tile transfer; mm:
    engine-domain ceil of readiness, plus the WL cost when the residency
    replay says this mm loads weights, plus the FF→complete dataflow
    latency; scalar: 1 cycle), anchored at the frontend dispatch floor
    (:meth:`repro.cpu.config.CoreConfig.dispatch_floor`) and closed with
    the in-order retire recurrence.
  - *mm-issue* — engine throughput: consecutive mm completions advance by
    at least :meth:`repro.engine.config.EngineConfig.min_issue_delta`
    (per-policy WL/FF/FS/DR overlap floors plus drain-port serialization),
    summed over the program's weight-load/bypass mix.
  - *weight-load* — WL bandwidth: WL windows serialize on the load links,
    so the last completion trails the first readiness by at least
    ``weight_loads · wl`` plus one full dataflow latency.
  - *load-ports* / *store-port* — port occupancy: each tile transfer holds
    a port for 16 cycles, so the busiest of the P ports serves
    ``ceil(count / P)`` back-to-back transfers.
  - *frontend* / *retire* — pipeline pacing on the instruction count.

- an **upper bound**: a greedy program-order list schedule of the same DAG
  onto the full resource model (frontend pacing, ROB window, ALU/load/store
  ports, the per-policy engine overlap recurrence, in-order retire).  The
  recurrence is written out here independently of
  :class:`repro.engine.scheduler.EngineScheduler` — a transcription of the
  documented policy floors, not a call into the scheduler — so the bound
  doubles as a cross-check of the scheduler itself.  Greedy program-order
  issue is exactly the fast model's discipline, so on the runtime's default
  ideal memory the UB lands exactly on the fast model's cycles; any
  divergence in either direction is a bug in one of the two.

- **bottleneck attribution**: the binding resource is the largest lower
  bound — the static roofline naming what limits each design on each
  program — with tightness ratios against achieved cycles.

:func:`cross_check_bounds` is the cycle-level three-way oracle (the cycles
analogue of :func:`repro.analysis.verifier.cross_check_counters`): per
design it asserts ``LB <= fast <= UB`` exactly, and holds the analytic
tier's cycle estimate to its documented contract
(:data:`repro.cpu.analytic.ANALYTIC_CYCLE_ERROR_BOUND`) against the fast
cycles and against both bounds.  CI gates it over every suite times all
eight designs.

Like the analytic tier, the bounds assume the runtime's default ideal
memory (fixed-latency tile loads); custom memory hierarchies change the
fast model's load latencies and void the sandwich.

The future Pareto search uses the lower bound as a simulation-free pruner:
a candidate design whose LB already exceeds the incumbent's achieved
cycles cannot win, and is discarded without lowering a single program.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.analytic import ANALYTIC_CYCLE_ERROR_BOUND
from repro.cpu.config import CoreConfig
from repro.engine.config import ControlPolicy, EngineConfig
from repro.engine.designs import DESIGNS, get_design
from repro.errors import ExperimentError
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.registry import resolve_backend
from repro.systolic.substage import StageDurations
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel
from repro.workloads.gemm import GemmShape

#: Attribution order: ties in the lower-bound components resolve to the
#: earliest entry, so the binding resource is deterministic.
RESOURCE_ORDER: Tuple[str, ...] = (
    "critical-path",
    "mm-issue",
    "weight-load",
    "load-ports",
    "store-port",
    "frontend",
    "retire",
)


def _mm_dataflow_cycles(stages: StageDurations) -> int:
    """Engine cycles from FF start to instruction completion.

    The FF→FS→DR(+extra) dataflow latency every mm pays after its weights
    are in place.  Both the critical-path lower bound and the list-schedule
    upper bound charge mm edges through this one seam, so a seeded mutation
    (dropping or inflating the dependence-edge latency) moves both bounds
    coherently and must be caught by :func:`cross_check_bounds` — the
    mutation test monkeypatches exactly this function.
    """
    return stages.ff + stages.fs + stages.dr + stages.extra


def _ceil(value: float) -> int:
    return int(-(-value // 1))


@dataclasses.dataclass(frozen=True)
class ResourceBound:
    """One lower-bound component: the cycles ``resource`` alone enforces."""

    resource: str
    cycles: int


@dataclasses.dataclass(frozen=True)
class BoundsReport:
    """Static cycle bounds and bottleneck attribution for one (program, design).

    Attributes:
        name: the program's name.
        design_key: the design the bounds were computed for.
        lower_bound: max over ``components`` — no legal execution under the
            fast model's machine description finishes earlier.
        upper_bound: the greedy list-schedule cycles — the fast model never
            finishes later.
        components: every per-resource lower bound, in
            :data:`RESOURCE_ORDER`.
        binding: the resource whose component equals ``lower_bound`` (first
            in :data:`RESOURCE_ORDER` on ties) — the bottleneck attribution.
    """

    name: str
    design_key: str
    lower_bound: int
    upper_bound: int
    components: Tuple[ResourceBound, ...]
    binding: str

    def component(self, resource: str) -> int:
        """The cycles of one named component; raises on unknown names."""
        for bound in self.components:
            if bound.resource == resource:
                return bound.cycles
        raise ExperimentError(
            f"unknown bound resource {resource!r}; "
            f"known: {', '.join(b.resource for b in self.components)}"
        )

    def tightness(self, achieved_cycles: int) -> float:
        """``lower_bound / achieved`` — 1.0 means the bound is exact."""
        if achieved_cycles <= 0:
            return 0.0
        return self.lower_bound / achieved_cycles


@dataclasses.dataclass(frozen=True)
class BoundViolation:
    """One broken invariant found by :func:`cross_check_bounds`."""

    design_key: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.design_key}: {self.kind}: {self.detail}"


@dataclasses.dataclass(frozen=True)
class BoundsCheck:
    """One design's bounds next to its achieved cycles, with any violations."""

    design_key: str
    report: BoundsReport
    analytic_cycles: int
    fast_cycles: int
    violations: Tuple[BoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def lb_tightness(self) -> float:
        return self.report.tightness(self.fast_cycles)

    @property
    def ub_tightness(self) -> float:
        if self.fast_cycles <= 0:
            return 0.0
        return self.report.upper_bound / self.fast_cycles


@dataclasses.dataclass(frozen=True)
class BoundsSweep:
    """Per-point :class:`BoundsReport`\\ s for (a shard of) a sweep plan.

    ``reports`` maps each owned distinct cache key to its report, exactly
    like :class:`repro.runtime.plan.SweepReport.results` maps keys to
    results — so shard reports :meth:`merge` bit-identically into the
    unsharded run's.
    """

    reports: Dict[str, BoundsReport]

    def merge(self, *others: "BoundsSweep") -> "BoundsSweep":
        """Union shard sweeps; overlapping keys must carry equal reports."""
        merged = dict(self.reports)
        for other in others:
            for key, report in other.reports.items():
                if key in merged and merged[key] != report:
                    raise ExperimentError(
                        f"bounds sweeps disagree on key {key[:12]}…: "
                        f"{merged[key]} vs {report}"
                    )
                merged[key] = report
        return BoundsSweep(reports=merged)


# -- the residency replay ------------------------------------------------------------


def _loads_weights(
    bypasses_on_reuse: bool,
    resident: Optional[Tuple[int, int]],
    key: Tuple[int, int],
) -> bool:
    """Whether this mm pays a WL — the scheduler's residency rule.

    Identical to :meth:`repro.engine.scheduler.EngineScheduler.schedule_mm`'s
    bypass test and :func:`repro.analysis.verifier.static_counters`' replay
    (the counter oracle proves the three agree).
    """
    return not (bypasses_on_reuse and resident is not None and resident == key)


# -- lower bounds --------------------------------------------------------------------


def _critical_path_lb(
    program: Program, core: CoreConfig, engine: EngineConfig, ratio: int
) -> int:
    """Longest path through the latency-weighted RAW dependence DAG.

    One program-order pass: every timestamp is a provable floor on the fast
    model's corresponding timestamp (dispatch ignores ROB stalls, execution
    ignores port contention, mm readiness splits B from A/C — each
    relaxation only lowers the result), so the final retire ceiling is a
    sound lower bound on the fast model's cycles.
    """
    inv_fetch = 1.0 / core.fetch_width
    inv_retire = 1.0 / core.retire_width
    frontend = float(core.frontend_latency)
    transfer = core.tile_transfer_cycles
    load_latency = core.tile_load_latency
    stages = engine.stages
    wl = stages.wl
    dataflow = _mm_dataflow_cycles(stages)
    bypasses_on = engine.control.bypasses_on_reuse

    tile = [0.0] * NUM_TILE_REGS
    scalar = [0.0] * NUM_SCALAR_REGS
    version = [0] * NUM_TILE_REGS
    resident: Optional[Tuple[int, int]] = None
    retire = 0.0

    for i, inst in enumerate(program):
        dispatch = frontend + (i + 1) * inv_fetch
        op = inst.opcode
        if op is Opcode.RASA_TL:
            complete = dispatch + load_latency
            assert inst.dst is not None  # _validate invariant
            reg = inst.dst.index
            tile[reg] = complete
            version[reg] += 1
        elif op is Opcode.RASA_TS:
            complete = max(dispatch, tile[inst.srcs[0].index]) + transfer
        elif op is Opcode.RASA_MM:
            b = inst.mm_b.index
            a = inst.mm_a.index
            c = inst.mm_c.index
            key = (b, version[b])
            loading = _loads_weights(bypasses_on, resident, key)
            resident = key
            ready_b = int(-(-max(dispatch, tile[b]) // ratio))
            ready_ac = int(-(-max(dispatch, tile[a], tile[c]) // ratio))
            ff_start = max(ready_b + (wl if loading else 0), ready_ac)
            complete = float((ff_start + dataflow) * ratio)
            tile[c] = complete
            version[c] += 1
        else:  # scalar ALU / branch
            start = dispatch
            for src in inst.scalar_reads:
                start = max(start, scalar[src.index])
            complete = start + 1
            for dst in inst.scalar_writes:
                scalar[dst.index] = complete
        retire = max(complete + 1, retire + inv_retire)
    return _ceil(retire)


def _resource_lbs(
    program: Program, core: CoreConfig, engine: EngineConfig, ratio: int
) -> Dict[str, int]:
    """The per-resource throughput lower bounds (everything but the DAG walk)."""
    from repro.analysis.verifier import static_counters

    counts = static_counters(program)
    policy_counts = counts.for_policy(engine.control.bypasses_on_reuse)
    n = counts.instructions
    stages = engine.stages
    inv_retire = 1.0 / core.retire_width
    transfer = core.tile_transfer_cycles
    d1 = core.dispatch_floor(0)
    bounds: Dict[str, int] = {name: 0 for name in RESOURCE_ORDER}

    if n == 0:
        return bounds

    # Frontend pacing: the last instruction dispatches no earlier than the
    # sustained-fetch floor, executes >= 1 cycle, retires one cycle later.
    bounds["frontend"] = _ceil(core.dispatch_floor(n - 1) + 2)
    # Retire pacing: the first retire is at least the first complete + 1;
    # every further instruction adds the in-order retire interval.
    bounds["retire"] = _ceil(d1 + 2 + (n - 1) * inv_retire)

    if counts.tile_loads:
        # The busiest of the P load ports serves ceil(L/P) transfers
        # back-to-back; its last load still pays the full load latency.
        queued = -(-counts.tile_loads // core.load_ports)
        bounds["load-ports"] = _ceil(
            d1 + (queued - 1) * transfer + core.tile_load_latency + 1
        )
    if counts.tile_stores:
        queued = -(-counts.tile_stores // core.store_ports)
        bounds["store-port"] = _ceil(d1 + (queued - 1) * transfer + transfer + 1)

    if counts.mm_count:
        e0 = int(-(-d1 // ratio))  # earliest engine cycle any WL can start
        loads = policy_counts.weight_loads
        bypasses = policy_counts.bypass_count
        # The first mm always loads (nothing is resident); the remaining
        # completions each advance by at least the per-policy issue delta.
        first = stages.wl + _mm_dataflow_cycles(stages)
        issue_end = (
            e0
            + first
            + (loads - 1) * engine.min_issue_delta(loading=True)
            + bypasses * engine.min_issue_delta(loading=False)
        )
        bounds["mm-issue"] = _ceil(issue_end * ratio + 1)
        # WL windows serialize on the weight-load links; after the last of
        # them the final mm still flows through FF/FS/DR.
        wl_end = e0 + loads * stages.wl + _mm_dataflow_cycles(stages)
        bounds["weight-load"] = _ceil(wl_end * ratio + 1)
    return bounds


# -- the list-schedule upper bound ---------------------------------------------------


@dataclasses.dataclass
class _EngineWindow:
    """The previous mm's stage boundaries the overlap recurrence needs."""

    wl_end: int
    ff_start: int
    ff_end: int
    fs_end: int
    dr_end: int


def _list_schedule_ub(
    program: Program, core: CoreConfig, engine: EngineConfig, ratio: int
) -> int:
    """Greedy program-order list schedule onto the full resource model.

    Mirrors the fast model's machine description — frontend pacing, the
    ROB window, least-loaded port selection, in-order retire — with the
    engine's per-policy overlap recurrence transcribed from its documented
    floors (Fig. 4b) rather than delegated to
    :class:`repro.engine.scheduler.EngineScheduler`.  Greedy program-order
    issue is the fast model's own discipline, so the result is an upper
    bound that is *exact* on the default ideal memory; the oracle treats
    ``UB < fast`` as a hard violation.
    """
    inv_fetch = 1.0 / core.fetch_width
    inv_retire = 1.0 / core.retire_width
    transfer = core.tile_transfer_cycles
    load_latency = core.tile_load_latency
    stages = engine.stages
    policy = engine.control
    bypasses_on = policy.bypasses_on_reuse
    dataflow = _mm_dataflow_cycles(stages)

    tile = [0.0] * NUM_TILE_REGS
    scalar = [0.0] * NUM_SCALAR_REGS
    version = [0] * NUM_TILE_REGS
    load_ports = [0.0] * core.load_ports
    store_ports = [0.0] * core.store_ports
    alu_ports = [0.0] * core.alu_ports
    rob_size = core.rob_size
    retire_ring = [0.0] * rob_size
    dispatch_prev = float(core.frontend_latency)
    retire_prev = 0.0
    window: Optional[_EngineWindow] = None
    resident: Optional[Tuple[int, int]] = None

    for i, inst in enumerate(program):
        dispatch = dispatch_prev + inv_fetch
        if i >= rob_size:
            dispatch = max(dispatch, retire_ring[i % rob_size])
        dispatch_prev = dispatch
        op = inst.opcode

        if op is Opcode.RASA_TL:
            port = min(range(core.load_ports), key=load_ports.__getitem__)
            start = max(dispatch, load_ports[port])
            load_ports[port] = start + transfer
            complete = start + load_latency
            assert inst.dst is not None  # _validate invariant
            reg = inst.dst.index
            tile[reg] = complete
            version[reg] += 1

        elif op is Opcode.RASA_TS:
            port = min(range(core.store_ports), key=store_ports.__getitem__)
            start = max(dispatch, tile[inst.srcs[0].index], store_ports[port])
            store_ports[port] = start + transfer
            complete = start + transfer

        elif op is Opcode.RASA_MM:
            b = inst.mm_b.index
            a = inst.mm_a.index
            c = inst.mm_c.index
            ready = int(-(-max(dispatch, tile[a], tile[b], tile[c]) // ratio))
            key = (b, version[b])
            loading = _loads_weights(bypasses_on, resident, key)
            resident = key
            if not loading:
                ff_start = ready
                if window is not None:
                    ff_start = max(
                        ff_start,
                        window.ff_end
                        if engine.wlbp_ff_overlaps_fs
                        else window.fs_end,
                    )
                wl_end = ff_start
            else:
                wl_floor = ready
                if window is not None:
                    wl_floor = max(wl_floor, window.wl_end)
                    if policy is ControlPolicy.BASE:
                        wl_floor = max(wl_floor, window.dr_end)
                    elif policy in (ControlPolicy.PIPE, ControlPolicy.WLBP):
                        wl_floor = max(wl_floor, window.fs_end)
                    else:  # WLS: wait only for the shadow to be vacated
                        wl_floor = max(wl_floor, window.ff_start)
                wl_end = wl_floor + stages.wl
                ff_start = max(wl_end, ready)
                if window is not None:
                    ff_start = max(ff_start, window.ff_end)
            ff_end = ff_start + stages.ff
            fs_end = ff_end + stages.fs
            window = _EngineWindow(
                wl_end=wl_end,
                ff_start=ff_start,
                ff_end=ff_end,
                fs_end=fs_end,
                dr_end=fs_end + stages.dr,
            )
            complete = float((ff_start + dataflow) * ratio)
            tile[c] = complete
            version[c] += 1

        else:  # scalar ALU / branch
            port = min(range(core.alu_ports), key=alu_ports.__getitem__)
            start = max(dispatch, alu_ports[port])
            for src in inst.scalar_reads:
                start = max(start, scalar[src.index])
            alu_ports[port] = start + 1
            complete = start + 1
            for dst in inst.scalar_writes:
                scalar[dst.index] = complete

        retire = max(complete + 1, retire_prev + inv_retire)
        retire_prev = retire
        retire_ring[i % rob_size] = retire
    return _ceil(retire_prev)


# -- entry points --------------------------------------------------------------------


def bound_program(
    program: Program,
    design_key: str,
    core: Optional[CoreConfig] = None,
) -> BoundsReport:
    """Compute the full :class:`BoundsReport` for one (program, design)."""
    core = core if core is not None else CoreConfig()
    engine = get_design(design_key).config
    ratio = core.engine_clock_ratio(engine.clock_mhz)

    components = _resource_lbs(program, core, engine, ratio)
    if len(program):
        components["critical-path"] = _critical_path_lb(program, core, engine, ratio)
        upper = _list_schedule_ub(program, core, engine, ratio)
    else:
        upper = 0
    lower = max(components.values())
    binding = next(
        name for name in RESOURCE_ORDER if components[name] == lower
    )
    return BoundsReport(
        name=program.name,
        design_key=design_key,
        lower_bound=lower,
        upper_bound=upper,
        components=tuple(
            ResourceBound(resource=name, cycles=components[name])
            for name in RESOURCE_ORDER
        ),
        binding=binding,
    )


def bound_shape(
    shape: GemmShape,
    codegen: CodegenOptions = CodegenOptions(),
    design_key: str = "baseline",
    core: Optional[CoreConfig] = None,
) -> BoundsReport:
    """Generate the kernel for ``shape`` and bound it — the one-call entry."""
    kernel = build_gemm_kernel(shape, codegen)
    return bound_program(kernel.program, design_key, core=core)


def cross_check_bounds(
    shape: GemmShape,
    codegen: CodegenOptions = CodegenOptions(),
    design_keys: Optional[Sequence[str]] = None,
    core: Optional[CoreConfig] = None,
) -> Tuple[BoundsCheck, ...]:
    """The cycle-level three-way oracle: bounds vs analytic vs fast, per design.

    Cycles depend on the full (PE, control) design pair — unlike the
    counters, which collapse onto the two policy classes — so the fast
    model runs once per requested design.  Per design the check asserts

    - the vectorized ``fast`` result equal, field for field, to the scalar
      ``fast-ref`` reference (the vectorization equality oracle — any
      drift is a bug in the numpy kernel or the pre-decode),
    - ``LB <= fast <= UB`` exactly (a violation in either direction is a
      bug in the bounds, the scheduler, or the fast model), and
    - the analytic estimate within its documented
      :data:`~repro.cpu.analytic.ANALYTIC_CYCLE_ERROR_BOUND` of the fast
      cycles and of both bounds.

    Returns one :class:`BoundsCheck` per design; gate on
    ``all(c.ok for c in checks)``.
    """
    keys = list(design_keys) if design_keys is not None else list(DESIGNS)
    program = build_gemm_kernel(shape, codegen).program
    tolerance = ANALYTIC_CYCLE_ERROR_BOUND
    checks: List[BoundsCheck] = []
    for key in keys:
        report = bound_program(program, key, core=core)
        fast = resolve_backend(key, fidelity="fast", core=core).run(program)
        fast_ref = resolve_backend(key, fidelity="fast-ref", core=core).run(program)
        analytic = resolve_backend(key, fidelity="analytic", core=core).run_shape(
            shape, codegen
        )
        lb, ub = report.lower_bound, report.upper_bound
        violations: List[BoundViolation] = []
        if fast != fast_ref:
            violations.append(BoundViolation(
                key, "fast-ref-mismatch",
                f"vectorized fast {fast} != scalar reference {fast_ref}",
            ))
        if lb > fast.cycles:
            violations.append(BoundViolation(
                key, "lb-exceeds-fast",
                f"lower bound {lb} > fast cycles {fast.cycles}",
            ))
        if ub < fast.cycles:
            violations.append(BoundViolation(
                key, "ub-below-fast",
                f"upper bound {ub} < fast cycles {fast.cycles}",
            ))
        if abs(analytic.cycles - fast.cycles) > tolerance * fast.cycles:
            violations.append(BoundViolation(
                key, "analytic-fast-drift",
                f"analytic {analytic.cycles} vs fast {fast.cycles} exceeds "
                f"the {tolerance:.0%} contract",
            ))
        if analytic.cycles < lb * (1 - tolerance):
            violations.append(BoundViolation(
                key, "analytic-below-lb",
                f"analytic {analytic.cycles} < lower bound {lb} beyond "
                f"the {tolerance:.0%} contract",
            ))
        if analytic.cycles > ub * (1 + tolerance):
            violations.append(BoundViolation(
                key, "analytic-above-ub",
                f"analytic {analytic.cycles} > upper bound {ub} beyond "
                f"the {tolerance:.0%} contract",
            ))
        checks.append(BoundsCheck(
            design_key=key,
            report=report,
            analytic_cycles=analytic.cycles,
            fast_cycles=fast.cycles,
            violations=tuple(violations),
        ))
    return tuple(checks)
