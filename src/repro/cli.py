"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``designs``                       list the registered design points
- ``models``                        list the registered workload suites
- ``table1``                        print Table I (+ lowered GEMMs)
- ``fig {1,2,5,6,7}``               regenerate a paper figure (``fig 7
                                    --workloads <suite>`` sweeps whole-model
                                    batch curves instead of the FC layers)
- ``area``                          the Sec. V area/energy report
- ``simulate``                      run one GEMM on one design (any fidelity)
- ``sweep``                         run a (designs x workloads) grid — parallel
                                    and cache-backed via :mod:`repro.runtime` —
                                    a whole-model suite sweep
                                    (``--workloads resnet50|bert-base|
                                    bert-full|dlrm|training|resnet50-train|
                                    all``, dedup-aware), a suite *batch*
                                    sweep (``--batches 1,16,256``: Fig.
                                    7-style curves per model, with the
                                    role-aware ``--scale-batch`` /
                                    ``--scale-spatial`` lowering knobs), or
                                    one ad-hoc GEMM via ``--m/--n/--k``
- ``plan show|run|merge``           the declarative face of ``sweep``: build
                                    (or load) a :class:`SweepPlan`, inspect
                                    it, run it — whole or one deterministic
                                    ``--shard I/N`` slice — and merge shard
                                    reports bit-identically
- ``lint``                          statically verify generated programs: the
                                    :mod:`repro.analysis.verifier` dataflow
                                    pass (def-use, memory legality, hazard
                                    stats) plus the three-way counter oracle
                                    (static vs analytic vs fast) over one
                                    ``--m/--n/--k`` GEMM or
                                    ``--workloads <suite>|all``; ``--json``
                                    for machine-readable reports;
                                    ``--bounds`` adds the cycle-level bound
                                    oracle
- ``bounds``                        static cycle bounds per program x design:
                                    the :mod:`repro.analysis.bounds`
                                    dependence/resource lower bounds, greedy
                                    list-schedule upper bound, and bottleneck
                                    attribution, cross-checked against the
                                    analytic and fast models (exit 1 on any
                                    violated bound); same target flags as
                                    ``lint``
- ``serve``                         run the persistent sweep coordinator: a
                                    stdlib HTTP JSON API over a durable
                                    SQLite (WAL) job store with an explicit
                                    shard lifecycle state machine and a
                                    lease reaper (:mod:`repro.service`)
- ``submit``                        declare a plan (same axis flags as
                                    ``sweep``, or ``--plan file``) and post
                                    it to the coordinator as ``--shards N``
                                    leased shards; ``--wait -o report.json``
                                    fetches the merged report — byte-
                                    identical to a single-shot ``plan run``
- ``worker``                        pull-model shard worker: claim a leased
                                    shard, run it through ``Session.run``
                                    against the shared result cache,
                                    heartbeat the lease, stream the shard
                                    report back; survives poisoned shards,
                                    and killed workers' shards re-queue
- ``status``                        list submitted plans, or show one plan's
                                    per-shard lifecycle (state, attempts,
                                    worker, last error) and fetch its report
- ``asm`` / ``disasm``              assemble ``.rasa`` text <-> JSONL traces

Every sweep — ``sweep`` and ``plan run`` alike — is declared as a
:class:`repro.runtime.SweepPlan` and executed by one
:class:`repro.runtime.Session`; nothing in the CLI hand-wires a simulator.
Every command prints to stdout and returns a process exit code, so the CLI
is unit-testable by calling :func:`main` directly.  Library errors exit 1
with a one-line ``error: ...`` message — never a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.bounds import BoundsCheck, cross_check_bounds
from repro.analysis.verifier import (
    VerifierReport,
    cross_check_counters,
    lint_shape,
)
from repro.engine.designs import DESIGNS, get_design
from repro.errors import ReproError
from repro.experiments.area_energy import area_energy_report
from repro.experiments.batch_sweep import fig7_batch_sensitivity
from repro.experiments.layer_table import table1_report
from repro.experiments.ppa_sweep import fig6_performance_per_area
from repro.experiments.runner import (
    ExperimentSettings,
    geometric_mean,
    run_design,
    workload_shapes,
)
from repro.experiments.runtime_sweep import fig5_normalized_runtime
from repro.experiments.suite_batch_sweep import suite_batch_sweep
from repro.experiments.toy import fig1_toy_example
from repro.experiments.utilization_sweep import fig2_utilization
from repro.isa.assembler import assemble, disassemble
from repro.isa.trace import load_trace, save_trace
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.plan import SweepPlan, SweepReport, _suite_name
from repro.runtime.registry import FIDELITIES
from repro.runtime.session import Session
from repro.service.client import ServiceClient, validate_port
from repro.service.coordinator import Coordinator, ServiceConfig
from repro.service.server import DEFAULT_PORT, create_server
from repro.service.store import JobStore, ShardState
from repro.service.worker import ShardWorker
from repro.utils.tables import format_table
from repro.workloads.gemm import GemmShape
from repro.workloads.layers import TABLE1_LAYERS
from repro.workloads.suites import SUITES, get_suite, suite_names


def _add_sweep_axes(parser: argparse.ArgumentParser) -> None:
    """The shared sweep-declaration flags (``sweep`` and ``plan show|run``).

    Defaults stay ``None`` so an explicitly typed flag is distinguishable
    from an omitted one — ``--plan`` must reject *any* axis flag, default
    value or not; :func:`_plan_from_args` resolves the real defaults.
    """
    parser.add_argument("--designs", default=None,
                        help='"all" or comma-separated design keys (default: all)')
    parser.add_argument("--workloads", default=None,
                        help='"table1" (default), comma-separated Table I '
                             'layer names, model suite names (resnet50, '
                             'bert-base, bert-full, dlrm, training, '
                             'resnet50-train), or "all" (every suite)')
    parser.add_argument("--m", type=int, help="ad-hoc GEMM M (with --n/--k)")
    parser.add_argument("--n", type=int, help="ad-hoc GEMM N")
    parser.add_argument("--k", type=int, help="ad-hoc GEMM K")
    parser.add_argument("--batch", type=int, default=None,
                        help="override a suite's streamed-rows (batch) dimension")
    parser.add_argument("--batches", default=None,
                        help="comma-separated batch sizes: sweep each suite "
                             "over the batch axis (Fig. 7-style curves; "
                             "suite workloads only)")
    parser.add_argument("--scale", type=int, default=None,
                        help="divide each workload dimension by this (default 4)")
    parser.add_argument("--scale-batch", type=int, default=None,
                        help="divide each op's batch-role dimension by this "
                             "(suite workloads only; applies at op lowering)")
    parser.add_argument("--scale-spatial", type=int, default=None,
                        help="divide each op's spatial/sequence extent by this "
                             "(conv output-spatial product, attention sequence "
                             "dims; suite workloads only)")
    parser.add_argument("--fidelity", default=None, choices=sorted(FIDELITIES),
                        help="simulation backend (default: fast)")


def _add_session_knobs(parser: argparse.ArgumentParser) -> None:
    """The shared execution flags (``sweep`` and ``plan run``)."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result-cache directory (default: ~/.cache/repro)")
    parser.add_argument("--verify", action="store_true",
                        help="statically lint each distinct program before "
                             "simulating (fails on any diagnostic)")


def _add_program_targets(parser: argparse.ArgumentParser) -> None:
    """The shared program-target flags (``lint`` and ``bounds``).

    :func:`_lint_targets` expands them: one ad-hoc ``--m/--n/--k`` GEMM or
    the distinct programs of registered suites (no baseline insertion).
    """
    parser.add_argument("--m", type=int, help="ad-hoc GEMM M (with --n/--k)")
    parser.add_argument("--n", type=int, help="ad-hoc GEMM N")
    parser.add_argument("--k", type=int, help="ad-hoc GEMM K")
    parser.add_argument("--workloads", default=None,
                        help='comma-separated suite names or "all" '
                             "(default: table1)")
    parser.add_argument("--designs", default="all",
                        help='"all" or comma-separated design keys to check '
                             "(default: all)")
    parser.add_argument("--batch", type=int, default=None,
                        help="override a suite's streamed-rows (batch) dimension")
    parser.add_argument("--scale", type=int, default=4,
                        help="divide each workload dimension by this (default 4)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON instead of a table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RASA (DAC 2021) reproduction: simulators, experiments, tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the registered design points")
    sub.add_parser("table1", help="print Table I")

    models = sub.add_parser("models", help="list the registered workload suites")
    models.add_argument("--batch", type=int, default=None,
                        help="override the streamed-rows (batch) dimension")
    models.add_argument("--scale", type=int, default=1,
                        help="divide each GEMM dimension by this (default 1)")
    models.add_argument("--lint", action="store_true",
                        help="statically verify each suite's distinct programs "
                             "and add a per-suite diagnostic count (0 means "
                             "clean; full-size suites take a while — combine "
                             "with --scale for a quick self-check)")

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(1, 2, 5, 6, 7))
    fig.add_argument("--scale", type=int, default=4,
                     help="divide each GEMM dimension by this factor (default 4)")
    fig.add_argument("--workloads", default=None,
                     help="fig 7 only: sweep whole model suites over the "
                          "batch axis instead of the six FC layers "
                          '(comma-separated suite names, or "all")')

    area = sub.add_parser("area", help="Sec. V area/energy report")
    area.add_argument("--scale", type=int, default=4)

    report = sub.add_parser("report", help="full reproduction report (markdown)")
    report.add_argument("--scale", type=int, default=4)
    report.add_argument("--fidelity", default="fast", choices=sorted(FIDELITIES),
                        help="backend for the suite sections E15/E16 "
                             "(default: fast)")
    report.add_argument("-o", "--output", type=Path, default=None,
                        help="write to a file instead of stdout")

    sim = sub.add_parser("simulate", help="run one GEMM on one design")
    sim.add_argument("--design", default="rasa-dmdb-wls", choices=sorted(DESIGNS))
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--fidelity", default="fast", choices=sorted(FIDELITIES),
                     help="simulation backend (default: fast)")

    sweep = sub.add_parser(
        "sweep",
        help="run a (designs x workloads) grid, parallel and cache-backed",
    )
    _add_sweep_axes(sweep)
    _add_session_knobs(sweep)

    plan = sub.add_parser(
        "plan",
        help="build, inspect, run (optionally one --shard of), and merge "
             "declarative sweep plans",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    show = plan_sub.add_parser(
        "show", help="print a plan (summary + canonical JSON) without running it"
    )
    _add_sweep_axes(show)
    show.add_argument("--plan", dest="plan_file", type=Path, default=None,
                      help="load the plan from a JSON file instead of flags")
    show.add_argument("--shard", default=None,
                      help="annotate the plan as deterministic shard I/N")
    show.add_argument("-o", "--output", type=Path, default=None,
                      help="write canonical plan JSON to a file")

    run = plan_sub.add_parser(
        "run", help="execute a plan (or one --shard I/N slice of it)"
    )
    _add_sweep_axes(run)
    _add_session_knobs(run)
    run.add_argument("--plan", dest="plan_file", type=Path, default=None,
                     help="load the plan from a JSON file instead of flags")
    run.add_argument("--shard", default=None,
                     help="run deterministic shard I/N of the plan only")
    run.add_argument("-o", "--output", type=Path, default=None,
                     help="write the (shard) report as canonical JSON")

    merge = plan_sub.add_parser(
        "merge", help="merge shard reports into the full report, bit-identically"
    )
    merge.add_argument("reports", type=Path, nargs="+",
                       help="shard report JSON files (from: plan run -o)")
    merge.add_argument("-o", "--output", type=Path, default=None,
                       help="write the merged report as canonical JSON")

    serve = sub.add_parser(
        "serve",
        help="run the persistent sweep coordinator: an HTTP JSON API over a "
             "durable SQLite job store with leased shards and a lease reaper",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default: {DEFAULT_PORT}; 0 picks a "
                            "free one and prints it)")
    serve.add_argument("--db", type=Path, default=None,
                       help="SQLite job-store path; reopening it resumes "
                            "in-flight plans (default: <cache dir>/service.db)")
    serve.add_argument("--lease", type=float, default=30.0,
                       help="seconds an unheartbeated shard lease lives "
                            "before the reaper re-queues it (default: 30)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="claims per shard before it seals FAILED "
                            "(default: 3)")
    serve.add_argument("--reap-interval", type=float, default=1.0,
                       help="seconds between lease-reaper passes (default: 1)")

    submit = sub.add_parser(
        "submit",
        help="post a sweep plan to the coordinator as N leased shards "
             "(same axis flags as sweep, or --plan FILE)",
    )
    _add_sweep_axes(submit)
    submit.add_argument("--plan", dest="plan_file", type=Path, default=None,
                        help="load the plan from a JSON file instead of flags")
    submit.add_argument("--shards", type=int, default=2,
                        help="shard fan-out, clamped to the plan's distinct "
                             "point count (default: 2)")
    submit.add_argument("--priority", type=int, default=0,
                        help="claim-queue priority: higher-priority plans' "
                             "shards are leased first (default: 0)")
    submit.add_argument("--url", default=None,
                        help="coordinator URL (default: $REPRO_SERVICE_URL "
                             f"or http://127.0.0.1:{DEFAULT_PORT})")
    submit.add_argument("--wait", action="store_true",
                        help="block until every shard completes, then print "
                             "the merged tables (or write them with -o)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up on --wait after this many seconds")
    submit.add_argument("--poll", type=float, default=0.5,
                        help="--wait poll interval in seconds (default: 0.5)")
    submit.add_argument("--id-only", action="store_true",
                        help="print only the plan id (for scripting)")
    submit.add_argument("-o", "--output", type=Path, default=None,
                        help="with --wait: write the merged report JSON, "
                             "byte-for-byte as the service serves it")

    worker = sub.add_parser(
        "worker",
        help="run a pull-model shard worker: claim leased shards from the "
             "coordinator, simulate them, stream the reports back",
    )
    worker.add_argument("--url", default=None,
                        help="coordinator URL (default: $REPRO_SERVICE_URL "
                             f"or http://127.0.0.1:{DEFAULT_PORT})")
    worker.add_argument("--jobs", type=int, default=None,
                        help="simulation processes per shard "
                             "(default: CPU count)")
    worker.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    worker.add_argument("--cache-dir", type=Path, default=None,
                        help="result-cache directory (default: ~/.cache/repro)")
    worker.add_argument("--poll", type=float, default=0.5,
                        help="seconds between claims when the queue is dry "
                             "(default: 0.5)")
    worker.add_argument("--idle-exit", type=float, default=None,
                        help="exit after this many consecutive dry seconds "
                             "(default: serve forever)")
    worker.add_argument("--max-shards", type=int, default=None,
                        help="stop after this many shards (default: unbounded)")
    worker.add_argument("--worker-id", default=None,
                        help="lease identity (default: <host>-<pid>)")
    worker.add_argument("--stall-seconds", type=float, default=0.0,
                        help="fault injection: sleep between claiming and "
                             "simulating, so tests can kill the worker "
                             "mid-shard (default: 0)")

    status = sub.add_parser(
        "status",
        help="list submitted plans, or show one plan's per-shard lifecycle "
             "and fetch its merged report",
    )
    status.add_argument("plan_id", nargs="?", default=None,
                        help="plan id from submit (omit to list every plan)")
    status.add_argument("--url", default=None,
                        help="coordinator URL (default: $REPRO_SERVICE_URL "
                             f"or http://127.0.0.1:{DEFAULT_PORT})")
    status.add_argument("--wait", action="store_true",
                        help="block until the plan completes first")
    status.add_argument("--timeout", type=float, default=None,
                        help="give up on --wait after this many seconds")
    status.add_argument("--poll", type=float, default=0.5,
                        help="--wait poll interval in seconds (default: 0.5)")
    status.add_argument("-o", "--output", type=Path, default=None,
                        help="write the merged report JSON, byte-for-byte as "
                             "served (the plan must be complete)")

    lint = sub.add_parser(
        "lint",
        help="statically verify generated programs (def-use, memory legality, "
             "hazards) and cross-check static counters against the analytic "
             "and fast models",
    )
    _add_program_targets(lint)
    lint.add_argument("--no-oracle", action="store_true",
                      help="skip the three-way counter cross-check "
                           "(diagnostics and hazards only)")
    lint.add_argument("--bounds", action="store_true",
                      help="also run the cycle-level bound oracle "
                           "(LB <= fast <= UB per design; see: repro bounds)")

    bounds = sub.add_parser(
        "bounds",
        help="static cycle bounds per program x design: dependence/resource "
             "lower bounds, list-schedule upper bound, bottleneck "
             "attribution — cross-checked against the analytic and fast "
             "models (exit 1 on any violated bound)",
    )
    _add_program_targets(bounds)

    asm = sub.add_parser("asm", help="assemble .rasa text into a JSONL trace")
    asm.add_argument("source", type=Path)
    asm.add_argument("output", type=Path)

    dis = sub.add_parser("disasm", help="disassemble a JSONL trace to .rasa text")
    dis.add_argument("trace", type=Path)

    return parser


def _cmd_designs() -> int:
    rows = [
        (
            d.key,
            d.label,
            d.config.pe.name,
            d.config.control.value,
            f"{d.config.phys_rows}x{d.config.phys_cols}",
            d.config.serial_mm_latency,
        )
        for d in DESIGNS.values()
    ]
    print(format_table(
        ["key", "label", "PE", "control", "array", "serial mm latency"], rows
    ))
    return 0


def _format_op_composition(composition: Dict[str, int]) -> str:
    """``{kind: count}`` -> "53 conv-fwd / 53 conv-dgrad / ..." (suite order)."""
    if not composition:
        return "pre-lowered"
    return " / ".join(f"{count} {kind}" for kind, count in composition.items())


def _cmd_models(args) -> int:
    rows = []
    lint_cache: Dict[Tuple[int, int, int], int] = {}  # padded dims -> diags
    total_diags = 0
    for name in suite_names():
        spec = SUITES[name]
        suite = get_suite(name, batch=args.batch, scale=args.scale)
        batch = args.batch if args.batch is not None else spec.default_batch
        row = [
            name,
            len(suite),
            len(suite.distinct()),
            f"{suite.dedup_factor:.1f}x",
            f"{suite.total_macs / 1e6:.0f}",
            batch if batch is not None else "per-layer",
            _format_op_composition(spec.op_composition(batch=args.batch)),
        ]
        if args.lint:
            # Distinct programs dedup across suites too (padded dims are
            # the program identity), so shared shapes lint exactly once.
            diags = 0
            for entry in suite.distinct():
                dims = entry.shape.tile_padded().dims
                if dims not in lint_cache:
                    lint_cache[dims] = len(lint_shape(entry.shape).diagnostics)
                diags += lint_cache[dims]
            total_diags += diags
            row.append(diags)
        row.append(spec.description)
        rows.append(tuple(row))
    headers = ["suite", "GEMMs", "distinct", "dedup", "MMACs", "batch", "ops"]
    if args.lint:
        headers.append("diags")
    headers.append("description")
    print(format_table(
        headers,
        rows,
        title="workload suites — sweep with: repro sweep --workloads <suite>",
    ))
    if args.lint:
        print(
            f"lint: {total_diags} diagnostic(s) across "
            f"{len(lint_cache)} distinct program(s) at scale 1/{args.scale}"
        )
        return 0 if not total_diags else 1
    return 0


def _cmd_fig(args) -> int:
    number = args.number
    settings = ExperimentSettings(scale=args.scale)
    if args.workloads is not None and number != 7:
        raise ReproError("--workloads applies to fig 7 only")
    if number == 1:
        print(fig1_toy_example().render())
    elif number == 2:
        print(fig2_utilization().render())
    elif number == 5:
        print(fig5_normalized_runtime(settings).render())
    elif number == 6:
        print(fig6_performance_per_area(settings).render())
    elif args.workloads is not None:
        # Unknown names raise "unknown workload suite" from the plan.
        print(
            suite_batch_sweep(
                settings, suites=_suite_spec_names(args.workloads)
            ).render()
        )
    else:
        print(fig7_batch_sensitivity(settings).render())
    return 0


def _cmd_simulate(args) -> int:
    shape = GemmShape(m=args.m, n=args.n, k=args.k, name="cli")
    result = run_design(args.design, shape, fidelity=args.fidelity)
    print(f"design      : {get_design(args.design).label}")
    print(f"workload    : {shape}")
    print(f"fidelity    : {args.fidelity}")
    print(f"instructions: {result.instructions} ({result.mm_count} rasa_mm)")
    print(f"cycles      : {result.cycles} ({result.seconds * 1e3:.3f} ms @ 2 GHz)")
    print(f"IPC         : {result.ipc:.3f}")
    print(f"WLBP bypass : {result.bypass_count} ({result.bypass_rate:.0%})")
    return 0


def _sweep_designs(spec: str) -> List[str]:
    if spec == "all":
        return list(DESIGNS)
    keys = [key.strip() for key in spec.split(",") if key.strip()]
    for key in keys:
        get_design(key)  # raises ConfigError with the known keys
    if "baseline" not in keys:
        keys.insert(0, "baseline")  # normalization needs the baseline run
    return keys


def _split_spec(spec: str) -> List[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]


def _is_suite_spec(spec: str, batch: Optional[int], batches: Optional[str] = None) -> bool:
    """Whether ``--workloads`` names model suites (vs Table I layers).

    Plain ``table1`` without ``--batch``/``--batches`` keeps the historical
    per-layer grid output; any other suite name — or ``table1`` rebatched,
    batch-swept, or mixed with other suites — takes the dedup-aware suite
    path.
    """
    parts = _split_spec(spec)
    if not parts or not any(part in SUITES or part == "all" for part in parts):
        return False  # layer names (or typos): _sweep_shapes reports them
    others = [part for part in parts if part not in SUITES and part != "all"]
    if not others:
        return (
            "all" in parts
            or parts != ["table1"]
            or batch is not None
            or batches is not None
        )
    unknown = [part for part in others if part not in TABLE1_LAYERS]
    if unknown:
        raise ReproError(
            f"unknown workload {unknown[0]!r}; known suites: "
            f"{', '.join(SUITES)}, all; known layers: {', '.join(TABLE1_LAYERS)}"
        )
    raise ReproError(
        "--workloads cannot mix suite names with Table I layer names; "
        f"suites: {', '.join(SUITES)}"
    )


def _sweep_shapes(spec: str, settings: ExperimentSettings) -> Dict[str, GemmShape]:
    table1 = workload_shapes(settings)
    if spec == "table1":
        return table1
    shapes: Dict[str, GemmShape] = {}
    for name in _split_spec(spec):
        if name not in table1:
            raise ReproError(
                f"unknown workload {name!r}; known: table1, "
                f"{', '.join(table1)}, suites: {', '.join(SUITES)}, all"
            )
        shapes[name] = table1[name]
    return shapes


def _normalized_cycle_cells(cycles: Dict[str, Dict[str, int]], design_keys: List[str]):
    """Shared "cycles (normalized to baseline)" cell assembly.

    ``cycles`` maps row label -> design key -> end-to-end cycles.  Returns
    per-row formatted cells plus the GEOMEAN cells (``None`` for
    single-row tables).  Both sweep output modes build on this, so their
    formatting and geomean semantics cannot diverge.  Plans without a
    ``baseline`` design print raw cycles (nothing to normalize against).
    """
    has_baseline = "baseline" in design_keys
    normalized = {
        row: {
            key: (per[key] / per["baseline"])
            if has_baseline and per["baseline"]
            else 0.0
            for key in design_keys
        }
        for row, per in cycles.items()
    }
    cells = {
        row: [
            f"{cycles[row][key]} ({normalized[row][key]:.3f})"
            if has_baseline
            else f"{cycles[row][key]}"
            for key in design_keys
        ]
        for row in cycles
    }
    geomean = (
        [
            f"{geometric_mean(normalized[row][key] for row in cycles):.3f}"
            for key in design_keys
        ]
        if len(cycles) > 1 and has_baseline
        else None
    )
    return cells, geomean


def _suite_spec_names(spec: str) -> List[str]:
    """Expand a suite ``--workloads`` spec into unique registered names."""
    names = [
        name
        for part in _split_spec(spec)
        for name in (suite_names() if part == "all" else [part])
    ]
    return list(dict.fromkeys(names))  # "dlrm,dlrm" / "all,dlrm" don't repeat


def _parse_batches(spec: str) -> List[int]:
    """Parse ``--batches`` into ints; the plan validates the values."""
    parts = _split_spec(spec)
    if not parts:
        raise ReproError("--batches needs at least one batch size")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ReproError(
            f"--batches must be comma-separated integers, got {spec!r}"
        ) from None


def _parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``--shard I/N``; the plan validates the range."""
    parts = spec.split("/")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ReproError(
        f"bad --shard spec {spec!r}; expected I/N with 0 <= I < N (e.g. 0/2)"
    )


def _session_from_args(args) -> Session:
    """One :class:`Session` per invocation, from the shared execution flags."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Session(
        cache=cache, workers=args.jobs, verify=getattr(args, "verify", False)
    )


def _lint_designs(spec: str) -> List[str]:
    """Design keys for the lint counter oracle (no baseline insertion)."""
    if spec == "all":
        return list(DESIGNS)
    keys = _split_spec(spec)
    if not keys:
        raise ReproError('--designs needs "all" or comma-separated design keys')
    for key in keys:
        get_design(key)  # raises ConfigError with the known keys
    return keys


def _lint_targets(args) -> List[Tuple[str, GemmShape, Tuple[str, ...]]]:
    """Expand the lint flags into distinct programs: (label, shape, suites).

    Suites dedup by tile-padded dims — the program identity — so shapes
    shared across models lint and cross-check exactly once.
    """
    if (args.m, args.n, args.k) != (None, None, None):
        if None in (args.m, args.n, args.k):
            raise ReproError("--m/--n/--k must be given together")
        if args.workloads is not None:
            raise ReproError(
                "--m/--n/--k (one ad-hoc GEMM) and --workloads (suites) are "
                "mutually exclusive"
            )
        return [("cli", GemmShape(m=args.m, n=args.n, k=args.k, name="cli"), ())]
    spec = args.workloads if args.workloads is not None else "table1"
    targets: Dict[Tuple[int, int, int], Tuple[str, GemmShape, List[str]]] = {}
    for name in _suite_spec_names(spec):
        suite = get_suite(name, batch=args.batch, scale=args.scale)
        for entry in suite.distinct():
            dims = entry.shape.tile_padded().dims
            if dims not in targets:
                targets[dims] = (entry.shape.name or entry.layers[0],
                                 entry.shape, [name])
            elif name not in targets[dims][2]:
                targets[dims][2].append(name)
    return [(label, shape, tuple(suites))
            for label, shape, suites in targets.values()]


def _lint_report_json(
    label: str,
    shape: GemmShape,
    suites: Tuple[str, ...],
    report: VerifierReport,
    mismatches,
    bound_checks: Tuple[BoundsCheck, ...] = (),
) -> Dict:
    payload = {
        "workload": label,
        "suites": list(suites),
        "m": shape.m, "n": shape.n, "k": shape.k,
        "counters": dataclasses.asdict(report.counters),
        "hazards": dataclasses.asdict(report.hazards),
        "diagnostics": [dataclasses.asdict(d) for d in report.diagnostics],
        "counter_mismatches": [dataclasses.asdict(m) for m in mismatches],
    }
    if bound_checks:
        payload["bounds"] = [_bounds_check_json(c) for c in bound_checks]
    return payload


def _cmd_lint(args) -> int:
    design_keys = _lint_designs(args.designs)
    targets = _lint_targets(args)
    rows = []
    entries = []
    total_diags = total_mismatches = total_bound_violations = 0
    for label, shape, suites in targets:
        report = lint_shape(shape)
        mismatches = (
            () if args.no_oracle
            else cross_check_counters(shape, design_keys=design_keys)
        )
        bound_checks = (
            cross_check_bounds(shape, design_keys=design_keys)
            if args.bounds else ()
        )
        total_diags += len(report.diagnostics)
        total_mismatches += len(mismatches)
        total_bound_violations += sum(len(c.violations) for c in bound_checks)
        entries.append((label, shape, suites, report, mismatches, bound_checks))
        c, h = report.counters, report.hazards
        rows.append((
            label,
            f"{shape.m}x{shape.n}x{shape.k}",
            c.instructions,
            c.mm_count,
            c.weight_reuses,
            f"{h.raw}/{h.war}/{h.waw}",
            h.longest_raw_chain,
            h.max_live,
            len(report.diagnostics),
            "-" if args.no_oracle else ("ok" if not mismatches else "MISMATCH"),
        ))
    if args.json:
        payload = {
            "scale": args.scale,
            "designs": design_keys,
            "programs": [
                _lint_report_json(label, shape, suites, report, mismatches,
                                  bound_checks)
                for label, shape, suites, report, mismatches, bound_checks
                in entries
            ],
            "total_diagnostics": total_diags,
            "total_counter_mismatches": total_mismatches,
        }
        if args.bounds:
            payload["total_bound_violations"] = total_bound_violations
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(
            ["workload", "mnk", "insts", "mm", "reuses", "raw/war/waw",
             "chain", "max live", "diags", "oracle"],
            rows,
            title="static verification — repro.analysis.verifier",
        ))
        shown_per_program = 8
        for label, _, _, report, mismatches, bound_checks in entries:
            for diag in report.diagnostics[:shown_per_program]:
                print(f"{label}: {diag}")
            hidden = len(report.diagnostics) - shown_per_program
            if hidden > 0:
                print(f"{label}: ... {hidden} more diagnostic(s) elided")
            for mismatch in mismatches:
                print(f"{label}: counter mismatch: {mismatch}")
            for check in bound_checks:
                for violation in check.violations:
                    print(f"{label}: bound violation: {violation}")
        oracle = (
            "oracle skipped"
            if args.no_oracle
            else f"{total_mismatches} counter mismatch(es) over "
                 f"{len(design_keys)} design(s)"
        )
        summary = f"{len(targets)} program(s): {total_diags} diagnostic(s), {oracle}"
        if args.bounds:
            summary += f", {total_bound_violations} bound violation(s)"
        print(summary)
    failed = total_diags or total_mismatches or total_bound_violations
    return 0 if not failed else 1


def _bounds_check_json(check: BoundsCheck) -> Dict:
    return {
        "design": check.design_key,
        "lower_bound": check.report.lower_bound,
        "upper_bound": check.report.upper_bound,
        "analytic_cycles": check.analytic_cycles,
        "fast_cycles": check.fast_cycles,
        "binding": check.report.binding,
        "lb_tightness": round(check.lb_tightness, 4),
        "ub_tightness": round(check.ub_tightness, 4),
        "components": {b.resource: b.cycles for b in check.report.components},
        "violations": [dataclasses.asdict(v) for v in check.violations],
    }


def _cmd_bounds(args) -> int:
    design_keys = _lint_designs(args.designs)
    targets = _lint_targets(args)
    rows = []
    entries = []
    total_violations = 0
    for label, shape, suites in targets:
        checks = cross_check_bounds(shape, design_keys=design_keys)
        entries.append((label, shape, suites, checks))
        for check in checks:
            total_violations += len(check.violations)
            rows.append((
                label,
                f"{shape.m}x{shape.n}x{shape.k}",
                check.design_key,
                check.report.lower_bound,
                check.analytic_cycles,
                check.fast_cycles,
                check.report.upper_bound,
                f"{check.lb_tightness:.3f}",
                check.report.binding,
                "ok" if check.ok else "VIOLATION",
            ))
    if args.json:
        print(json.dumps({
            "scale": args.scale,
            "designs": design_keys,
            "programs": [
                {
                    "workload": label,
                    "suites": list(suites),
                    "m": shape.m, "n": shape.n, "k": shape.k,
                    "checks": [_bounds_check_json(c) for c in checks],
                }
                for label, shape, suites, checks in entries
            ],
            "total_violations": total_violations,
        }, indent=2))
    else:
        print(format_table(
            ["workload", "mnk", "design", "LB", "analytic", "fast", "UB",
             "LB/fast", "binding", "check"],
            rows,
            title="static cycle bounds — repro.analysis.bounds",
        ))
        for label, _, _, checks in entries:
            for check in checks:
                for violation in check.violations:
                    print(f"{label}: bound violation: {violation}")
        print(
            f"{len(targets)} program(s) x {len(design_keys)} design(s): "
            f"{total_violations} bound violation(s)"
        )
    return 0 if not total_violations else 1


def _reject_axis_flags_with_plan_file(args) -> None:
    """``--plan`` loads the *whole* declaration; axis flags cannot amend it.

    Silently ignoring them would run a different sweep than the flags
    describe, so *any* axis flag next to ``--plan`` is an error — the
    parser keeps ``None`` defaults precisely so explicitly typed values
    (even ones matching a default, like ``--scale 4``) are caught.
    """
    overridden = [
        flag
        for flag, value in (
            ("--designs", args.designs),
            ("--workloads", args.workloads),
            ("--m", args.m),
            ("--n", args.n),
            ("--k", args.k),
            ("--batch", args.batch),
            ("--batches", args.batches),
            ("--scale", args.scale),
            ("--scale-batch", args.scale_batch),
            ("--scale-spatial", args.scale_spatial),
            ("--fidelity", args.fidelity),
        )
        if value is not None
    ]
    if overridden:
        raise ReproError(
            f"--plan loads the full declaration; {', '.join(overridden)} "
            "cannot amend a plan file — edit the JSON or rebuild it with "
            "'repro plan show ... -o'"
        )


def _plan_from_args(args) -> SweepPlan:
    """Build (or load) the :class:`SweepPlan` the shared axis flags declare.

    The decision tree mirrors ``repro sweep``: an ad-hoc ``--m/--n/--k``
    GEMM, a suite declaration (names / "all", optional ``--batch`` or
    ``--batches``), or a Table I layer grid.
    """
    if getattr(args, "plan_file", None) is not None:
        _reject_axis_flags_with_plan_file(args)
        return SweepPlan.from_json(args.plan_file.read_text())
    designs = args.designs if args.designs is not None else "all"
    workloads = args.workloads if args.workloads is not None else "table1"
    scale = args.scale if args.scale is not None else 4
    scale_batch = args.scale_batch if args.scale_batch is not None else 1
    scale_spatial = args.scale_spatial if args.scale_spatial is not None else 1
    fidelity = args.fidelity if args.fidelity is not None else "fast"
    if args.batch is not None and args.batches is not None:
        raise ReproError(
            "--batch (one override) and --batches (a sweep axis) are "
            "mutually exclusive"
        )
    if (args.m, args.n, args.k) != (None, None, None):
        if None in (args.m, args.n, args.k):
            raise ReproError("--m/--n/--k must be given together")
        if args.batch is not None or args.batches is not None:
            raise ReproError(
                "--batch/--batches apply to suite workloads, not --m/--n/--k"
            )
        if args.scale is not None:
            raise ReproError(
                "--scale does not apply to an ad-hoc --m/--n/--k GEMM; "
                "give the dimensions you want simulated"
            )
        if args.scale_batch is not None or args.scale_spatial is not None:
            raise ReproError(
                "--scale-batch/--scale-spatial apply to suite workloads "
                "(ops know their dimension roles), not --m/--n/--k"
            )
        return SweepPlan(
            designs=tuple(_sweep_designs(designs)),
            workloads=(("cli", GemmShape(m=args.m, n=args.n, k=args.k, name="cli")),),
            fidelity=fidelity,
        )
    if _is_suite_spec(workloads, args.batch, args.batches):
        return SweepPlan(
            designs=tuple(_sweep_designs(designs)),
            suites=tuple(_suite_spec_names(workloads)),
            batch=args.batch,
            batches=(
                tuple(_parse_batches(args.batches))
                if args.batches is not None
                else None
            ),
            scale=scale,
            scale_batch=scale_batch,
            scale_spatial=scale_spatial,
            fidelity=fidelity,
        )
    # Resolve the spec first so a typo'd suite name reports "unknown
    # workload", not a misleading --batch complaint.  The plan carries the
    # *unscaled* Table I shapes plus the scale knob (applied at expansion,
    # same floors), so its JSON records what will actually run.
    shapes = _sweep_shapes(workloads, ExperimentSettings(scale=1))
    if args.batch is not None or args.batches is not None:
        raise ReproError(
            "--batch/--batches apply to suite workloads "
            f"({', '.join(SUITES)}), not Table I layer names"
        )
    if args.scale_batch is not None or args.scale_spatial is not None:
        raise ReproError(
            "--scale-batch/--scale-spatial apply to suite workloads "
            f"({', '.join(SUITES)}), not Table I layer names"
        )
    return SweepPlan(
        designs=tuple(_sweep_designs(designs)),
        workloads=tuple(shapes.items()),
        scale=scale,
        fidelity=fidelity,
    )


# -- report rendering (shared by sweep and plan run/merge) -------------------------


def _cycles_label(design_keys: List[str]) -> str:
    """Honest table label: normalization only happens with a baseline."""
    if "baseline" in design_keys:
        return "cycles (normalized to baseline)"
    return "cycles"


def _print_grid_tables(report: SweepReport) -> None:
    """The (workload x design) table over the plan's named workloads."""
    plan = report.plan
    design_keys = list(plan.designs)
    grid = report.grid()
    cycles = {
        workload: {key: grid[workload][key].cycles for key in design_keys}
        for workload, _ in plan.workloads
    }
    cells, geomean = _normalized_cycle_cells(cycles, design_keys)
    headers = ["workload"] + [DESIGNS[key].label for key in design_keys]
    rows = [[workload] + cells[workload] for workload, _ in plan.workloads]
    if geomean is not None:
        rows.append(["GEOMEAN"] + geomean)
    print(format_table(
        headers, rows,
        title=f"sweep — {_cycles_label(design_keys)}, fidelity={plan.fidelity}",
    ))


def _print_suite_tables(report: SweepReport) -> None:
    """The per-suite end-to-end totals table."""
    plan = report.plan
    design_keys = list(plan.designs)
    totals = report.suite_totals()
    cycles = {
        name: {key: per_design[key].cycles for key in design_keys}
        for name, per_design in totals.items()
    }
    cells, geomean = _normalized_cycle_cells(cycles, design_keys)
    headers = ["model", "GEMMs", "distinct"] + [
        DESIGNS[key].label for key in design_keys
    ]
    rows = []
    for name, per_design in totals.items():
        first = per_design[design_keys[0]]
        rows.append([name, first.gemm_count, first.simulations] + cells[name])
    if geomean is not None:
        rows.append(["GEOMEAN", "", ""] + geomean)
    print(format_table(
        headers, rows,
        title=(
            f"suite sweep — end-to-end {_cycles_label(design_keys)}, "
            f"fidelity={plan.fidelity}"
        ),
    ))


def _print_curve_tables(report: SweepReport) -> None:
    """One Fig. 7-style table per suite along the plan's batch axis."""
    plan = report.plan
    design_keys = list(plan.designs)
    curves = report.batch_curves()
    headers = ["batch"] + [DESIGNS[key].label for key in design_keys]
    for name, per_design in curves.items():
        cycles = {
            batch: {
                key: per_design[key].totals[i].cycles for key in design_keys
            }
            for i, batch in enumerate(plan.batches)
        }
        cells, geomean = _normalized_cycle_cells(cycles, design_keys)
        rows = [[batch] + cells[batch] for batch in plan.batches]
        if geomean is not None:
            rows.append(["GEOMEAN"] + geomean)
        print(format_table(
            headers, rows,
            title=(
                f"suite batch sweep — {name}: end-to-end "
                f"{_cycles_label(design_keys)}, fidelity={plan.fidelity}"
            ),
        ))


def _print_report_tables(report: SweepReport) -> None:
    """Render every view the report's plan declares (complete reports only)."""
    if report.plan.jobs:
        print(f"{len(report.plan.jobs)} explicit jobs (no table view)")
    if report.plan.workloads:
        _print_grid_tables(report)
    if report.plan.suites:
        if report.plan.batches is not None:
            _print_curve_tables(report)
        else:
            _print_suite_tables(report)


def _cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    session = _session_from_args(args)
    start = time.perf_counter()
    report = session.run(plan)
    elapsed = time.perf_counter() - start

    _print_report_tables(report)
    # The plan dedups by cache key — tile-padded dims, across suites and
    # batches — so its own counts are what simulates on a cold cache.
    distinct, jobs = len(plan.distinct_keys()), plan.job_count()
    cache = session.cache
    if not plan.suites:
        where = (
            f"cache: {report.cache_hits} hits, {report.simulated} misses "
            f"({cache.path})"
            if cache is not None
            else "cache disabled"
        )
        print(f"{jobs} simulations in {elapsed:.2f}s — {where}")
        return 0
    if plan.batches is not None:
        head = (
            f"{distinct} distinct points for {jobs} per-batch suite points "
            f"({jobs / distinct:.1f}x cross-batch dedup)"
        )
    else:
        runs = sum(len(suite) for suite, _ in plan.built_suites()) * len(plan.designs)
        head = (
            f"{distinct} distinct points for {runs} suite GEMM runs "
            f"({runs / distinct:.1f}x dedup)"
        )
    where = (
        f"{report.cache_hits} cached ({cache.path})"
        if cache is not None
        else "cache disabled"
    )
    print(f"{head} in {elapsed:.2f}s — {report.simulated} simulated, {where}")
    return 0


def _sharded_plan_from_args(args) -> SweepPlan:
    plan = _plan_from_args(args)
    if args.shard is not None:
        index, count = _parse_shard(args.shard)
        plan = plan.shard(index, count)
    return plan


def _describe_plan(plan: SweepPlan) -> List[str]:
    distinct = plan.distinct_keys()
    owned = plan.shard_keys()
    lines = [
        f"designs   : {', '.join(plan.designs) or '(none)'}",
        f"workloads : {len(plan.workloads)} named GEMMs",
        "suites    : "
        + (", ".join(_suite_name(entry) for entry in plan.suites) or "(none)"),
        f"batch axis: {list(plan.batches) if plan.batches is not None else '-'}"
        + (f" (batch override {plan.batch})" if plan.batch is not None else ""),
        f"scale     : 1/{plan.scale}"
        + (f", batch 1/{plan.scale_batch}" if plan.scale_batch != 1 else "")
        + (f", spatial 1/{plan.scale_spatial}" if plan.scale_spatial != 1 else "")
        + f", fidelity: {plan.fidelity}",
        f"jobs      : {plan.job_count()} expanded, {len(distinct)} distinct "
        f"points ({plan.job_count() / len(distinct):.1f}x dedup)",
    ]
    if plan.shard_spec is not None:
        index, count = plan.shard_spec
        lines.append(
            f"shard     : {index}/{count} — owns {len(owned)} of "
            f"{len(distinct)} distinct points"
        )
    return lines


def _cmd_plan_show(args) -> int:
    plan = _sharded_plan_from_args(args)
    for line in _describe_plan(plan):
        print(line)
    if args.output is not None:
        args.output.write_text(plan.to_json())
        print(f"wrote {args.output}")
    else:
        print(plan.to_json(indent=2))
    return 0


def _cmd_plan_run(args) -> int:
    plan = _sharded_plan_from_args(args)
    if plan.shard_spec is not None and args.output is None and args.no_cache:
        # Refuse *before* simulating: a shard report that lands nowhere —
        # no file, no cache — cannot be merged and the work is wasted.
        raise ReproError(
            "a sharded run with --no-cache discards its results without "
            "-o/--output; add -o shard.json (or drop --no-cache)"
        )
    session = _session_from_args(args)
    start = time.perf_counter()
    report = session.run(plan)
    elapsed = time.perf_counter() - start
    if report.is_partial:
        index, count = plan.shard_spec
        total = len(plan.distinct_keys())
        print(
            f"shard {index}/{count}: ran {report.distinct_points} of {total} "
            f"distinct points ({report.job_count} jobs) in {elapsed:.2f}s — "
            f"{report.simulated} simulated, {report.cache_hits} cached"
        )
    else:
        _print_report_tables(report)
        print(
            f"{report.job_count} jobs, {report.distinct_points} distinct "
            f"points ({report.dedup_factor:.1f}x dedup) in {elapsed:.2f}s — "
            f"{report.simulated} simulated, {report.cache_hits} cached"
        )
    if args.output is not None:
        args.output.write_text(report.to_json())
        print(f"wrote {args.output}")
    return 0


def _cmd_plan_merge(args) -> int:
    reports = [SweepReport.from_json(path.read_text()) for path in args.reports]
    merged = reports[0].merge(*reports[1:])
    _print_report_tables(merged)
    print(
        f"merged {len(reports)} report(s): {merged.distinct_points} distinct "
        f"points, {merged.job_count} jobs"
    )
    if args.output is not None:
        args.output.write_text(merged.to_json())
        print(f"wrote {args.output}")
    return 0


def _cmd_plan(args) -> int:
    if args.plan_command == "show":
        return _cmd_plan_show(args)
    if args.plan_command == "run":
        return _cmd_plan_run(args)
    return _cmd_plan_merge(args)


# -- the sweep service (repro.service) ---------------------------------------------


def _cmd_serve(args) -> int:
    validate_port(args.port)
    db = args.db if args.db is not None else default_cache_dir() / "service.db"
    config = ServiceConfig(
        lease_seconds=args.lease,
        max_attempts=args.max_attempts,
        reap_interval=args.reap_interval,
    )
    store = JobStore(db)
    coordinator = Coordinator(store, config)
    server = create_server(coordinator, host=args.host, port=args.port)
    coordinator.start_reaper()
    print(
        f"sweep service at {server.url} — job store {db} "
        f"(lease {args.lease:g}s, {args.max_attempts} attempt(s)/shard)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
        server.server_close()
        store.close()
    return 0


def _emit_served_report(
    client: ServiceClient, plan_id: str, output: Optional[Path], quiet: bool
) -> int:
    """Fetch the merged report exactly as served: the bytes are the contract."""
    text = client.plan_report(plan_id)
    if output is not None:
        output.write_text(text)
        if not quiet:
            print(f"wrote {output}")
    elif not quiet:
        _print_report_tables(SweepReport.from_json(text))
    return 0


def _cmd_submit(args) -> int:
    plan = _plan_from_args(args)
    client = ServiceClient(args.url)
    response = client.submit(plan, args.shards, args.priority)
    if args.id_only:
        print(response["plan_id"])
    else:
        verb = "submitted" if response["created"] else "already queued"
        priority = response.get("priority", 0)
        note = f" (priority {priority})" if priority else ""
        print(
            f"plan {response['plan_id']} {verb} at {client.url}: "
            f"{response['shard_count']} shard(s) over "
            f"{response['distinct_points']} distinct points "
            f"({response['job_count']} jobs){note}"
        )
    if not args.wait:
        return 0
    client.wait_for_plan(
        response["plan_id"], timeout=args.timeout, poll_interval=args.poll
    )
    return _emit_served_report(
        client, response["plan_id"], args.output, quiet=args.id_only
    )


def _cmd_worker(args) -> int:
    client = ServiceClient(args.url)

    def _make_session() -> Session:
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        return Session(cache=cache, workers=args.jobs)

    worker = ShardWorker(
        client,
        session_factory=_make_session,
        worker_id=args.worker_id,
        poll_interval=args.poll,
        idle_exit=args.idle_exit,
        max_shards=args.max_shards,
        stall_seconds=args.stall_seconds,
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(
        f"worker {worker.worker_id}: {worker.completed} shard(s) completed, "
        f"{worker.failed} failed/rejected"
    )
    return 0


def _shard_progress_cell(shard) -> str:
    """``done/total`` from heartbeat-reported progress, or ``-``.

    COMPLETED shards show their full total even if the final heartbeat
    never landed (completion implies every point ran).
    """
    completed = shard.get("progress_completed")
    total = shard.get("progress_total")
    if shard["state"] == "COMPLETED" and total is not None:
        return f"{total}/{total}"
    if completed is None or total is None:
        return "-"
    return f"{completed}/{total}"


def _cmd_status(args) -> int:
    client = ServiceClient(args.url)
    if args.plan_id is None:
        plans = client.list_plans()
        if not plans:
            print(f"no plans submitted to {client.url}")
            return 0
        rows = [
            (p["plan_id"], p["shard_count"], p.get("priority", 0), p["state"])
            for p in plans
        ]
        print(format_table(
            ["plan", "shards", "priority", "state"], rows,
            title=f"sweep service {client.url}",
        ))
        return 0
    if args.wait:
        client.wait_for_plan(
            args.plan_id, timeout=args.timeout, poll_interval=args.poll
        )
    status = client.plan_status(args.plan_id)
    counts = status["counts"]
    summary = ", ".join(
        f"{counts[state.value]} {state.value}" for state in ShardState
    )
    print(f"plan {args.plan_id}: {status['state']} ({summary})")
    rows = [
        (
            shard["shard_index"],
            shard["state"],
            shard["attempts"],
            _shard_progress_cell(shard),
            shard["worker_id"] or "-",
            shard["last_error"] or "-",
        )
        for shard in status["shards"]
    ]
    print(format_table(
        ["shard", "state", "attempts", "progress", "worker", "last error"], rows
    ))
    if args.output is not None:
        return _emit_served_report(client, args.plan_id, args.output, quiet=False)
    return 0


def _cmd_asm(source: Path, output: Path) -> int:
    program = assemble(source.read_text(), name=source.stem)
    save_trace(program, output)
    print(f"assembled {len(program)} instructions -> {output}")
    return 0


def _cmd_disasm(trace: Path) -> int:
    print(disassemble(load_trace(trace)), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "designs":
            return _cmd_designs()
        if args.command == "models":
            return _cmd_models(args)
        if args.command == "table1":
            print(table1_report())
            return 0
        if args.command == "fig":
            return _cmd_fig(args)
        if args.command == "area":
            print(area_energy_report(ExperimentSettings(scale=args.scale)).render())
            return 0
        if args.command == "report":
            from repro.experiments.report import full_report

            text = full_report(
                ExperimentSettings(scale=args.scale), fidelity=args.fidelity
            )
            if args.output is not None:
                args.output.write_text(text)
                print(f"wrote {args.output}")
            else:
                print(text)
            return 0
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "asm":
            return _cmd_asm(args.source, args.output)
        if args.command == "disasm":
            return _cmd_disasm(args.trace)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
