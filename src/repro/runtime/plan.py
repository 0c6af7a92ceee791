"""Declarative sweep plans: one serializable value describes a whole sweep.

A :class:`SweepPlan` declares the full cross-product a sweep covers —
design keys, named GEMM workloads and/or model suites, an optional batch
axis, the core/codegen/scale knobs and the simulation fidelity — as one
frozen value.  Nothing executes at construction: :meth:`SweepPlan.iter_jobs`
expands the declaration lazily into dedup-keyed :class:`SweepJob`\\ s, and a
:class:`repro.runtime.session.Session` turns a plan into a
:class:`SweepReport`.

Because a plan is a value, it composes the ways values do:

- **serialization** — :meth:`SweepPlan.to_json` renders the plan as
  canonical JSON (sorted keys, compact separators — the same convention
  the result-cache keys use) and :func:`SweepPlan.from_json` reconstructs
  an equal plan, so plans travel between processes and hosts;
- **sharding** — :meth:`SweepPlan.shard` marks a deterministic partition
  of the plan's *distinct cache keys*: shard ``i`` of ``n`` owns every
  ``sorted(keys)[i::n]`` point.  Shards are disjoint and exhaustive, each
  runs independently (on another host, say), and
  :meth:`SweepReport.merge` reassembles results that are bit-identical
  to an unsharded run;
- **inspection** — job counts, distinct points and the dedup factor are
  all derivable before anything simulates.

The report type at the other end replaces the old ``run_*`` return-shape
zoo: :meth:`SweepReport.grid` is the (workload x design) table,
:meth:`SweepReport.suite_totals` the occurrence-weighted
:class:`SuiteTotals` per (suite, design), :meth:`SweepReport.batch_curves`
the per-batch :class:`SuiteBatchCurve` view, and :meth:`SweepReport.point`
the single-result access path.
"""

from __future__ import annotations

import dataclasses
import json
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import get_design
from repro.errors import ExperimentError
from repro.runtime.cache import cache_key
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.ops import DEFAULT_LOWERING, LoweringConfig
from repro.workloads.suites import SUITES, SuiteSpec, WorkloadSuite
from repro.workloads.tiling import BlockingConfig, MMOrder

#: Bump when the plan/report JSON schema changes incompatibly.
PLAN_FORMAT = 1

#: What a plan's ``suites`` axis accepts: a registered suite name, a
#: rebuildable :class:`SuiteSpec`, or an already-built multiset.
SuiteLike = Union[str, SuiteSpec, WorkloadSuite]


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One simulation of the grid: design x shape under shared settings."""

    design_key: str
    shape: GemmShape
    workload: str = ""
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)
    fidelity: str = "fast"

    @property
    def key(self) -> str:
        """The job's stable cache key."""
        return cache_key(
            self.design_key, self.shape, self.core, self.codegen, self.fidelity
        )


@dataclasses.dataclass(frozen=True)
class SuiteTotals:
    """Occurrence-weighted end-to-end totals of one suite on one design.

    ``per_shape`` keeps the distinct points behind the aggregate as
    ``(representative shape, occurrence count, result)`` triples, so
    downstream consumers (energy models, reports) can re-weight without
    re-simulating.  ``cycles``/``instructions``/``mm_count``/
    ``bypass_count``/``weight_loads`` are the multiset-weighted sums —
    i.e. what a back-to-back run of every suite GEMM would accumulate.
    """

    suite: str
    design_key: str
    gemm_count: int      # suite GEMMs, duplicates included
    simulations: int     # distinct points actually simulated
    cycles: int
    instructions: int
    mm_count: int
    bypass_count: int
    weight_loads: int
    per_shape: Tuple[Tuple[GemmShape, int, SimResult], ...]

    @property
    def dedup_factor(self) -> float:
        """How many per-layer simulations each distinct point stood in for."""
        return self.gemm_count / self.simulations if self.simulations else 0.0

    def normalized_to(self, baseline: "SuiteTotals") -> float:
        """End-to-end runtime normalized to a baseline suite run.

        Raises :class:`ExperimentError` when the baseline ran in zero
        cycles — a silent 0.0 here would read as "infinitely fast".
        """
        if baseline.cycles == 0:
            raise ExperimentError(
                f"cannot normalize suite {self.suite!r}: baseline suite "
                f"{baseline.suite!r} on design {baseline.design_key!r} "
                "ran in zero cycles"
            )
        return self.cycles / baseline.cycles

    def speedup_over(self, baseline: "SuiteTotals") -> float:
        """End-to-end speedup over a baseline suite run (>1 is faster).

        Raises :class:`ExperimentError` when this suite ran in zero
        cycles — a silent 0.0 here would read as "no speedup at all".
        """
        if self.cycles == 0:
            raise ExperimentError(
                f"cannot compute speedup: suite {self.suite!r} on design "
                f"{self.design_key!r} ran in zero cycles"
            )
        return baseline.cycles / self.cycles


@dataclasses.dataclass(frozen=True)
class SuiteBatchCurve:
    """One suite's end-to-end totals along the batch axis, on one design.

    ``totals[i]`` are the occurrence-weighted :class:`SuiteTotals` of the
    suite rebuilt at ``batches[i]``.  Batches whose rebuilt shapes lower
    to streams already simulated at another batch (sub-tile batches, or
    batches the suite's geometry maps onto the same padded dims) share
    results — the curve stores the expanded per-batch view regardless, so
    every point is directly comparable to a standalone single-batch suite
    sweep.
    """

    suite: str
    design_key: str
    batches: Tuple[int, ...]
    totals: Tuple[SuiteTotals, ...]

    def __post_init__(self) -> None:
        if len(self.batches) != len(self.totals):
            raise ExperimentError(
                f"suite {self.suite!r} curve has {len(self.batches)} batches "
                f"but {len(self.totals)} totals"
            )

    def totals_by_batch(self) -> Dict[int, SuiteTotals]:
        """``{batch: totals}`` — the mapping view of the curve."""
        return dict(zip(self.batches, self.totals))

    def cycles_by_batch(self) -> Dict[int, int]:
        """``{batch: end-to-end cycles}`` along the curve."""
        return {b: t.cycles for b, t in zip(self.batches, self.totals)}

    def normalized_to(self, baseline: "SuiteBatchCurve") -> Dict[int, float]:
        """Per-batch normalized runtime against a baseline design's curve.

        This is the Fig. 7 y-axis at suite granularity: each batch's
        end-to-end cycles divided by the baseline design's cycles *at the
        same batch*.
        """
        if baseline.batches != self.batches:
            raise ExperimentError(
                f"cannot normalize suite {self.suite!r}: curve batches "
                f"{self.batches} do not match baseline batches "
                f"{baseline.batches}"
            )
        return {
            batch: mine.normalized_to(theirs)
            for batch, mine, theirs in zip(
                self.batches, self.totals, baseline.totals
            )
        }


def _validated_batches(batches: Sequence[int]) -> Tuple[int, ...]:
    """Check a batch axis: non-empty, positive integers, no duplicates."""
    batches = tuple(batches)
    if not batches:
        raise ExperimentError("a suite batch sweep needs at least one batch size")
    for batch in batches:
        if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
            raise ExperimentError(
                f"batch sizes must be positive integers, got {batch!r}"
            )
    duplicates = sorted({b for b in batches if batches.count(b) > 1})
    if duplicates:
        raise ExperimentError(
            "suite batch curves are keyed by batch size; got duplicates: "
            f"{', '.join(str(b) for b in duplicates)}"
        )
    return batches


def _resolve_spec(spec: SuiteLike) -> Union[SuiteSpec, WorkloadSuite]:
    """Resolve a registered suite name; pass specs/built suites through."""
    if isinstance(spec, (SuiteSpec, WorkloadSuite)):
        return spec
    try:
        return SUITES[spec]
    except KeyError:
        raise ExperimentError(
            f"unknown workload suite {spec!r}; known: {', '.join(SUITES)}"
        ) from None


def _suite_name(entry: SuiteLike) -> str:
    return entry if isinstance(entry, str) else entry.name


def _expand_totals(
    suite: WorkloadSuite,
    design: str,
    entries: Sequence,
    results: Iterator[SimResult],
) -> SuiteTotals:
    """Re-weight one design's distinct-point results into suite totals.

    Consumes exactly ``len(entries)`` results from ``results`` — callers
    iterate a flat result stream in job-submission order.
    """
    per_shape = tuple(
        (entry.shape, entry.count, next(results)) for entry in entries
    )
    return SuiteTotals(
        suite=suite.name,
        design_key=design,
        gemm_count=len(suite),
        simulations=len(entries),
        cycles=sum(c * r.cycles for _, c, r in per_shape),
        instructions=sum(c * r.instructions for _, c, r in per_shape),
        mm_count=sum(c * r.mm_count for _, c, r in per_shape),
        bypass_count=sum(c * r.bypass_count for _, c, r in per_shape),
        weight_loads=sum(c * r.weight_loads for _, c, r in per_shape),
        per_shape=per_shape,
    )


def _duplicates(names: Sequence[str]) -> List[str]:
    return sorted({n for n in names if names.count(n) > 1})


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """A frozen, declarative description of one sweep.

    The cross-product it declares:

    - ``designs`` x ``workloads`` — the classic (workload x design) grid
      (``workloads`` maps display names to :class:`GemmShape`\\ s);
    - ``designs`` x ``suites`` [x ``batches``] — whole-model multisets,
      optionally swept along a batch axis.  A suite entry is a registered
      name (serializable), a :class:`SuiteSpec` (rebuildable, in-process
      only) or a built :class:`WorkloadSuite` (serializable, but a fixed
      multiset — it cannot be rebatched);
    - ``jobs`` — pre-built :class:`SweepJob`\\ s appended verbatim, the
      escape hatch for heterogeneous per-job settings.

    ``core``/``codegen``/``fidelity`` apply to every declared (non-``jobs``)
    point; ``scale`` shrinks suite GEMMs exactly like
    :meth:`repro.workloads.suites.SuiteSpec.build` and named workload
    shapes via :meth:`repro.workloads.gemm.GemmShape.scaled` (same
    floors), so plans serialize the *unscaled* declaration; ``batch`` is a
    single streamed-rows override, ``batches`` the sweep axis (mutually
    exclusive).  ``scale_batch``/``scale_spatial`` are the dimension-
    role-aware lowering knobs (:class:`repro.workloads.ops.LoweringConfig`)
    — they apply at op lowering, before the generic ``scale``, and only to
    suites built from op factories (registered names / op-level
    :class:`SuiteSpec`\\ s; pre-built multisets are already lowered).
    ``shard`` marks the plan as one deterministic slice of the full key
    set — see :meth:`shard`.

    Plans validate eagerly — unknown designs (including pre-built jobs'),
    unknown suites, bad batches and bad shards all raise at construction —
    and expand lazily (:meth:`iter_jobs`).  Fidelity is the one knob
    resolved only at execution: the backend registry is open (fidelities
    register at run time, possibly on the host that finally runs a
    shipped plan), so a name unknown *here* may be valid *there*.
    """

    designs: Tuple[str, ...] = ()
    workloads: Tuple[Tuple[str, GemmShape], ...] = ()
    suites: Tuple[SuiteLike, ...] = ()
    batches: Optional[Tuple[int, ...]] = None
    batch: Optional[int] = None
    scale: int = 1
    scale_batch: int = 1
    scale_spatial: int = 1
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)
    fidelity: str = "fast"
    jobs: Tuple[SweepJob, ...] = ()
    shard_spec: Optional[Tuple[int, int]] = None

    # -- construction-time normalization + validation ------------------------------

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        workloads = self.workloads
        if isinstance(workloads, Mapping):
            workloads = tuple(workloads.items())
        object.__setattr__(
            self, "workloads", tuple((str(n), s) for n, s in workloads)
        )
        # Registered specs normalize to their names: the two spellings
        # declare the same sweep, and names keep the plan serializable.
        object.__setattr__(
            self,
            "suites",
            tuple(
                entry.name
                if isinstance(entry, SuiteSpec)
                and SUITES.get(entry.name) is entry
                else entry
                for entry in self.suites
            ),
        )
        if self.batches is not None:
            object.__setattr__(self, "batches", _validated_batches(self.batches))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        self._validate()

    def _validate(self) -> None:
        if not (self.workloads or self.suites or self.jobs):
            raise ExperimentError(
                "plan declares no work: give it workloads, suites, or jobs"
            )
        if (self.workloads or self.suites) and not self.designs:
            raise ExperimentError(
                "a plan with workloads or suites needs at least one design key"
            )
        dup = _duplicates([key for key in self.designs])
        if dup:
            raise ExperimentError(
                f"plan designs must be unique; got duplicates: {', '.join(dup)}"
            )
        for key in self.designs:
            get_design(key)  # raises ConfigError naming the known designs
        dup = _duplicates([name for name, _ in self.workloads])
        if dup:
            raise ExperimentError(
                "plan workloads are keyed by name; got duplicates: "
                f"{', '.join(dup)}"
            )
        for name, shape in self.workloads:
            if not isinstance(shape, GemmShape):
                raise ExperimentError(
                    f"workload {name!r} must be a GemmShape, got {shape!r}"
                )
        for entry in self.suites:
            _resolve_spec(entry)  # unknown names raise here
            if isinstance(entry, WorkloadSuite) and not entry.gemms:
                # from_gemms rejects this, but decoded/hand-built suites
                # can bypass it — an empty multiset would make the plan
                # declare zero points while claiming a suite.
                raise ExperimentError(
                    f"suite {entry.name!r} has no GEMMs"
                )
        dup = _duplicates([_suite_name(entry) for entry in self.suites])
        if dup:
            raise ExperimentError(
                "plan totals are keyed by suite name; got duplicates: "
                f"{', '.join(dup)}"
            )
        if self.batch is not None and self.batches is not None:
            raise ExperimentError(
                "batch (a single override) and batches (a sweep axis) are "
                "mutually exclusive"
            )
        if self.batch is not None and (
            not isinstance(self.batch, int)
            or isinstance(self.batch, bool)
            or self.batch < 1
        ):
            raise ExperimentError(
                f"batch must be a positive integer, got {self.batch!r}"
            )
        if (self.batch is not None or self.batches is not None) and not self.suites:
            raise ExperimentError(
                "batch/batches apply to suite workloads; the plan has no suites"
            )
        if self.batches is not None or self.batch is not None:
            for entry in self.suites:
                if isinstance(entry, WorkloadSuite):
                    raise ExperimentError(
                        f"suite {entry.name!r} is an already-built multiset "
                        "and cannot be rebatched; use a registered name or a "
                        "SuiteSpec for batch sweeps"
                    )
        for knob in ("scale", "scale_batch", "scale_spatial"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ExperimentError(
                    f"{knob} must be a positive integer, got {value!r}"
                )
        if self.scale_batch != 1 or self.scale_spatial != 1:
            if not self.suites:
                raise ExperimentError(
                    "scale_batch/scale_spatial are dimension-role-aware "
                    "lowering knobs; they apply to suite workloads only"
                )
            for entry in self.suites:
                resolved = (
                    entry
                    if isinstance(entry, (SuiteSpec, WorkloadSuite))
                    else _resolve_spec(entry)
                )
                if isinstance(resolved, WorkloadSuite) or resolved.ops() is None:
                    # Probe the spec's factory eagerly: a pre-lowered
                    # (shape-mapping) factory would only fail deep inside
                    # built_suites(), breaking the eager-validation contract.
                    raise ExperimentError(
                        f"suite {_suite_name(entry)!r} is already lowered "
                        "(shapes, not ops); scale_batch/scale_spatial need a "
                        "registered name or an op-level SuiteSpec"
                    )
        if not self.fidelity or not isinstance(self.fidelity, str):
            raise ExperimentError(
                f"fidelity must be a non-empty backend name, got {self.fidelity!r}"
            )
        for job in self.jobs:
            if not isinstance(job, SweepJob):
                raise ExperimentError(f"plan jobs must be SweepJobs, got {job!r}")
            get_design(job.design_key)  # fail on the authoring host, not mid-run
        if self.shard_spec is not None:
            object.__setattr__(
                self, "shard_spec", _validated_shard(self.shard_spec)
            )

    # -- lazy expansion ------------------------------------------------------------

    def built_suites(self) -> List[Tuple[WorkloadSuite, Optional[int]]]:
        """Every (built suite, batch) point of the suite axes, in job order.

        Without a batch axis this is one entry per suite (``batch`` is the
        plan-level override or ``None``); with one, it is the suite rebuilt
        at every batch — ``len(suites) * len(batches)`` entries, suite-major
        like :meth:`iter_jobs`.  Memoized per plan instance: the executor,
        every report view, and the CLI stats all share one build.
        """
        cached = self.__dict__.get("_built_suites")
        if cached is not None:
            return cached
        lowering = self.lowering_config()
        built: List[Tuple[WorkloadSuite, Optional[int]]] = []
        for entry in self.suites:
            resolved = _resolve_spec(entry)
            if isinstance(resolved, WorkloadSuite):
                built.append((resolved.scaled(self.scale), None))
            elif self.batches is None:
                built.append((resolved.build(batch=self.batch, scale=self.scale,
                                             lowering=lowering),
                              self.batch))
            else:
                built.extend(
                    (resolved.build(batch=batch, scale=self.scale,
                                    lowering=lowering), batch)
                    for batch in self.batches
                )
        object.__setattr__(self, "_built_suites", built)
        return built

    def lowering_config(self) -> LoweringConfig:
        """The plan's role-aware lowering knobs as one config value."""
        if self.scale_batch == 1 and self.scale_spatial == 1:
            return DEFAULT_LOWERING
        return LoweringConfig(
            scale_batch=self.scale_batch, scale_spatial=self.scale_spatial
        )

    def iter_jobs(self) -> Iterator[SweepJob]:
        """Lazily expand the declaration into the flat job stream.

        Order is part of the contract (views consume results positionally):
        explicit ``jobs`` first, then the workload grid (workload-major),
        then the suite axes — suite-major, batch-major within a suite,
        design-major within a batch, distinct entries innermost.
        """
        yield from self.jobs
        for name, shape in self.workloads:
            scaled = shape.scaled(self.scale)
            for design in self.designs:
                yield SweepJob(
                    design_key=design,
                    shape=scaled,
                    workload=name,
                    core=self.core,
                    codegen=self.codegen,
                    fidelity=self.fidelity,
                )
        for suite, batch in self.built_suites():
            label = "" if batch is None else f"@b{batch}"
            entries = suite.distinct()
            for design in self.designs:
                for entry in entries:
                    yield SweepJob(
                        design_key=design,
                        shape=entry.shape,
                        workload=f"{entry.shape.name}{label}",
                        core=self.core,
                        codegen=self.codegen,
                        fidelity=self.fidelity,
                    )

    def job_count(self) -> int:
        """Total declared jobs, duplicates included (the pre-dedup count)."""
        return len(self.job_keys())

    def expanded_jobs(self) -> Tuple[SweepJob, ...]:
        """The full job stream, materialized once per plan instance.

        :meth:`iter_jobs` rebuilds every suite on each pass; the executor
        and the key memo below share this single expansion instead.
        """
        cached = self.__dict__.get("_expanded_jobs")
        if cached is None:
            cached = tuple(self.iter_jobs())
            object.__setattr__(self, "_expanded_jobs", cached)
        return cached

    def job_keys(self) -> Tuple[str, ...]:
        """Every job's cache key, aligned with :meth:`iter_jobs` order.

        Each job hashes exactly once per plan instance: the tuple is
        memoized, and the session, the shard filter and every report view
        read from it — repeated inspection (``plan show``, stats lines)
        costs no re-hashing.
        """
        cached = self.__dict__.get("_job_keys")
        if cached is None:
            cached = tuple(job.key for job in self.expanded_jobs())
            object.__setattr__(self, "_job_keys", cached)
        return cached

    def distinct_keys(self) -> Tuple[str, ...]:
        """The plan's distinct cache keys, first-occurrence order.

        This is the dedup identity — label-free, tile-padded — so it is
        also the unit of sharding and of cache accounting.  Memoized like
        :meth:`job_keys`.
        """
        cached = self.__dict__.get("_distinct_keys")
        if cached is None:
            cached = tuple(dict.fromkeys(self.job_keys()))
            object.__setattr__(self, "_distinct_keys", cached)
        return cached

    def shard_keys(self) -> Tuple[str, ...]:
        """The distinct keys this plan actually owns (all, when unsharded).

        Shard ``i`` of ``n`` owns ``sorted(distinct)[i::n]`` — a
        deterministic, disjoint, exhaustive partition that depends only on
        the key set, never on expansion order or host.
        """
        distinct = self.distinct_keys()
        if self.shard_spec is None:
            return distinct
        index, count = self.shard_spec
        owned = set(sorted(distinct)[index::count])
        return tuple(key for key in distinct if key in owned)

    def owned_jobs(self) -> Dict[str, SweepJob]:
        """The first job for each key in :meth:`shard_keys`, in that order.

        The one selection of what a run of this plan executes: every
        distinct point the plan (shard) owns, exactly once.  Memoized like
        :meth:`job_keys`; callers must not mutate the mapping.
        """
        cached = self.__dict__.get("_owned_jobs")
        if cached is None:
            first: Dict[str, SweepJob] = {}
            for key, job in zip(self.job_keys(), self.expanded_jobs()):
                first.setdefault(key, job)
            cached = {key: first[key] for key in self.shard_keys()}
            object.__setattr__(self, "_owned_jobs", cached)
        return cached

    # -- sharding ------------------------------------------------------------------

    def unsharded(self) -> "SweepPlan":
        """This plan with any shard annotation removed (the merge identity)."""
        if self.shard_spec is None:
            return self
        return dataclasses.replace(self, shard_spec=None)

    def shard(self, index: int, count: int) -> "SweepPlan":
        """Deterministic shard ``index`` of ``count`` — see :meth:`shard_keys`.

        Sharding a shard would silently re-partition an already-partial
        key set, so it is rejected; shard the unsharded plan instead.
        """
        if self.shard_spec is not None:
            raise ExperimentError(
                f"plan is already shard {self.shard_spec[0]}/"
                f"{self.shard_spec[1]}; shard the unsharded plan instead"
            )
        return dataclasses.replace(
            self, shard_spec=_validated_shard((index, count))
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys; compact when ``indent`` is None)."""
        payload = {"format": PLAN_FORMAT, "plan": _encode_plan(self)}
        return _dumps(payload, indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        """Inverse of :meth:`to_json`: ``from_json(p.to_json()) == p``."""
        return _decode_plan(_loads_payload(text, "plan"))


def _validated_shard(shard: Sequence[int]) -> Tuple[int, int]:
    shard = tuple(shard)
    if len(shard) != 2:
        raise ExperimentError(f"shard must be (index, count), got {shard!r}")
    index, count = shard
    for value in (index, count):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ExperimentError(f"shard must be two integers, got {shard!r}")
    if count < 1 or not 0 <= index < count:
        raise ExperimentError(
            f"shard index must satisfy 0 <= index < count, got {index}/{count}"
        )
    return index, count


# -- JSON codecs -------------------------------------------------------------------
#
# Hand-written, reversible encoders for the small closed set of frozen
# dataclasses a plan can contain.  Unlike the cache's canonical rendering,
# these *keep* display labels: ``from_json(to_json(p)) == p`` must hold for
# plan equality, which includes workload names.


def _dumps(payload: Any, indent: Optional[int] = None) -> str:
    if indent is None:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=indent)


def _loads_payload(text: str, section: str) -> Dict[str, Any]:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ExperimentError(f"malformed {section} JSON: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != PLAN_FORMAT:
        raise ExperimentError(
            f"not a format-{PLAN_FORMAT} {section} document"
        )
    body = raw.get(section)
    if not isinstance(body, dict):
        raise ExperimentError(f"{section} document has no {section!r} section")
    return body


def _encode_shape(shape: GemmShape) -> Dict[str, Any]:
    return {"m": shape.m, "n": shape.n, "k": shape.k, "name": shape.name}


def _decode_shape(raw: Dict[str, Any]) -> GemmShape:
    return GemmShape(m=raw["m"], n=raw["n"], k=raw["k"], name=raw.get("name", ""))


def _encode_core(core: CoreConfig) -> Dict[str, Any]:
    return dataclasses.asdict(core)


def _decode_core(raw: Dict[str, Any]) -> CoreConfig:
    return CoreConfig(**raw)


def _encode_codegen(codegen: CodegenOptions) -> Dict[str, Any]:
    return {
        "blocking": {
            "bm": codegen.blocking.bm,
            "bn": codegen.blocking.bn,
            "mm_order": codegen.blocking.mm_order.value,
        },
        "scalar_overhead_per_kstep": codegen.scalar_overhead_per_kstep,
        "scalar_overhead_per_block": codegen.scalar_overhead_per_block,
    }


def _decode_codegen(raw: Dict[str, Any]) -> CodegenOptions:
    blocking = raw["blocking"]
    return CodegenOptions(
        blocking=BlockingConfig(
            bm=blocking["bm"],
            bn=blocking["bn"],
            mm_order=MMOrder(blocking["mm_order"]),
        ),
        scalar_overhead_per_kstep=raw["scalar_overhead_per_kstep"],
        scalar_overhead_per_block=raw["scalar_overhead_per_block"],
    )


def _encode_suite_entry(entry: SuiteLike) -> Dict[str, Any]:
    if isinstance(entry, str):
        return {"name": entry}
    if isinstance(entry, SuiteSpec) and SUITES.get(entry.name) is entry:
        # A registered spec is just its name — decoding resolves it back
        # through the registry, so the round trip stays rebuildable.
        return {"name": entry.name}
    if isinstance(entry, WorkloadSuite):
        return {
            "inline": {
                "name": entry.name,
                "gemms": [
                    [label, _encode_shape(shape)] for label, shape in entry.gemms
                ],
            }
        }
    raise ExperimentError(
        f"suite {entry.name!r} is an ad-hoc SuiteSpec, whose factory cannot "
        "serialize; register it in repro.workloads.suites.SUITES or inline "
        "the built suite (spec.build(...))"
    )


def _decode_suite_entry(raw: Dict[str, Any]) -> SuiteLike:
    if "name" in raw:
        return raw["name"]
    inline = raw["inline"]
    return WorkloadSuite(
        name=inline["name"],
        gemms=tuple(
            (label, _decode_shape(shape)) for label, shape in inline["gemms"]
        ),
    )


def _encode_job(job: SweepJob) -> Dict[str, Any]:
    return {
        "design_key": job.design_key,
        "shape": _encode_shape(job.shape),
        "workload": job.workload,
        "core": _encode_core(job.core),
        "codegen": _encode_codegen(job.codegen),
        "fidelity": job.fidelity,
    }


def _decode_job(raw: Dict[str, Any]) -> SweepJob:
    return SweepJob(
        design_key=raw["design_key"],
        shape=_decode_shape(raw["shape"]),
        workload=raw.get("workload", ""),
        core=_decode_core(raw["core"]),
        codegen=_decode_codegen(raw["codegen"]),
        fidelity=raw.get("fidelity", "fast"),
    )


def _encode_plan(plan: SweepPlan) -> Dict[str, Any]:
    return {
        "designs": list(plan.designs),
        "workloads": [
            [name, _encode_shape(shape)] for name, shape in plan.workloads
        ],
        "suites": [_encode_suite_entry(entry) for entry in plan.suites],
        "batches": None if plan.batches is None else list(plan.batches),
        "batch": plan.batch,
        "scale": plan.scale,
        "scale_batch": plan.scale_batch,
        "scale_spatial": plan.scale_spatial,
        "core": _encode_core(plan.core),
        "codegen": _encode_codegen(plan.codegen),
        "fidelity": plan.fidelity,
        "jobs": [_encode_job(job) for job in plan.jobs],
        "shard": None if plan.shard_spec is None else list(plan.shard_spec),
    }


def _decode_plan(raw: Dict[str, Any]) -> SweepPlan:
    try:
        return SweepPlan(
            designs=tuple(raw["designs"]),
            workloads=tuple(
                (name, _decode_shape(shape)) for name, shape in raw["workloads"]
            ),
            suites=tuple(
                _decode_suite_entry(entry) for entry in raw["suites"]
            ),
            batches=None if raw["batches"] is None else tuple(raw["batches"]),
            batch=raw["batch"],
            scale=raw["scale"],
            # Absent in pre-IR plan documents: identity lowering.
            scale_batch=raw.get("scale_batch", 1),
            scale_spatial=raw.get("scale_spatial", 1),
            core=_decode_core(raw["core"]),
            codegen=_decode_codegen(raw["codegen"]),
            fidelity=raw["fidelity"],
            jobs=tuple(_decode_job(job) for job in raw["jobs"]),
            shard_spec=None if raw["shard"] is None else tuple(raw["shard"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed plan JSON: {exc!r}") from None


# -- reports -----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """The results of running one :class:`SweepPlan` (or one shard of it).

    ``results`` maps each owned distinct cache key to its
    :class:`SimResult`; everything else is a *view* recomputed from the
    plan, so two reports are equal — and serialize identically — whenever
    their plans and result sets are, regardless of how the work was
    scheduled, cached or sharded.  ``simulated``/``cache_hits`` are run
    diagnostics and deliberately excluded from equality and JSON.
    """

    plan: SweepPlan
    results: Dict[str, SimResult]
    simulated: int = dataclasses.field(default=0, compare=False)
    cache_hits: int = dataclasses.field(default=0, compare=False)

    # -- completeness --------------------------------------------------------------

    @property
    def is_partial(self) -> bool:
        """Whether this report covers only one shard of its plan."""
        return self.plan.shard_spec is not None

    def _require_complete(self, view: str) -> None:
        if self.is_partial:
            index, count = self.plan.shard_spec
            raise ExperimentError(
                f"report covers shard {index}/{count} only; merge all "
                f"{count} shard reports before reading {view}"
            )

    # -- positional result access --------------------------------------------------

    def job_keys(self) -> Tuple[str, ...]:
        """Cache keys aligned with :meth:`SweepPlan.iter_jobs` order.

        Delegates to the plan's memoized :meth:`SweepPlan.job_keys`, so a
        run plus any number of views never hashes a job twice.
        """
        return self.plan.job_keys()

    def _results_in_order(self) -> Iterator[SimResult]:
        for key in self.job_keys():
            yield self.results[key]

    # -- typed views ---------------------------------------------------------------

    def flat(self) -> List[SimResult]:
        """Every job's result, in :meth:`SweepPlan.iter_jobs` order."""
        self._require_complete("flat()")
        return list(self._results_in_order())

    def grid(self) -> Dict[str, Dict[str, SimResult]]:
        """``grid[workload_name][design_key]`` over the plan's workloads."""
        self._require_complete("grid()")
        stream = self._results_in_order()
        for _ in self.plan.jobs:
            next(stream)
        table: Dict[str, Dict[str, SimResult]] = {}
        for name, _ in self.plan.workloads:
            table[name] = {design: next(stream) for design in self.plan.designs}
        return table

    def _suite_stream(self) -> Iterator[SimResult]:
        stream = self._results_in_order()
        for _ in range(len(self.plan.jobs)
                       + len(self.plan.workloads) * len(self.plan.designs)):
            next(stream)
        return stream

    def suite_totals(self) -> Dict[str, Dict[str, SuiteTotals]]:
        """``totals[suite_name][design_key]`` — occurrence-weighted totals.

        Only for plans without a batch axis; batch sweeps read
        :meth:`batch_curves` instead.
        """
        self._require_complete("suite_totals()")
        if self.plan.batches is not None:
            raise ExperimentError(
                "this plan sweeps a batch axis; read batch_curves() instead "
                "of suite_totals()"
            )
        stream = self._suite_stream()
        totals: Dict[str, Dict[str, SuiteTotals]] = {}
        for suite, _ in self.plan.built_suites():
            entries = suite.distinct()
            totals[suite.name] = {
                design: _expand_totals(suite, design, entries, stream)
                for design in self.plan.designs
            }
        return totals

    def suite_layer_cycles(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """``cycles[suite][design][label]`` — per-layer-label cycle totals.

        Labels that occur multiple times in the multiset (e.g. the 24
        per-head copies of one attention matmul) aggregate
        occurrence-weighted, so summing a suite's labels reproduces its
        :class:`SuiteTotals` cycles exactly.  Like :meth:`suite_totals`,
        this view is for plans without a batch axis; the experiments use
        it to split training suites into fwd/dgrad/wgrad shares.
        """
        self._require_complete("suite_layer_cycles()")
        if self.plan.batches is not None:
            raise ExperimentError(
                "this plan sweeps a batch axis; suite_layer_cycles() reads "
                "single-batch suite plans only"
            )
        stream = self._suite_stream()
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for suite, _ in self.plan.built_suites():
            entries = suite.distinct()
            per_design: Dict[str, Dict[str, int]] = {}
            for design in self.plan.designs:
                cycles: Dict[str, int] = {}
                for entry in entries:
                    result = next(stream)
                    for label in entry.layers:
                        cycles[label] = cycles.get(label, 0) + result.cycles
                per_design[design] = cycles
            table[suite.name] = per_design
        return table

    def batch_curves(self) -> Dict[str, Dict[str, SuiteBatchCurve]]:
        """``curves[suite_name][design_key]`` along the plan's batch axis."""
        self._require_complete("batch_curves()")
        if self.plan.batches is None:
            raise ExperimentError(
                "this plan has no batch axis; read suite_totals() instead "
                "of batch_curves()"
            )
        stream = self._suite_stream()
        per_point: Dict[Tuple[str, int, str], SuiteTotals] = {}
        names: List[str] = []
        for suite, batch in self.plan.built_suites():
            if suite.name not in names:
                names.append(suite.name)
            entries = suite.distinct()
            for design in self.plan.designs:
                per_point[(suite.name, batch, design)] = _expand_totals(
                    suite, design, entries, stream
                )
        return {
            name: {
                design: SuiteBatchCurve(
                    suite=name,
                    design_key=design,
                    batches=self.plan.batches,
                    totals=tuple(
                        per_point[(name, batch, design)]
                        for batch in self.plan.batches
                    ),
                )
                for design in self.plan.designs
            }
            for name in names
        }

    def point(
        self,
        design_key: str,
        shape: GemmShape,
        fidelity: Optional[str] = None,
    ) -> SimResult:
        """One (design, shape) result under the plan's shared settings.

        ``shape`` is the shape *as declared* — plans store unscaled
        declarations, so the plan's ``scale`` is applied here exactly as
        expansion applies it to workload shapes.
        """
        key = cache_key(
            design_key,
            shape.scaled(self.plan.scale),
            self.plan.core,
            self.plan.codegen,
            fidelity if fidelity is not None else self.plan.fidelity,
        )
        try:
            return self.results[key]
        except KeyError:
            raise ExperimentError(
                f"no result for design {design_key!r} x {shape} in this "
                "report (not part of the plan, or owned by another shard)"
            ) from None

    # -- stats ---------------------------------------------------------------------

    @property
    def job_count(self) -> int:
        """Expanded jobs this report's shard covers (pre-dedup)."""
        if not self.is_partial:
            return len(self.job_keys())
        owned = set(self.plan.shard_keys())
        return sum(1 for key in self.job_keys() if key in owned)

    @property
    def distinct_points(self) -> int:
        """Distinct simulation points this report's shard owns."""
        return len(self.results)

    @property
    def dedup_factor(self) -> float:
        """Expanded jobs per distinct point, within this report's shard."""
        return self.job_count / self.distinct_points if self.results else 0.0

    # -- merging -------------------------------------------------------------------

    def merge(self, *others: "SweepReport") -> "SweepReport":
        """Reassemble shard reports into the full report, bit-identically.

        All reports must stem from the same unsharded plan; the union of
        their result sets must cover every distinct key (no missing
        shard).  Overlap is fine when the overlapping results agree —
        simulations are deterministic, so disagreement means the reports
        came from different code versions and is an error.
        """
        base = self.plan.unsharded()
        merged: Dict[str, SimResult] = dict(self.results)
        simulated = self.simulated
        cache_hits = self.cache_hits
        for other in others:
            if other.plan.unsharded() != base:
                raise ExperimentError(
                    "cannot merge reports from different plans; shards must "
                    "share one unsharded SweepPlan"
                )
            for key, result in other.results.items():
                if key in merged and merged[key] != result:
                    raise ExperimentError(
                        "shard reports disagree on a result (key "
                        f"{key[:12]}…); were they produced by different "
                        "code versions?"
                    )
                merged[key] = result
            simulated += other.simulated
            cache_hits += other.cache_hits
        missing = [k for k in base.distinct_keys() if k not in merged]
        if missing:
            raise ExperimentError(
                f"merged shards cover {len(merged)} of "
                f"{len(merged) + len(missing)} distinct points; "
                f"{len(missing)} missing — run and merge every shard"
            )
        return SweepReport(
            plan=base,
            results=merged,
            simulated=simulated,
            cache_hits=cache_hits,
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of (plan, results) — diagnostics excluded.

        Two complete reports over equal plans and results render the very
        same string, which is what makes the sharded CI smoke's
        ``merged == single-shot`` comparison a plain file diff.
        """
        payload = {
            "format": PLAN_FORMAT,
            "report": {
                "plan": _encode_plan(self.plan),
                "results": {
                    key: dataclasses.asdict(result)
                    for key, result in self.results.items()
                },
            },
        }
        return _dumps(payload, indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Inverse of :meth:`to_json` (diagnostic counters reset to zero)."""
        body = _loads_payload(text, "report")
        try:
            plan = _decode_plan(body["plan"])
            results = {
                key: SimResult(**entry)
                for key, entry in body["results"].items()
            }
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed report JSON: {exc!r}") from None
        return cls(plan=plan, results=results)
