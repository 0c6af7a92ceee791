"""Sessions: the one execution facade behind every sweep.

A :class:`Session` owns the three resources a sweep needs — the persistent
:class:`repro.runtime.cache.ResultCache`, backend resolution through the
fidelity registry, and the ``multiprocessing`` worker pool — and exposes a
single entry point: :meth:`Session.run` takes a declarative
:class:`repro.runtime.plan.SweepPlan` and returns a
:class:`repro.runtime.plan.SweepReport`.

Execution layers three accelerations on top of the backend registry:

1. **memoization** — each distinct point's cache key is looked up in the
   result cache first; only misses simulate, and every fresh result is
   written back;
2. **deduplication** — points are identified by their cache key, which is
   *label-independent* and keyed on tile-*padded* dims (see
   :mod:`repro.runtime.cache`): within one run, every distinct
   (design, padded dims, core, codegen, fidelity) point simulates
   **exactly once**, no matter how many plan jobs map onto it.  Full-model
   suites lean on this hard — BERT-base's 72 per-layer GEMMs are 3
   distinct points — and batch axes lean on the padding: batches 1..16 of
   an FC layer are one point;
3. **parallelism** — misses fan out over a ``multiprocessing`` pool
   (``fork`` start method where available, so workers inherit the warm
   per-process program cache).  The pool is created lazily and *persists
   across* ``run()`` calls — multi-plan sessions pay the fork cost once —
   and tasks submit in computed chunks rather than one IPC round trip per
   job.  ``workers=1`` — or a single-CPU host — degrades to plain serial
   execution in-process, with bit-identical results: jobs are independent
   deterministic simulations.

Write-back is **crash-safe**: results stream back from the pool
*unordered*, each is written to the cache the moment it completes, and
the cache flushes in a ``finally`` block — a job that raises loses only
the genuinely unfinished work, never a point that already completed,
regardless of submission order.  (A worker *process* that dies outright —
OOM kill, segfault — is a ``multiprocessing.Pool`` limitation: that one
task's result never arrives, so the run eventually blocks until
interrupted; every completed point still flushes on that interrupt via
the same ``finally``.)

What a run executes is one selection,
:meth:`repro.runtime.plan.SweepPlan.owned_jobs`: the first job for each
distinct key the plan owns — all of them unsharded, the shard's slice of
a sharded plan (:meth:`repro.runtime.plan.SweepPlan.shard`).  Both
:meth:`Session.run` and :meth:`Session.bounds` consume it, and the
partial reports merge bit-identically into the unsharded result
(:meth:`repro.runtime.plan.SweepReport.merge`), which is what lets one
plan fan out across hosts.  Every simulation goes through
:func:`execute_job`, the one place a job is dispatched to its backend.

Program generation is itself memoized per process keyed on the *unlabeled*
``(shape, codegen)`` (bounded by :data:`PROGRAM_CACHE_SIZE`): the usual
grid runs every design on the same programs, so each worker lowers each
distinct GEMM only once.  The lowering is array-native
(:mod:`repro.workloads.codegen`): it emits the structure-of-arrays decode
the ``fast`` backend reads (:class:`repro.cpu.decode.DecodedProgram`)
directly, and the program builds its ``Instruction`` objects only when a
consumer iterates or indexes it — the ``fast-ref``/``ooo``/``engine``
backends, the verifier, bounds and asm.  A ``fast`` sweep never builds
them at all.  The ``analytic`` fidelity lowers nothing; its counterpart is
the per-process scheduler-probe memo of :mod:`repro.cpu.analytic`
(bounded by :data:`repro.cpu.analytic.PROBE_CACHE_SIZE`), keyed on the
full probe inputs, so each distinct (design, block geometry, blocking)
probe runs once per process — forked workers inherit the warm memo like
the program cache — rather than once per point.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.pool
import os
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.bounds import BoundsReport, BoundsSweep

from repro.cpu.result import SimResult
from repro.errors import ExperimentError, VerificationError
from repro.isa.program import Program
from repro.runtime.cache import ResultCache
from repro.runtime.plan import SweepJob, SweepPlan, SweepReport
from repro.runtime.registry import resolve_backend
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape

#: Bound of the per-process program memo.  32 thrashed on full-model suites
#: (ResNet-50 alone lowers 53 shapes); 256 holds every catalog in the
#: repository simultaneously with room for ad-hoc shapes.
PROGRAM_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _unlabeled_program(shape: GemmShape, codegen: CodegenOptions) -> Program:
    return generate_gemm_program(shape, codegen)


def cached_program(shape: GemmShape, codegen: CodegenOptions) -> Program:
    """Per-process program cache: every design reuses one lowered stream.

    Memoized on the *unlabeled* shape — a GEMM's display name never changes
    the generated stream, so BERT's 48 identically-shaped projections share
    one lowering.  Introspect/reset via ``cached_program.cache_info()`` /
    ``cached_program.cache_clear()``.
    """
    return _unlabeled_program(shape.unlabeled(), codegen)


cached_program.cache_info = _unlabeled_program.cache_info
cached_program.cache_clear = _unlabeled_program.cache_clear


def execute_job(job: SweepJob) -> SimResult:
    """Simulate one job (top-level so worker processes can unpickle it).

    The one backend dispatch: sweeps and
    :func:`repro.experiments.runner.run_design` (``repro simulate``) all
    land here.  Shape-level backends (``run_shape``, e.g. the analytic
    fidelity) skip program generation entirely — no lowering, no
    instruction walk; the program-based fidelities go through the
    per-process program memo.
    """
    backend = resolve_backend(job.design_key, fidelity=job.fidelity, core=job.core)
    run_shape = getattr(backend, "run_shape", None)
    if run_shape is not None:
        return run_shape(job.shape, job.codegen)
    program = cached_program(job.shape, job.codegen)
    return backend.prepare(program).run()


def _execute_indexed(item: "tuple[int, SweepJob]") -> "tuple[int, SimResult]":
    """Pool task keeping the submission index with its result.

    Results stream back *unordered* (see :meth:`Session._simulate`) so a
    slow or dying job cannot withhold completed later results from the
    cache; the index maps each arrival back to its key.
    """
    index, job = item
    return index, execute_job(job)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits warm caches); fall back otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _env_workers() -> Optional[int]:
    """Parse ``REPRO_SWEEP_WORKERS`` (``None`` when unset)."""
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if not env:
        return None
    try:
        workers = int(env)
    except ValueError:
        raise ExperimentError(
            f"REPRO_SWEEP_WORKERS must be an integer worker count, got {env!r}"
        ) from None
    if workers < 1:
        raise ExperimentError(
            "REPRO_SWEEP_WORKERS must be a positive worker count, got "
            f"{env!r}; use 1 for serial execution or unset it for the "
            "CPU-count default"
        )
    return workers


class Session:
    """Run :class:`SweepPlan`\\ s: cache, backend registry, worker pool.

    Args:
        cache: a :class:`ResultCache` for persistent memoization, or
            ``None`` to always simulate.
        workers: worker process count for cache misses; defaults to the
            CPU count.  ``1`` forces serial in-process execution; zero or
            negative counts are rejected with :class:`ExperimentError`
            rather than silently degrading to serial.
        verify: statically lint each distinct program through
            :func:`repro.analysis.verifier.lint_shape` before anything
            simulates, raising :class:`repro.errors.VerificationError` on
            any diagnostic.  Each program identity (tile-padded unlabeled
            shape + codegen options — at most one lint per cache key) is
            verified once per session, so repeated ``run()`` calls and
            multi-design grids pay the pass once per distinct stream.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        verify: bool = False,
    ) -> None:
        self.cache = cache
        if workers is None:
            workers = os.cpu_count() or 1
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ExperimentError(
                f"workers must be a positive integer, got {workers!r}; "
                "use workers=1 for serial execution"
            )
        self.workers = workers
        self.verify = verify
        # Lazily created, persists across run() calls.
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._verified: "set[tuple[GemmShape, CodegenOptions]]" = set()
        self._bounds_memo: "Dict[Tuple[object, ...], BoundsReport]" = {}

    @classmethod
    def from_env(
        cls,
        workers: Optional[int] = None,
        cache_dir: Optional[Path] = None,
        use_cache: bool = True,
        verify: bool = False,
    ) -> "Session":
        """The session the experiment drivers and the CLI share.

        Environment knobs:

        - ``REPRO_SWEEP_WORKERS`` — worker count (default: CPU count);
        - ``REPRO_NO_CACHE``      — any non-empty value disables the cache;
        - ``REPRO_CACHE_DIR``     — cache location (default ``~/.cache/repro``).
        """
        if use_cache and not os.environ.get("REPRO_NO_CACHE"):
            cache: Optional[ResultCache] = ResultCache(cache_dir)
        else:
            cache = None
        if workers is None:
            workers = _env_workers()
        return cls(cache=cache, workers=workers, verify=verify)

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        plan: SweepPlan,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> SweepReport:
        """Execute a plan (or the shard of it the plan owns).

        Each job's key (a canonical-JSON SHA-256) is computed exactly once
        per run; the owned-point selection
        (:meth:`~repro.runtime.plan.SweepPlan.owned_jobs`), the cache
        lookup, the miss write-back and the report's positional views all
        reuse the precomputed keys.  Results completed before a mid-run
        crash are already in the cache — write-back streams per result and
        flushes in a ``finally``.

        Args:
            plan: the declarative sweep description.
            progress: optional ``(completed, total)`` callback over the
                run's *distinct* points — called once after the cache scan
                and once per simulated result, from this thread.  The
                service worker forwards it into heartbeat payloads so a
                nearly-done shard is visible before a reaper requeue.
        """
        owned = plan.owned_jobs()
        if self.verify:
            self._verify_jobs(owned.values())
        results: Dict[str, SimResult] = {}
        misses: Dict[str, SweepJob] = {}
        for key, job in owned.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
            else:
                misses[key] = job
        miss_keys = list(misses)
        total = len(owned)
        completed = len(results)
        if progress is not None:
            progress(completed, total)
        try:
            for index, result in self._simulate(list(misses.values())):
                results[miss_keys[index]] = result
                if self.cache is not None:
                    self.cache.put(miss_keys[index], result)
                completed += 1
                if progress is not None:
                    progress(completed, total)
        finally:
            if self.cache is not None:
                self.cache.flush()
        return SweepReport(
            plan=plan,
            results=results,
            simulated=len(misses),
            cache_hits=len(owned) - len(misses),
        )

    def bounds(self, plan: SweepPlan) -> "BoundsSweep":
        """Static cycle bounds for every distinct point the plan (shard) owns.

        Returns a :class:`repro.analysis.bounds.BoundsSweep` mapping each
        owned distinct cache key to its
        :class:`~repro.analysis.bounds.BoundsReport` — no simulation, no
        cache: the bounds are pure functions of (program, design, core).
        The points are :meth:`~repro.runtime.plan.SweepPlan.owned_jobs`,
        the same selection :meth:`run` executes, so shard sweeps
        :meth:`~repro.analysis.bounds.BoundsSweep.merge` bit-identically
        into the unsharded result.  Reports memoize per session on the
        point's bound identity (design, tile-padded unlabeled shape,
        codegen, core), mirroring the verify memo.
        """
        from repro.analysis import bounds as bounds_analysis  # deferred, like verify

        reports: "Dict[str, BoundsReport]" = {}
        for key, job in plan.owned_jobs().items():
            identity = (
                job.design_key,
                job.shape.tile_padded().unlabeled(),
                job.codegen,
                job.core,
            )
            if identity not in self._bounds_memo:
                program = cached_program(job.shape, job.codegen)
                self._bounds_memo[identity] = bounds_analysis.bound_program(
                    program, job.design_key, core=job.core
                )
            reports[key] = self._bounds_memo[identity]
        return bounds_analysis.BoundsSweep(reports=reports)

    def _verify_jobs(self, jobs: Iterable[SweepJob]) -> None:
        """Lint every distinct program before simulation (``verify=True``).

        Diagnostics are design-independent — the stream is a function of
        (shape, codegen) only — so the lint memoizes on the tile-padded
        unlabeled program identity: a grid of 8 designs over one GEMM
        verifies once, and sessions running many plans never re-lint a
        stream they already proved clean.  Shape-level (analytic) jobs are
        linted too: the whole point is checking the program the closed
        forms claim to summarize.
        """
        from repro.analysis import verifier  # deferred: pulls in codegen + engine

        for job in jobs:
            identity = (job.shape.tile_padded(), job.codegen)
            if identity in self._verified:
                continue
            report = verifier.lint_shape(job.shape, job.codegen)
            if report.diagnostics:
                shown = "; ".join(str(d) for d in report.diagnostics[:3])
                more = len(report.diagnostics) - 3
                raise VerificationError(
                    f"program for {job.shape} failed static verification "
                    f"with {len(report.diagnostics)} diagnostic(s): {shown}"
                    + (f"; +{more} more" if more > 0 else "")
                )
            self._verified.add(identity)

    def _simulate(
        self, jobs: Sequence[SweepJob]
    ) -> Iterator["tuple[int, SimResult]"]:
        """Yield ``(submission index, result)`` pairs as jobs complete.

        Parallel runs stream **unordered** (``imap_unordered``, one task
        per job): every finished result reaches the caller — and the
        cache — immediately, so a slow, failed, or killed job never
        withholds the points that already completed.
        """
        if not jobs:
            return
        if self.workers <= 1 or len(jobs) == 1:
            for index, job in enumerate(jobs):
                yield index, execute_job(job)
            return
        # Batch IPC: one task per job was one pickled round trip per point,
        # which dominated wall time once the analytic tier made the points
        # themselves cheap.  Chunks of jobs/(workers*4) keep every worker
        # busy (4 chunks each smooths uneven chunk durations) while cutting
        # round trips by the chunk size.
        chunksize = max(1, len(jobs) // (self.workers * 4))
        yield from self._get_pool().imap_unordered(
            _execute_indexed, enumerate(jobs), chunksize=chunksize
        )

    # -- worker-pool lifecycle -------------------------------------------------------

    def _get_pool(self) -> multiprocessing.pool.Pool:
        """The persistent worker pool, created on first parallel fan-out.

        Spawning a ``multiprocessing.Pool`` costs tens of milliseconds plus
        a fork per worker; sessions that run many plans (sweep suites, the
        benchmark harness, notebook loops) previously paid it per ``run()``
        call.  The pool now lives until :meth:`close`.  Workers inherit the
        process state (fidelity registry, program memo) from pool-creation
        time — register custom fidelities before the first parallel run.
        """
        if self._pool is None:
            self._pool = _pool_context().Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the pool respawns on use)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown; the pool's own finalizer handles it
