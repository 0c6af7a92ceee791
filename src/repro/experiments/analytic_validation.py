"""Validation harness bounding the analytic tier's cycle error vs ``fast``.

The analytic fidelity (:mod:`repro.cpu.analytic`) promises two things:

- **exact counts** — ``mm_count``, ``weight_loads``, ``bypass_count`` and
  ``instructions`` match the fast model bit-for-bit (they are closed forms
  over the same blocking the code generator uses);
- **bounded cycle error** — relative cycle disagreement with the fast
  model stays within :data:`repro.cpu.analytic.ANALYTIC_CYCLE_ERROR_BOUND`
  on every validated point (empirically the model is exact on every point
  we have ever sampled; the bound is the conservative contract).

:func:`validate_analytic` samples (suite x design x distinct shape) points,
runs both fidelities through :func:`repro.experiments.runner.run_design`,
and returns a structured report.  The test suite asserts ``report.ok``;
``python -c "from repro.experiments.analytic_validation import main; main()"``
prints the table and exits 1 on failure (``python -m`` also works but warns,
since :mod:`repro.experiments` imports this module eagerly).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.analytic import ANALYTIC_CYCLE_ERROR_BOUND
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.runner import DEFAULT_SETTINGS, ExperimentSettings, run_design
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite

#: Suites the default validation pass samples: the paper's Table I layers
#: plus the two structurally richest full-model suites (head-batched
#: attention shapes and transposed-filter training lowerings).
DEFAULT_VALIDATION_SUITES: Tuple[str, ...] = ("table1", "bert-full", "resnet50-train")

#: SimResult count fields the analytic tier must reproduce exactly.
EXACT_FIELDS: Tuple[str, ...] = (
    "instructions",
    "mm_count",
    "weight_loads",
    "bypass_count",
)


@dataclasses.dataclass(frozen=True)
class ValidationPoint:
    """One (suite, design, shape) comparison between the two fidelities."""

    suite: str
    design_key: str
    shape: GemmShape
    fast: SimResult
    analytic: SimResult

    @property
    def cycle_error(self) -> float:
        """Relative cycle disagreement, ``|analytic - fast| / fast``."""
        if self.fast.cycles == 0:
            return 0.0 if self.analytic.cycles == 0 else float("inf")
        return abs(self.analytic.cycles - self.fast.cycles) / self.fast.cycles

    @property
    def count_mismatches(self) -> Tuple[str, ...]:
        """Names of :data:`EXACT_FIELDS` where the models disagree."""
        return tuple(
            field
            for field in EXACT_FIELDS
            if getattr(self.analytic, field) != getattr(self.fast, field)
        )

    @property
    def counts_exact(self) -> bool:
        return not self.count_mismatches


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Every sampled point plus the pass/fail verdict against ``bound``."""

    points: Tuple[ValidationPoint, ...]
    bound: float

    @property
    def max_cycle_error(self) -> float:
        return max((p.cycle_error for p in self.points), default=0.0)

    @property
    def worst(self) -> Optional[ValidationPoint]:
        if not self.points:
            return None
        return max(self.points, key=lambda p: p.cycle_error)

    @property
    def count_violations(self) -> Tuple[ValidationPoint, ...]:
        return tuple(p for p in self.points if not p.counts_exact)

    @property
    def ok(self) -> bool:
        """All counts exact and every cycle error within the bound."""
        return not self.count_violations and self.max_cycle_error <= self.bound

    def render(self) -> str:
        """Per-suite summary table plus the worst point, as text."""
        per_suite: Dict[str, List[ValidationPoint]] = {}
        for p in self.points:
            per_suite.setdefault(p.suite, []).append(p)
        lines = [
            "Analytic-vs-fast validation "
            f"({len(self.points)} points, bound {self.bound:.1%})",
            f"{'suite':<16} {'points':>7} {'max cycle err':>14} {'counts':>8}",
        ]
        for suite, pts in per_suite.items():
            worst = max((p.cycle_error for p in pts), default=0.0)
            exact = all(p.counts_exact for p in pts)
            lines.append(
                f"{suite:<16} {len(pts):>7} {worst:>13.4%} "
                f"{'exact' if exact else 'MISMATCH':>8}"
            )
        worst_point = self.worst
        if worst_point is not None:
            lines.append(
                f"worst: {worst_point.suite} / {worst_point.design_key} / "
                f"{worst_point.shape.dims} -> {worst_point.cycle_error:.4%} "
                f"(fast {worst_point.fast.cycles}, "
                f"analytic {worst_point.analytic.cycles})"
            )
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def validate_analytic(
    suites: Sequence[str] = DEFAULT_VALIDATION_SUITES,
    designs: Optional[Sequence[str]] = None,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    bound: float = ANALYTIC_CYCLE_ERROR_BOUND,
) -> ValidationReport:
    """Compare analytic vs fast on every (suite, design, distinct shape).

    ``designs=None`` samples all eight catalog designs; suites are built at
    ``settings.scale`` and collapsed to their distinct shapes (the same
    dedup every sweep runs on).  Raises :class:`ExperimentError` when the
    sample set is empty — an empty validation pass proves nothing.
    """
    design_keys = tuple(designs) if designs is not None else tuple(DESIGNS)
    points: List[ValidationPoint] = []
    for suite_name in suites:
        suite = get_suite(suite_name, scale=settings.scale)
        for entry in suite.distinct():
            for design_key in design_keys:
                fast = run_design(design_key, entry.shape, settings, fidelity="fast")
                analytic = run_design(
                    design_key, entry.shape, settings, fidelity="analytic"
                )
                points.append(
                    ValidationPoint(
                        suite=suite_name,
                        design_key=design_key,
                        shape=entry.shape,
                        fast=fast,
                        analytic=analytic,
                    )
                )
    if not points:
        raise ExperimentError(
            "validate_analytic sampled zero points; pass at least one suite "
            "and one design"
        )
    return ValidationReport(points=tuple(points), bound=bound)


def main() -> None:
    report = validate_analytic()
    print(report.render())
    if not report.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
