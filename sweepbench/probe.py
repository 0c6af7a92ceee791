"""Run one ``repro`` CLI invocation and record when its phases happen.

Usage::

    python sweepbench/probe.py MARKS.json TRACE_DIR|- -- <repro CLI args>

This stands in for ``python -m repro <args>``: it imports ``repro.cli`` and
calls ``main(argv)``.  It writes ``MARKS.json`` with ``CLOCK_MONOTONIC``
times of five moments, which the benchmark sets against the moment it
started the process and the moment the process ended:

- ``start``: the probe's first line ran (interpreter start-up is over);
- ``imported``: ``import repro.cli`` returned;
- ``expand``: the plan first started to expand (the first call of
  ``SweepPlan.iter_jobs``, ``expanded_jobs`` or ``job_keys``);
- ``run_end``: the last ``Session.run`` call returned;
- ``main_return``: ``main()`` returned; what follows is interpreter teardown.

With a trace directory instead of ``-`` it also installs the span recorder
of ``tracing.py`` before ``main()`` runs.  Without one, the wrappers that
set ``expand`` and ``run_end`` are the only instrumentation, a dictionary
lookup per call of four methods.
"""

import time

_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _mark_calls(owner, attr: str, marks: dict, key: str, at_return: bool) -> None:
    """Set ``marks[key]`` at the first call of ``owner.attr``, or at its
    every return when ``at_return``."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        if not at_return and key not in marks:
            marks[key] = _now()
        result = fn(*args, **kwargs)
        if at_return:
            marks[key] = _now()
        return result

    setattr(owner, attr, marked)


def main() -> None:
    marks_path, trace_dir, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: probe.py MARKS.json TRACE_DIR|- -- <repro CLI args>")
    marks = {"start": _START}
    import repro.cli

    marks["imported"] = _now()
    from repro.runtime.plan import SweepPlan
    from repro.runtime.session import Session

    recorder = None
    if trace_dir != "-":
        import tracing  # beside this file, which is sys.path[0]

        recorder = tracing.install(trace_dir)
    for attr in ("iter_jobs", "expanded_jobs", "job_keys"):
        _mark_calls(SweepPlan, attr, marks, "expand", at_return=False)
    _mark_calls(Session, "run", marks, "run_end", at_return=True)
    code = 1
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        marks["main_return"] = _now()
        marks["code"] = code
        with open(marks_path, "w") as handle:
            json.dump(marks, handle)
        if recorder is not None:
            recorder.finish()
    sys.exit(code)


if __name__ == "__main__":
    main()
