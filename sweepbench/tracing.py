"""Span recorder for the traced sweep run.

:func:`install` wraps the public entry points of each layer of the sweep
path (plan expansion and hashing, the result cache, codegen, decode, the
``fast`` and ``analytic`` kernels and ``Session.run``) so that every call
records a span: name, start, end, its own id, the id of the span that was
open when it started, the process id, and a few counts taken from the
call's arguments or result.

Pool workers fork from the sweep process after the wrappers are in place,
so their calls record spans too.  The sweep process keeps its spans in
memory and writes them in :meth:`Recorder.finish`.  A worker ends when the
pool terminates it, with no chance to write at exit, so a worker writes its
spans each time its outermost span closes.

Every process writes ``spans-<pid>.jsonl`` in the trace directory, one JSON
object per line.  All times are ``CLOCK_MONOTONIC`` seconds, which every
process on the host shares, so spans from different processes line up.
An entry point that a later version of the program no longer has is
skipped and listed in ``missing-<pid>.json``; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _memo_misses(fn: Callable[..., Any]) -> Optional[int]:
    info = getattr(fn, "cache_info", None)
    return info().misses if info is not None else None


class Recorder:
    """Collects spans in one process tree; see the module docstring."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.main_pid = os.getpid()
        self.missing: List[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[str] = []
        self.ids = itertools.count()
        self._fd: Optional[int] = None

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        note: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
        memo: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``note(args, result)`` adds counts to the span.  With ``memo`` the
        span records whether the call missed ``fn``'s ``lru_cache``.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = f"{self.pid}.{next(self.ids)}"
            parent = self.stack[-1] if self.stack else None
            misses = _memo_misses(fn) if memo else None
            self.stack.append(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self.stack.pop()
            span = {"name": name, "start": start, "end": end, "id": span_id,
                    "parent": parent, "pid": self.pid}
            if note is not None:
                span.update(note(args, result))
            if memo:
                span["miss"] = misses is None or _memo_misses(fn) > misses
            self._add(span)
            return result

        return traced

    def _add(self, span: Dict[str, Any]) -> None:
        self.spans.append(span)
        if self.pid != self.main_pid and not self.stack:
            self._write()

    def _write(self) -> None:
        if not self.spans:
            return
        if self._fd is None:
            path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        os.write(self._fd, "".join(json.dumps(s) + "\n" for s in self.spans).encode())
        self.spans = []

    def finish(self) -> None:
        """Write the sweep process's spans and the list of skipped targets."""
        self._write()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.missing:
            path = os.path.join(self.directory, f"missing-{self.pid}.json")
            with open(path, "w") as handle:
                json.dump(self.missing, handle)


#: (module, attribute path, span name, note, memo) of each wrapped entry point.
TARGETS = (
    ("repro.runtime.plan", "SweepPlan.expanded_jobs", "plan.expand",
     lambda a, r: {"jobs": len(r)}, False),
    ("repro.runtime.plan", "SweepPlan.job_keys", "plan.hash",
     lambda a, r: {"distinct": len(set(r))}, False),
    ("repro.runtime.cache", "ResultCache.__init__", "cache.open",
     lambda a, r: {"entries": len(a[0])}, False),
    ("repro.runtime.cache", "ResultCache.get", "cache.get",
     lambda a, r: {"hit": r is not None}, False),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", None, False),
    ("repro.runtime.cache", "ResultCache.flush", "cache.flush",
     lambda a, r: {"entries": len(a[0])}, False),
    ("repro.runtime.session", "cached_program", "codegen", None, False),
    # The function the program memo calls on a miss: one call, one lowering.
    ("repro.runtime.session", "generate_gemm_program", "codegen.lower",
     lambda a, r: {"instrs": len(r), "program": repr(a)}, False),
    ("repro.cpu.fastvec", "decode_program", "decode", None, True),
    ("repro.cpu.fastvec", "FastVecCoreModel.run", "fastvec",
     lambda a, r: {"instrs": r.instructions}, False),
    ("repro.cpu.analytic", "AnalyticCoreModel.run_shape", "analytic", None, False),
    ("repro.runtime.session", "Session.run", "session.run", None, False),
)


def install(directory: str) -> Recorder:
    """Wrap every entry point that exists; return the recorder to finish."""
    recorder = Recorder(directory)
    for module_name, path, name, note, memo in TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, recorder.wrap(name, fn, note, memo))
    return recorder
