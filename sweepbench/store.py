"""Seeded background result store.

The suites workloads run into a store that already holds many results of
other sweeps, as a user's long-lived store does.  :func:`write_background`
fills a store with ``entries`` such results, made from ``seed`` alone, and
writes them only through ``ResultCache.put`` and ``ResultCache.flush``, so it
keeps working whatever file format the cache uses.  Keys are SHA-256 digests
of a seeded label, so none of them is a key any plan can produce.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

BACKGROUND_ENTRIES = 50_000


def _result(result_type, rng: random.Random, index: int):
    """One result: each text field a label, each number drawn from ``rng``."""
    values = {}
    for field in dataclasses.fields(result_type):
        if field.type in ("str", str):
            values[field.name] = f"background-{index}"
        else:
            values[field.name] = rng.randrange(1, 10_000_000)
    return result_type(**values)


def write_background(directory: Path, seed: int, entries: int = BACKGROUND_ENTRIES) -> None:
    """Fill the store in ``directory`` with ``entries`` seeded results."""
    from repro.cpu.result import SimResult
    from repro.runtime.cache import ResultCache

    rng = random.Random(seed)
    cache = ResultCache(directory)
    for index in range(entries):
        key = hashlib.sha256(f"sweepbench-background:{seed}:{index}".encode()).hexdigest()
        cache.put(key, _result(SimResult, rng, index))
    cache.flush()
