"""Deterministic seeding and order-preserving worker pools.

Every random draw in the pipeline comes from a generator seeded through
`stable_seed`, so results never depend on process scheduling, dict order,
or platform hash randomization.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np


def stable_seed(*parts: Any) -> int:
    """Derive a 64-bit seed from a tuple of labels, numbers, ids.

    SHA-256 based, so unrelated part tuples give independent streams and
    the mapping is stable across runs and platforms.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_from(*parts: Any) -> np.random.Generator:
    """Generator for the stream identified by `parts`."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


def default_jobs() -> int:
    return os.cpu_count() or 1


def mem_available() -> int | None:
    """Bytes the kernel reports as available for new allocations
    (`MemAvailable` in /proc/meminfo), or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


# The function a pool worker maps over its items.  Set once in each worker
# by the pool initializer; the parent process never writes it.
_worker_fn: Callable[[Any], Any] | None = None


def _install(fn: Callable[[Any], Any]) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(item: Any) -> Any:
    return _worker_fn(item)


def run_parallel(fn: Callable[[Any], Any], items: Sequence[Any],
                 jobs: int) -> list[Any]:
    """Map `fn` over `items`, returning results in item order.

    `fn` may be any callable, closures included: workers are forked and
    inherit it (and whatever it closes over) instead of unpickling it, so
    large arrays are never copied.  Items and results are pickled, so
    keep items small (indices rather than frames).  The result is
    independent of `jobs` whenever `fn`'s output depends only on its item.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                             initializer=_install,
                             initargs=(fn,)) as pool:
        return list(pool.map(_call, items, chunksize=chunk))
