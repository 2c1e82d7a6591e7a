"""Deterministic seeding and order-preserving worker pools.

Every random draw in the pipeline comes from a generator seeded through
`stable_seed`, so results never depend on process scheduling, dict order,
or platform hash randomization.
"""

from __future__ import annotations

import ctypes
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


def pool_size(jobs: int, n_items: int) -> int:
    """Workers a pool of `jobs` starts for `n_items` items: at least one,
    and no more than the items or the cores, since the pool forks every
    worker at once and extra workers only wait for a core."""
    return max(1, min(int(jobs), n_items, default_jobs()))


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


# glibc's mallopt parameters (malloc.h) and the allocator policy that a
# process runs under from its first map on.  By default a block of 128 KiB
# or more is mmapped and unmapped when freed, so every frame-sized
# temporary of every record (a rotated copy, a halved frame, a patch
# stack) comes from fresh pages and pays a page fault per 4 KiB.  Serving
# blocks up to 16 MiB from the heap, and keeping up to 64 MiB of free
# heap top before trimming it, keeps one record's working set on pages
# the process already holds.  4 and 8 MiB are too small for a full-scale
# RF-GLCM record.  Forked workers inherit the policy with the rest of
# the allocator's state.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_POLICY = {_M_MMAP_THRESHOLD: 16 << 20, _M_TRIM_THRESHOLD: 64 << 20}


def _mallopt() -> Callable[[int, int], int] | None:
    """glibc's `mallopt`, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn


def _set_policy() -> None:
    """Put this process under `_POLICY` for good, where the C library has
    `mallopt`; setting it again changes nothing."""
    mallopt = _mallopt()
    for param, value in _POLICY.items() if mallopt else ():
        mallopt(param, value)


# The function a pool worker maps over its items.  Set once in each worker
# by the pool initializer; the parent process never writes it.
_worker_fn: Callable[[Any], Any] | None = None


def _install(fn: Callable[[Any], Any]) -> None:
    """Pool initializer: keep `fn`."""
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
    This process is under the allocator policy `_POLICY` from the first
    map on, and its pool workers inherit it.
    """
    _set_policy()
    jobs = pool_size(jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                             initializer=_install,
                             initargs=(fn,)) as pool:
        return list(pool.map(_call, items, chunksize=chunk))
