"""Order-preserving worker pool, its workers' allocator policy, and
what importing the package loads."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from clescreen import util
from clescreen.util import run_parallel


def test_closure_over_local_array():
    values = np.arange(12.0) ** 2
    assert run_parallel(lambda i: values[i] + 1.0, range(12), jobs=2) == \
        [v + 1.0 for v in values]


def test_nested_call():
    # A worker may itself map over a pool; neither call disturbs the other.
    values = np.arange(5.0)

    def outer(i):
        return sum(run_parallel(lambda j: values[i] * j, range(3), jobs=2))

    assert run_parallel(outer, range(5), jobs=2) == [3.0 * v for v in values]


def test_workers_capped_at_item_count(monkeypatch):
    # The pool forks all of its workers at the first submit, so a huge
    # `jobs` must not reach it.  The fake pool runs in this process and
    # starts none.
    opened = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            opened.append(max_workers)
            self.fn = initargs[0]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [self.fn(item) for item in items]

    monkeypatch.setattr(util, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(util, "default_jobs", lambda: 8)
    assert run_parallel(lambda i: i * 2, [1, 2, 3], jobs=10**6) == [2, 4, 6]
    assert opened == [3]
    # 720 records (a synth cohort) on 4 cores: 4 workers, not 720.
    monkeypatch.setattr(util, "default_jobs", lambda: 4)
    assert run_parallel(lambda i: i, range(720), jobs=10**6) == \
        list(range(720))
    assert opened == [3, 4]


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's
    package, and return its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_synth_loads_scipy():
    out = run_python("""
        import sys
        import clescreen, clescreen.evaluation, clescreen.cli
        print("scipy" in sys.modules)
        from clescreen import SynthConfig, generate_dataset
        assert clescreen.synth.SynthConfig is SynthConfig
        assert {"SynthConfig", "generate_dataset", "synth"} <= set(
            clescreen.__all__)
        print("scipy" in sys.modules, generate_dataset.__module__)
    """)
    assert out.split() == ["False", "True", "clescreen.synth"]


def test_no_mallopt_sets_nothing(monkeypatch):
    # A C library without mallopt (say, not glibc): the initializer only
    # keeps the function.
    monkeypatch.setattr(util.ctypes, "CDLL", lambda name: object())
    assert util._mallopt() is None
    monkeypatch.setattr(util, "_worker_fn", None)
    monkeypatch.setattr(util, "_under_policy", False)
    util._install(len)
    assert util._worker_fn is len


def recorded_mallopt(monkeypatch) -> list:
    """The (parameter, value) calls made to a stand-in `mallopt` from now
    on, in a process that is not yet under the policy."""
    calls = []
    monkeypatch.setattr(util, "_mallopt",
                        lambda: lambda param, value: calls.append(
                            (param, value)))
    monkeypatch.setattr(util, "_under_policy", False)
    return calls


def test_serial_map_sets_policy_and_restores_it(monkeypatch):
    calls = recorded_mallopt(monkeypatch)
    policy = [(util._M_MMAP_THRESHOLD, 16 << 20),
              (util._M_TRIM_THRESHOLD, 64 << 20)]
    defaults = [(util._M_MMAP_THRESHOLD, 128 << 10),
                (util._M_TRIM_THRESHOLD, 128 << 10)]

    def item(i):
        # A nested serial map, as a forest fold inside a serial fold
        # pass makes, neither sets nor restores anything.
        assert run_parallel(lambda j: j, [0, 1], jobs=1) == [0, 1]
        return list(calls)

    seen = run_parallel(item, [0, 1], jobs=1)
    assert seen == [policy, policy]
    assert calls == policy + defaults
    # A map that raises restores the defaults too.
    calls.clear()
    with pytest.raises(ZeroDivisionError):
        run_parallel(lambda i: 1 // i, [0], jobs=1)
    assert calls == policy + defaults
    assert util._under_policy is False


def test_serial_map_in_worker_keeps_worker_policy(monkeypatch):
    # A pool worker (here this process after the pool initializer) keeps
    # its policy through a serial map, as a forest fold's training does.
    calls = recorded_mallopt(monkeypatch)
    monkeypatch.setattr(util, "_worker_fn", None)
    util._install(len)
    assert calls == [(util._M_MMAP_THRESHOLD, 16 << 20),
                     (util._M_TRIM_THRESHOLD, 64 << 20)]
    calls.clear()
    assert run_parallel(lambda i: i * 3, [1, 2], jobs=1) == [3, 6]
    assert calls == []


@pytest.mark.skipif(util._mallopt() is None or util.default_jobs() < 2,
                    reason="needs glibc mallopt and a two-worker pool")
def test_pool_workers_reuse_freed_frame_pages():
    # A fresh interpreter, so that no earlier allocation in this process
    # has moved glibc's thresholds.  Under the default policy an 8 MB
    # block is mmapped, so the second one faults its pages in again.
    out = run_python("""
        import resource
        import numpy as np
        from clescreen.util import run_parallel

        def faults(_):
            counts = []
            for _ in range(2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                block = np.ones(8 << 20, dtype=np.uint8)
                del block
                counts.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    - before)
            return counts

        for first, second in run_parallel(faults, [0, 1], jobs=2):
            print(first, second)
    """)
    # The first block faults in hundreds of pages; the second reuses
    # them (a small Python object may still touch a fresh page).
    for line in out.splitlines():
        first, second = map(int, line.split())
        assert first > 100 and second <= 4, out
