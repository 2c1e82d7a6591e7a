"""Order-preserving worker pool."""

import numpy as np

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
