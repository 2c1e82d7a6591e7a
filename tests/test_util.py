"""Order-preserving worker pool."""

import numpy as np

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
