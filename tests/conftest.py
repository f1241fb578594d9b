"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from tsflow.spectral import DIMENSIONS


@pytest.fixture
def forbid_large_empty(monkeypatch):
    """Fail the test from inside np.empty when it is asked for more than 2^20 elements.

    The failure is not an Exception, so no error handler of the code under
    test can turn it into a clean exit.
    """
    allocate = np.empty

    def guarded(shape, *args, **kwargs):
        size = int(np.prod(shape, dtype=object)) if np.ndim(shape) else int(shape)
        if size > 1 << 20:
            pytest.fail(f"np.empty asked for {size} elements")
        return allocate(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", guarded)


@pytest.fixture
def forbid_large_zeros(monkeypatch):
    """Fail the test from inside np.zeros when it is asked for more elements than a tensor has.

    The largest tensor a reader may allocate has max(DIMENSIONS)^4 entries.
    """
    allocate = np.zeros

    def guarded(shape, *args, **kwargs):
        if int(np.prod(shape, dtype=object)) > max(DIMENSIONS) ** 4:
            pytest.fail(f"np.zeros asked for shape {shape}")
        return allocate(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)
