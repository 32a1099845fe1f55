import functools

import pytest


@pytest.fixture
def fresh_caches(monkeypatch):
    """``fresh_caches(module, *names)`` swaps each named ``functools.cache``
    of ``module`` for an empty one; teardown restores the originals, so no
    value filled during the test, under a patch or not, outlives it."""

    def swap(module, *names):
        for name in names:
            monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))

    return swap
