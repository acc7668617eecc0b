"""Fixtures shared by the serve tests."""

import pytest

from repro.core import plan


@pytest.fixture
def hybrid_batches(monkeypatch):
    """Send pooled batches to the hybrid pool.

    The planner takes the pool only from ``_HYBRID_MIN_PAIRS`` pairs on,
    a product the small test rosters never reach; lowering it here (a
    test-only patch) keeps the pooled path under test.
    """
    monkeypatch.setattr(plan, "_HYBRID_MIN_PAIRS", 1)
