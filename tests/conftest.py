"""Shared fixtures of the Tier-1 suite."""

import pytest

from equizeta import rotations


@pytest.fixture(autouse=True)
def cold_rotation_memos():
    """Each test starts from empty rotation memos, so a count or a fault it
    injects does not depend on which tests ran before it."""
    rotations._CLASSIFIED.cache_clear()
    rotations._TRANSVERSE.cache_clear()
