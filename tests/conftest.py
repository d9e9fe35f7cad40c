"""Shared test set-up."""

import pytest

from otafl import ota


@pytest.fixture(autouse=True)
def _fresh_channel_side():
    """Start every test without a kept round channel side, so a test that
    counts the calls an aggregation makes is not served an earlier test's
    build."""
    ota._channel_side.cache_clear()
