"""The package's public surface."""

import otafl


def test_all_names_resolve_once():
    assert len(otafl.__all__) == len(set(otafl.__all__))
    missing = [name for name in otafl.__all__ if not hasattr(otafl, name)]
    assert missing == []
