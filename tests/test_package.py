"""The package's public surface."""

import orbitctl


def test_every_public_name_resolves():
    missing = [name for name in orbitctl.__all__ if not hasattr(orbitctl, name)]
    assert missing == []
