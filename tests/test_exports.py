"""The package's export list: every name in __all__ resolves, once."""
import swarmtrack


def test_every_exported_name_resolves():
    missing = [name for name in swarmtrack.__all__ if not hasattr(swarmtrack, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(swarmtrack.__all__) == len(set(swarmtrack.__all__))
