"""Package surface: the public names the package exports."""
import capset


def test_every_exported_name_resolves():
    missing = [name for name in capset.__all__ if not hasattr(capset, name)]
    assert missing == []
    assert len(set(capset.__all__)) == len(capset.__all__)
