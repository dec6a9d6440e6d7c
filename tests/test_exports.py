"""Every name orbipar exports resolves, so a deletion cannot leave a stale
string in `__all__`."""

import orbipar


def test_all_names_resolve():
    missing = [name for name in orbipar.__all__ if not hasattr(orbipar, name)]
    assert not missing
    assert len(set(orbipar.__all__)) == len(orbipar.__all__)
