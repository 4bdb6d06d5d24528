"""The package's export list."""

import types

import qguess


def test_all_lists_every_public_name_sorted():
    public = {
        name
        for name, value in vars(qguess).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert qguess.__all__ == sorted(qguess.__all__)
    assert set(qguess.__all__) == public
    assert len(qguess.__all__) == len(public)
