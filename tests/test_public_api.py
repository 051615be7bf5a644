"""The package's public surface: ``cmestream.__all__`` and the names that
``cmestream/__init__.py`` binds agree, so a removed name cannot linger in
one place and not the other."""

import types

import cmestream


def test_every_listed_name_resolves():
    assert len(set(cmestream.__all__)) == len(cmestream.__all__)
    assert [n for n in cmestream.__all__ if not hasattr(cmestream, n)] == []


def test_every_public_name_is_listed():
    public = {name for name, value in vars(cmestream).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(cmestream.__all__) == set()
