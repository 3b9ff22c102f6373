"""The package's public surface: ``bwmlink.__all__`` lists exactly the
public names that ``bwmlink/__init__.py`` binds."""

import types

import bwmlink


def test_every_export_resolves():
    for name in bwmlink.__all__:
        assert hasattr(bwmlink, name), name


def test_exports_sorted_without_duplicates():
    assert bwmlink.__all__ == sorted(set(bwmlink.__all__))


def test_exports_are_the_bound_public_names():
    bound = {name for name, value in vars(bwmlink).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(bwmlink.__all__) == bound
