"""The package's public surface: ``__all__`` names exactly what it exports."""

import bundle_census


def test_every_exported_name_resolves():
    missing = [name for name in bundle_census.__all__ if not hasattr(bundle_census, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(bundle_census.__all__)) == len(bundle_census.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bundle_census import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bundle_census.__all__)
