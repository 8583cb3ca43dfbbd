"""The package's public surface: ``__all__`` names exactly what it exports,
and each name a module serves on first use is its home module's object."""

import importlib
import subprocess
import sys

import pytest

import bundle_census
from bundle_census import cli, enumeration, oracle, sweep
from conftest import child_env


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


def test_import_loads_no_submodule():
    # each exported name loads its module on first use, so a command imports only what it runs
    code = "import bundle_census, sys; print([m for m in sys.modules if m.startswith('bundle_census.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_every_exported_name_is_its_home_modules_object():
    def home(name):
        return importlib.import_module(f"bundle_census.{bundle_census._HOMES[name]}")

    copies = [name for name in bundle_census.__all__
              if getattr(bundle_census, name) is not getattr(home(name), name)]
    assert copies == []


def test_lazy_hooks_serve_their_home_objects(monkeypatch):
    # cached names are dropped first, so each module's __getattr__ runs here
    for module, name in ((sweep, "ChernVector"), (sweep, "count_bundles"),
                         (oracle, "binomial_sum")):
        monkeypatch.delitem(vars(module), name, raising=False)
    assert sweep.ChernVector is enumeration.ChernVector
    assert sweep.count_bundles is enumeration.count_bundles
    assert cli.run_sweep is sweep.run_sweep
    assert oracle.binomial_sum is enumeration.binomial_sum
    for module in (sweep, cli, oracle):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
