"""The package loads its modules lazily: ``import iterlinopt`` runs no
module of the package, and each exported name loads its home module the
first time it is used."""

import importlib
import os
import subprocess
import sys

import pytest

import iterlinopt

EXPORTS = 53


def test_every_export_is_its_home_module_s_object():
    assert len(iterlinopt.__all__) == len(set(iterlinopt.__all__)) == EXPORTS
    for module, names in iterlinopt._EXPORTS.items():
        home = importlib.import_module(f"iterlinopt.{module}")
        for name in names:
            value = getattr(iterlinopt, name)
            assert value is getattr(home, name), name
            assert value.__module__ == home.__name__, name


def test_dir_lists_every_export():
    assert set(iterlinopt.__all__) <= set(dir(iterlinopt))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from iterlinopt import *", namespace)
    assert set(iterlinopt.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(iterlinopt, name)
               for name in iterlinopt.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        iterlinopt.no_such_name  # noqa: B018
    assert not hasattr(iterlinopt, "_sample_verdict")


def test_a_fresh_import_loads_no_module_of_the_package():
    src = os.path.dirname(os.path.dirname(iterlinopt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, iterlinopt; "
             "print(*sorted(m for m in sys.modules if m.startswith('iterlinopt.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
