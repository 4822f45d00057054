"""The package's lazy export table: every exported name loads its module on
first access and is that module's own object."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import retromech
from retromech import core, enums, fracops


@pytest.mark.parametrize("name", sorted(retromech.__all__))
def test_export_is_its_modules_object(name):
    module = importlib.import_module(f"retromech.{retromech._MODULE_OF[name]}")
    assert name in module.__all__
    assert getattr(retromech, name) is getattr(module, name)


_MODULES = sorted(info.name for info in pkgutil.iter_modules(retromech.__path__)
                  if info.name != "__main__")


@pytest.mark.parametrize("module", _MODULES)
def test_every_name_in_a_modules_all_exists(module):
    mod = importlib.import_module(f"retromech.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_enums_are_shared_with_their_old_modules():
    assert retromech.Direction is core.Direction is enums.Direction
    assert retromech.Scheme is fracops.Scheme is enums.Scheme


def test_dir_lists_every_export():
    assert set(retromech.__all__) <= set(dir(retromech))
    assert "__version__" in dir(retromech)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        retromech.nope  # noqa: B018
    assert not hasattr(retromech, "potential_from_json_dict")


def test_fresh_import_loads_modules_on_first_use():
    src = os.path.dirname(os.path.dirname(os.path.abspath(retromech.__file__)))
    code = """if True:
        import sys
        import retromech
        names = set(dir(retromech))
        assert set(retromech.__all__) <= names, sorted(set(retromech.__all__) - names)
        from retromech import Direction, derive_causal_eom, parse_lagrangian
        assert "numpy" not in sys.modules
        from retromech import cli, fracops
        assert cli is sys.modules["retromech.cli"]
        assert fracops is sys.modules["retromech.fracops"]
        assert "numpy" in sys.modules
        from retromech import Grid
        assert Grid is sys.modules["retromech.core"].Grid
        assert retromech.Scheme is fracops.Scheme
        print("ok")
    """
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
