"""Package surface: exported names exist, and the package re-exports only
what its submodules export."""

import importlib
import pkgutil

import seqdr

SUBMODULES = [importlib.import_module(f"seqdr.{m.name}")
              for m in pkgutil.iter_modules(seqdr.__path__)]


def test_submodule_exports_exist():
    for mod in SUBMODULES:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_reexports_submodule_exports():
    exported = {name: getattr(mod, name)
                for mod in SUBMODULES for name in mod.__all__}
    for name in seqdr.__all__:
        assert name in exported, name
        assert getattr(seqdr, name) is exported[name], name
