"""The package root: each public name is declared once, in its module's ``__all__``."""

import importlib
import pkgutil

import zenodecay

#: The modules whose ``__all__`` the package root re-exports, in import order.
EXPORTING = ("amplitude", "config", "errors", "formfactor", "model", "resolvent",
             "selfenergy", "zeno")
SUBMODULES = {info.name for info in pkgutil.iter_modules(zenodecay.__path__)}


def test_every_public_module_but_cli_is_re_exported():
    public = {name for name in SUBMODULES if not name.startswith("_")}
    assert public - {"cli"} == set(EXPORTING)


def test_root_all_is_the_modules_all_joined():
    modules = [importlib.import_module(f"zenodecay.{name}") for name in EXPORTING]
    assert zenodecay.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(zenodecay.__all__)) == len(zenodecay.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(zenodecay, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from zenodecay import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(zenodecay.__all__)
    assert "main" not in namespace
    assert namespace.keys().isdisjoint(SUBMODULES)
