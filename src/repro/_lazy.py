"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names eagerly
makes every ``import repro.<pkg>.<leaf>`` pay for all of its siblings.
:func:`lazy_exports` gives the package an ``__all__`` and a module
``__getattr__`` that imports a name's submodule the first time the name
is read, so an entry point loads only the modules it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for *package* re-exporting, for each
    submodule of *table*, the names it lists; a name is imported on
    first read and then cached in the package namespace."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(home), __getattr__
