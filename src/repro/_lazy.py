"""Lazy package exports (PEP 562): a package imports a submodule on first use.

Every package ``__init__`` in this repo re-exports its public names from
a ``{name: submodule}`` table instead of importing the submodules up
front::

    __getattr__, __dir__ = lazy_exports(__name__, {"FaultConfig": "config"})

``from repro.faults import FaultConfig`` and ``repro.faults.FaultConfig``
import :mod:`repro.faults.config` then, and only then, so importing one
module of a package does not compile its siblings and their imports.
Every lookup reads the submodule's current attribute, so a name patched
on the submodule is the name the package hands out.  A name missing from
the table raises :class:`AttributeError`, as for any module, which keeps
``hasattr`` and ``from package import submodule`` working.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``'s lazy ``exports``.

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.
    """

    def __getattr__(name: str) -> object:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{submodule}"), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
