"""Lazy package re-exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` lists its public names in one table mapping each
name to the submodule that defines it, derives ``__all__`` from it and
hands it to :func:`attach`.  Nothing is imported up front: the first
read of a name imports its submodule and caches the value on the
package, so a later read is a plain attribute lookup, and a fresh
process loads only the modules its code path uses.  Reading a
submodule that nothing has imported yet (``repro.core.latency`` after
``import repro``) imports it, as the eager re-exports used to.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Optional

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Optional[str]]
) -> tuple[Callable[[str], object], Callable[[], list]]:
    """The ``(__getattr__, __dir__)`` pair for *package*.

    *exports* maps each public name to the submodule defining it,
    relative to *package* (``"engine"``, or a subpackage such as
    ``"core"``); ``None`` marks a name the package binds itself.  Use
    as::

        __getattr__, __dir__ = attach(__name__, {"get_engine": "engine"})

    A name that is also the name of its own submodule
    (``repro.core.even_allocation``) is bound now: importing that
    submodule later would otherwise set the module object over it.
    """
    origin = {name: module for name, module in exports.items() if module}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    for name, module in origin.items():
        if module.rsplit(".", 1)[-1] == name:
            __getattr__(name)
    return __getattr__, __dir__
