"""The name registry behind every ``engine=`` / ``executor=`` / ... string.

Engines, deadline comparators, executors, experiments, workload
families and fault plans all resolve names through a :class:`Registry`:
one table with one duplicate check, one did-you-mean miss and one
sorted listing.

Built-ins that live in another module are *listed* in their registry
as ``"module:attribute"`` paths instead of registering themselves when
that module happens to be imported.  Listing names therefore imports
nothing, a lookup imports only the module holding the entry it
resolves, and :func:`~repro.store.envelope.registry_contents_hash` is
the same whatever the process imported before.
"""

from __future__ import annotations

import importlib
from typing import Mapping, Optional

from .errors import ModelError, RegistryError

__all__ = ["Registry"]


class Registry(dict):
    """A ``name -> entry`` table plus the built-ins it resolves lazily.

    *kind* names entries in messages (``"engine"``), *noun* is the
    article form the empty-name error uses (``"an evaluation
    engine"``).  *entries* are registered up front; *builtins* maps
    further names to ``"module:attribute"`` paths, imported on first
    lookup and kept in the table from then on.  Plain ``dict`` access
    sees only what has been registered or resolved so far; use
    :meth:`lookup` and :meth:`names`.

    A registry that backs a *keyword* argument (``"engine"``) is also
    given the *default* name that ``None`` resolves to and the type
    (*accepts*) whose instances pass through unresolved; :meth:`unwrap`
    and :meth:`resolve` need all three.
    """

    def __init__(
        self,
        kind: str,
        noun: str,
        entries: Optional[Mapping[str, object]] = None,
        builtins: Optional[Mapping[str, str]] = None,
        keyword: Optional[str] = None,
        default: Optional[str] = None,
        accepts: Optional[type] = None,
    ) -> None:
        super().__init__(entries or {})
        self.kind = kind
        self.noun = noun
        self.builtins = dict(builtins or {})
        self.keyword = keyword
        self.default = default
        self.accepts = accepts

    def register(self, name: str, entry, replace: bool = False):
        """Bind *name* to *entry*; a taken name needs ``replace=True``."""
        if not name:
            raise ModelError(f"{self.noun} needs a non-empty name")
        if not replace and (name in self or name in self.builtins):
            raise ModelError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override"
            )
        self[name] = entry
        return entry

    def lookup(self, name: str, hint: str = ""):
        """The entry bound to *name*, importing a built-in on first use.

        A miss raises :class:`~repro.errors.RegistryError` listing every
        name (with a did-you-mean suggestion and *hint*).
        """
        entry = self.get(name)
        if entry is None:
            path = self.builtins.get(name)
            if path is None:
                raise RegistryError.unknown(self.kind, name, self.names(), hint=hint)
            module, _, attribute = path.partition(":")
            entry = self.setdefault(
                name, getattr(importlib.import_module(module), attribute)
            )
        return entry

    def unwrap(self, value):
        """*value*, or its *keyword* attribute when *value* is a config.

        ``None``, names and instances of *accepts* pass through; any
        other object carrying an attribute named *keyword*
        (``RunConfig.engine``) contributes that attribute, so every
        keyword argument backed by a registry accepts a run config
        directly.
        """
        if value is None or isinstance(value, (str, self.accepts)):
            return value
        return getattr(value, self.keyword, value)

    def resolve(self, value):
        """The entry a keyword argument such as ``engine=`` means.

        Unwraps a config (:meth:`unwrap`), maps ``None`` to the
        *default* name, returns an instance of *accepts* as it is and
        looks anything else up by name (:meth:`lookup`).
        """
        value = self.unwrap(value)
        if value is None:
            value = self.default
        if isinstance(value, self.accepts):
            return value
        return self.lookup(value, hint=f"or an instance of {self.accepts.__name__}")

    def names(self) -> tuple[str, ...]:
        """Every registered or built-in name, sorted."""
        return tuple(sorted({*self, *self.builtins}))
