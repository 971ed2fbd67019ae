"""Named discovery of registered designs-under-verification.

A registry maps a stable name to a *builder* (``**params -> DUV``);
the CLI and the workbench resolve designs by that name.  The two paper
case studies are built in by reference -- ``"pci"`` names
``repro.models.pci.duv.build_duv``, imported the first time someone
asks for it -- so ``import repro.workbench`` stays cheap, worker
processes that only ever touch one model never import the other, and
no model package has to import the workbench to register itself.
Further designs join with :meth:`ModelRegistry.register`.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional

from .duv import DUV

DuvBuilder = Callable[..., DUV]

#: name -> ``module:attribute`` of the built-in builder, imported on first use
_BUILTIN_BUILDERS: Dict[str, str] = {
    "master_slave": "repro.models.master_slave.duv:build_duv",
    "pci": "repro.models.pci.duv:build_duv",
}


class UnknownModelError(KeyError):
    """Asked for a model name nobody registered."""


class ModelRegistry:
    """name -> DUV builder, with lazy loading of the built-in models."""

    def __init__(self, builtins: Optional[Dict[str, str]] = None):
        self._builders: Dict[str, DuvBuilder] = {}
        self._lazy = dict(_BUILTIN_BUILDERS if builtins is None else builtins)

    def register(
        self, name: str, builder: DuvBuilder, replace: bool = False
    ) -> None:
        if not replace and name in self._builders:
            raise ValueError(f"model {name!r} is already registered")
        self._builders[name] = builder

    def _load(self, name: str) -> None:
        target = self._lazy.get(name)
        if target is None or name in self._builders:
            return
        module, _, attribute = target.partition(":")
        self._builders[name] = getattr(importlib.import_module(module), attribute)

    def names(self) -> List[str]:
        """Every registered (or registerable) model name, sorted."""
        for name in list(self._lazy):
            try:
                self._load(name)
            except ImportError:
                continue
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        try:
            self._load(name)
        except ImportError:
            return False
        return name in self._builders

    def get(self, name: str, *args, **params) -> DUV:
        """Build the named DUV (builder params pass through, e.g. a
        topology: ``get("pci", 2, 2)`` or ``get("pci", n_masters=2)``)."""
        self._load(name)
        try:
            builder = self._builders[name]
        except KeyError:
            known = ", ".join(self.names()) or "none"
            raise UnknownModelError(
                f"unknown model {name!r} (registered: {known})"
            ) from None
        return builder(*args, **params)

    def describe(self, name: str) -> str:
        """The model's one-line description (builds a default DUV)."""
        return self.get(name).description


_DEFAULT: Optional[ModelRegistry] = None


def default_registry() -> ModelRegistry:
    """The process-wide registry the CLI and the workbench resolve names in."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ModelRegistry()
    return _DEFAULT

