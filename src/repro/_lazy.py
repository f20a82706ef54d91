"""Lazy package surfaces (PEP 562): importing a package costs nothing
until one of its public names is used."""

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it defines.  A name is imported from its submodule on first
    access and cached in the package namespace; any other public
    attribute is tried as a submodule, so ``repro.match.partitioned``
    works without an ``import`` statement as it did when every
    ``__init__`` imported everything.
    """
    home = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )
        if name.startswith("_"):
            raise missing
        target = f"{package}.{home.get(name, name)}"
        try:
            module = import_module(target)
        except ModuleNotFoundError as exc:
            if exc.name != target:
                raise
            raise missing from None
        value = namespace[name] = (
            getattr(module, name) if name in home else module
        )
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, list(home)
