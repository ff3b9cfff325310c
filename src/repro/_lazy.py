"""The lazy re-export hook shared by the package ``__init__`` modules."""

import importlib


def lazy_exports(package: str, namespace: dict, table: dict):
    """``(__getattr__, __dir__)`` for ``package``: a name in ``table``
    (name → ``(submodule, attribute)``) imports its submodule on first
    access and is cached in ``namespace``, the package's ``globals()``."""
    def __getattr__(name: str):
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{module_name}", package)
        namespace[name] = value = getattr(module, attr)
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))
    return __getattr__, __dir__
