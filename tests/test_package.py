"""The package namespace: each public name is listed once, in the ``__all__``
of the module that defines it, and the package re-exports those lists."""
from __future__ import annotations

import stabledrift
from stabledrift import errors, estimate, experiments, kernels, models, simulate, stable

MODULES = (errors, stable, kernels, models, simulate, estimate, experiments)


def test_the_package_exports_each_module_list_once():
    assert stabledrift.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(set(stabledrift.__all__)) == len(stabledrift.__all__)
    for module in MODULES:
        for name in module.__all__:
            value = getattr(stabledrift, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__
