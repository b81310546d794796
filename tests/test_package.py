"""The package's public names are exactly what its submodules export."""

import inspect

import regmarket
from regmarket import data_io, errors, experiments, market, regression, timeseries

SUBMODULES = (errors, regression, timeseries, market, data_io, experiments)


def test_public_names_are_the_submodules_exports():
    public = {
        name
        for name, value in vars(regmarket).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    exported = set().union(*(module.__all__ for module in SUBMODULES))
    assert public == exported
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(regmarket, name) is getattr(module, name), name
