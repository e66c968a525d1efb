"""The exported surface: each public name is declared once, in its module's ``__all__``."""

import sys
from pathlib import Path

import pytest

import metastable

MODULES = (
    metastable.potentials,
    metastable.crossover,
    metastable.landscape,
    metastable.rates,
    metastable.capacity,
    metastable.sampling,
)


def test_the_package_exports_exactly_its_modules_declarations():
    owners: dict = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    # a name in two modules' __all__ would be shadowed silently by the star imports
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    assert sorted(metastable.__all__) == sorted(owners)
    for name, (owner,) in owners.items():
        assert getattr(metastable, name) is getattr(sys.modules[owner], name), name

    namespace: dict = {}
    exec("from metastable import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(metastable.__all__)

    if sys.version_info < (3, 11):
        pytest.skip("tomllib, which reads the project version, is new in Python 3.11")
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert metastable.__version__ == tomllib.load(fh)["project"]["version"]
