"""The public API surface: everything advertised imports and exists."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.linalg",
    "repro.ode",
    "repro.nonlinear",
    "repro.pde",
    "repro.analog",
    "repro.core",
    "repro.perf",
    "repro.optimize",
    "repro.workloads",
    "repro.experiments",
    "repro.reporting",
    "repro.runtime",
    "repro.service",
    "repro.trace",
    "repro.checkpoint",
    "repro.fleet",
    "repro.bench",
    "repro.certify",
    "repro.families",
    "repro.cli",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings_present(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 40, package


def test_headline_api_at_top_level():
    import repro

    assert hasattr(repro, "HybridSolver")
    assert hasattr(repro, "AnalogAccelerator")
    assert hasattr(repro, "random_burgers_system")


def test_every_public_class_documented():
    # Spot-check: all exported callables/classes of the core packages
    # carry docstrings.
    for package in ("repro.core", "repro.analog", "repro.nonlinear"):
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__doc__, f"{package}.{name} lacks a docstring"
