"""Docstring audit: every public ``repro.*`` symbol documents itself.

The public API surface is what the subpackages export through
``__all__`` plus the lazy top-level exports; each symbol (and each
exporting module) must carry a non-empty docstring so the registry
reference and API docs can introspect them.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.analysis.claims",
    "repro.analysis.frames",
    "repro.analysis.figures",
    "repro.analysis.report",
    "repro.core",
    "repro.costmodel",
    "repro.experiments.common",
    "repro.galois",
    "repro.layout",
    "repro.routing",
    "repro.routing.registry",
    "repro.scenarios",
    "repro.scenarios.spec",
    "repro.scenarios.campaign",
    "repro.scenarios.resolve",
    "repro.scenarios.runner",
    "repro.service",
    "repro.service.coordinator",
    "repro.service.protocol",
    "repro.service.store",
    "repro.service.units",
    "repro.service.worker",
    "repro.sim",
    "repro.sim.parallel",
    "repro.topologies",
    "repro.topologies.registry",
    "repro.traffic",
    "repro.traffic.registry",
    "repro.util",
    "repro.workloads",
    "repro.workloads.registry",
]


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_module_docstring(modname):
    module = importlib.import_module(modname)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{modname} has no module docstring"
    )


def _public_symbols():
    for modname in PUBLIC_MODULES:
        module = importlib.import_module(modname)
        for name in getattr(module, "__all__", []):
            yield modname, name


@pytest.mark.parametrize("modname,name", sorted(set(_public_symbols())))
def test_public_symbol_docstring(modname, name):
    obj = getattr(importlib.import_module(modname), name)
    if not (inspect.isclass(obj) or inspect.isfunction(obj)
            or inspect.ismethod(obj) or inspect.isroutine(obj)
            or inspect.ismodule(obj)):
        return  # plain data (version strings, registries, flags)
    doc = inspect.getdoc(obj)
    assert doc and doc.strip(), f"{modname}.{name} has no docstring"
    # A bare auto-generated dataclass signature is not documentation.
    assert not doc.startswith(f"{getattr(obj, '__name__', '')}("), (
        f"{modname}.{name} only has the auto-generated dataclass docstring"
    )
