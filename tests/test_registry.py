"""Registries and lazy package re-exports give the same answers whatever
was imported first.

Built-ins are listed in their registry (``"module:attribute"``), never
registered by the side effect of some import, so every ``available_*``
listing and the store's ``registry_contents_hash`` read the same in a
fresh process as after importing the whole package.  Every package
``__init__`` resolves its ``__all__`` lazily, so each public name must
still resolve, show in ``dir()``, and be the object its defining
module holds.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ModelError, RegistryError
from repro.registry import Registry

from test_import_guard import run_fresh

SNAPSHOT = """
import importlib, json, pkgutil, sys

def snapshot():
    from repro.api.spec import available_experiments
    from repro.exec.base import available_executors
    from repro.perf.deadline import available_deadline_comparators
    from repro.perf.engine import available_engines
    from repro.resilience.faults import available_fault_plans
    from repro.store.envelope import registry_contents_hash
    from repro.workloads.families import available_families

    return {
        "experiments": available_experiments(),
        "engines": available_engines(),
        "comparators": available_deadline_comparators(),
        "executors": available_executors(),
        "families": available_families(),
        "fault_plans": available_fault_plans(),
        "hash": registry_contents_hash(),
    }

fresh = snapshot()
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
print(json.dumps({"fresh": fresh, "full": snapshot()}))
"""


def test_registries_do_not_depend_on_import_order():
    out = json.loads(run_fresh(SNAPSHOT))
    assert out["fresh"] == out["full"]
    listed = out["fresh"]
    assert listed["engines"] == ["agent-batch", "batch", "chunked-batch", "scalar"]
    assert listed["comparators"] == ["batched", "reference"]
    assert listed["executors"] == ["async", "process", "serial"]
    assert listed["families"] == ["heter", "homo", "repe"]
    assert listed["fault_plans"] == []
    assert listed["experiments"] == [
        "budget-sweep",
        "deadline-frontier",
        "deadline-sweep",
        "fig2",
        "fig3",
        "fig4",
        "fig5ab",
        "fig5c",
        "table1",
    ]
    # The value earlier releases stamped on store entries: they stay
    # servable instead of quarantining as stale.
    assert listed["hash"] == "6d1fb2e4de443668"


def test_every_builtin_path_resolves():
    from repro.exec.base import available_executors, get_executor
    from repro.perf.deadline import (
        available_deadline_comparators,
        get_deadline_comparator,
    )
    from repro.perf.engine import available_engines, get_engine

    for name in available_engines():
        assert get_engine(name).name == name
    for name in available_executors():
        assert get_executor(name).name == name
    for name in available_deadline_comparators():
        assert callable(get_deadline_comparator(name))


EXPORTS = """
import importlib, inspect, json, pkgutil, types
import repro

packages = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
report = {}
for name in packages:
    pkg = importlib.import_module(name)
    listed = set(dir(pkg))
    problems = []
    for export in pkg.__all__:
        if export not in listed:
            problems.append(f"{export}: missing from dir()")
        value = getattr(pkg, export)
        if isinstance(value, types.ModuleType):
            problems.append(f"{export}: resolves to a module")
        home = inspect.getmodule(value)
        if home is not None and home.__name__.startswith("repro"):
            if getattr(home, export, value) is not value:
                problems.append(f"{export}: differs from {home.__name__}")
    report[name] = problems
import repro.core.even_allocation
report["even_allocation"] = inspect.isfunction(repro.core.even_allocation)
print(json.dumps(report))
"""


def test_every_export_resolves_lazily():
    report = json.loads(run_fresh(EXPORTS))
    assert report.pop("even_allocation") is True
    assert len(report) == 13  # repro + every subpackage
    assert {name: p for name, p in report.items() if p} == {}


def test_unknown_package_attribute_is_an_attribute_error():
    import repro.perf

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.perf.no_such_name  # noqa: B018
    assert not hasattr(repro.perf, "__wrapped__")


def test_submodules_resolve_as_attributes():
    out = run_fresh(
        "import repro\nprint(repro.core.latency.__name__, "
        "repro.perf.engine.DEFAULT_ENGINE)"
    )
    assert out.split() == ["repro.core.latency", "scalar"]


class TestRegistry:
    def _registry(self):
        return Registry(
            "widget",
            "a widget",
            entries={"plain": 1},
            builtins={"lazy": "colorsys:rgb_to_hsv"},
        )

    def test_lists_builtins_without_resolving_them(self):
        registry = self._registry()
        assert registry.names() == ("lazy", "plain")
        assert "lazy" not in dict(registry)

    def test_lookup_imports_and_keeps_a_builtin(self):
        registry = self._registry()
        resolved = registry.lookup("lazy")
        import colorsys

        assert resolved is colorsys.rgb_to_hsv
        assert registry["lazy"] is resolved

    def test_builtin_names_are_taken(self):
        registry = self._registry()
        with pytest.raises(ModelError, match="widget 'lazy' is already registered"):
            registry.register("lazy", 2)
        registry.register("lazy", 2, replace=True)
        assert registry.lookup("lazy") == 2

    def test_empty_name_and_miss(self):
        registry = self._registry()
        with pytest.raises(ModelError, match="a widget needs a non-empty name"):
            registry.register("", 3)
        with pytest.raises(RegistryError, match="did you mean 'plain'"):
            registry.lookup("plane", hint="or a number")

    def test_resolve_unwraps_defaults_passes_through_and_looks_up(self):
        registry = Registry(
            "widget",
            "a widget",
            entries={"plain": 1},
            keyword="widget",
            default="plain",
            accepts=float,
        )

        class Config:
            widget = None

        assert registry.resolve(None) == 1
        assert registry.resolve(Config()) == 1
        assert registry.resolve(2.5) == 2.5
        assert registry.resolve("plain") == 1
        with pytest.raises(RegistryError, match="or an instance of float"):
            registry.resolve("plane")
