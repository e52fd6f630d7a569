"""Every module under ``src/repro`` is reached from a front door.

A static walk of the package's imports, starting from what users run:
the CLI (``python -m repro``), the paper's experiment specs, the
service routes and its backend.  The walk follows every ``import`` in
a module (function-local ones too), the lazy ``_EXPORTS`` tables of
package ``__init__`` files, and the ``"module:attribute"`` built-ins
that registries resolve on first lookup.  A module it does not reach
is code no command, spec or route runs: delete it, or list it below
with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = (
    "repro.__main__",
    "repro.cli",
    "repro.api.specs",
    "repro.serve.service",
    "repro.serve.backend",
)

#: Modules no front door imports, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.core.adaptive": "nonstationary re-tuning; parked with market.dynamics",
    "repro.core.exhaustive": "brute-force optimum the allocation tests check against",
    "repro.core.quality": "quality-target repetition planning (raises PlanError)",
    "repro.exec.shard": "sharded replications for the exec tests and the perf bench",
    "repro.inference.probe": "market rate probing, paper section 3.3.1",
    "repro.market.dynamics": "nonstationary arrival rates; parked with core.adaptive",
    "repro.market.platform": "requester facade the engine and fault tests drive",
    "repro.serve.loadgen": "seeded load generator for the CI smoke and the bench",
    "repro.workloads.generators": "random instances for DP tests and the scaling bench",
}

_BUILTIN_PATH = re.compile(r"^(repro(?:\.\w+)+):\w+$")


def _path(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    package = base / "__init__.py"
    return package if package.exists() else base.with_suffix(".py")


def _is_module(module: str) -> bool:
    return _path(module).exists()


def _is_package(module: str) -> bool:
    return _path(module).name == "__init__.py"


def _exports(tree: ast.Module) -> dict:
    """The ``_EXPORTS`` table of a package ``__init__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _imports(module: str, tree: ast.Module, exports) -> set:
    """Every ``repro`` module that importing *module* may load."""
    package = module if _is_package(module) else module.rpartition(".")[0]
    found = set()

    def add_from(base: str, names) -> None:
        found.add(base)
        table = exports(base)
        for name in names:
            if _is_module(f"{base}.{name}"):
                found.add(f"{base}.{name}")
            elif table.get(name):
                found.add(f"{base}.{table[name]}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                base = f"{base}.{node.module}" if node.module else base
            elif (node.module or "").startswith("repro"):
                base = node.module
            else:
                continue
            add_from(base, [a.name for a in node.names])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _BUILTIN_PATH.match(node.value)
            if match:
                found.add(match.group(1))
    return found


def reached_modules() -> set:
    trees = {}

    def tree(module: str) -> ast.Module:
        if module not in trees:
            trees[module] = ast.parse(_path(module).read_text())
        return trees[module]

    def exports(package: str) -> dict:
        return _exports(tree(package)) if _is_package(package) else {}

    reached, frontier = set(), list(ROOTS)
    while frontier:
        module = frontier.pop()
        if module in reached or not _is_module(module):
            continue
        reached.add(module)
        parts = module.split(".")
        frontier.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        frontier.extend(_imports(module, tree(module), exports))
    return reached


def all_modules() -> set:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_reached_or_allowed():
    unreached = all_modules() - reached_modules()
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []


def test_allow_list_names_only_unreached_modules():
    allowed = set(ALLOWED_UNREACHED)
    assert sorted(allowed - all_modules()) == []
    assert sorted(allowed & reached_modules()) == []
