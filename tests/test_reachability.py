"""Every module under ``src/repro`` is reached by something the
reproduction runs.

The roots are the command line (``repro.cli``, ``repro.__main__``), the
examples and the benchmarks.  From them the imports are followed with
``ast`` — lazy imports inside functions included — and ``from pkg
import Name`` resolves through package ``__init__`` re-exports to the
module that defines ``Name``.  A re-export alone reaches nothing: a
module that only its package's ``__init__`` imports is run by nothing.

The only modules allowed to stay unreached are the cross-checks:
reference models that a test checks the fluid simulator against.  Each
is named with that test.  Nothing here imports the code it inspects or
starts a process.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Unreached module -> the test that checks the simulator against it.
CROSS_CHECKS = {
    "repro.network.congestion": (
        "tests/test_integration.py::TestPaperClaimP2P"
        "::test_congestion_bound_close_to_simulated"
    ),
    "repro.network.packetsim": "tests/test_integration.py::TestPacketFluidAgreement",
    "repro.network.fifo": "tests/test_integration.py::TestPacketFluidAgreement",
    "repro.network.packet": "tests/test_integration.py::TestPacketFluidAgreement",
}


def _module_files() -> "dict[str, Path]":
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


MODULES = _module_files()
PACKAGES = {m for m, p in MODULES.items() if p.name == "__init__.py"}


def _imports(path: Path, package: str):
    """``(module, names)`` of every import in a file; ``names`` is
    ``None`` for ``import module`` and ``[(name, alias)]`` otherwise."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module, [(a.name, a.asname or a.name) for a in node.names]


#: package -> {exported name: (module it is imported from, its name there)}
REEXPORTS = {
    pkg: {
        alias: (module, name)
        for module, names in _imports(MODULES[pkg], pkg)
        for name, alias in names or ()
    }
    for pkg in PACKAGES
}


def _defining_module(module: str, name: str) -> str:
    """The module ``from module import name`` really uses."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in REEXPORTS and name in REEXPORTS[module]:
        return _defining_module(*REEXPORTS[module][name])
    return module


def _uses(path: Path, package: str) -> "set[str]":
    """The ``repro`` modules one file imports from."""
    out = set()
    for module, names in _imports(path, package):
        if names is None:
            out.add(module)
        else:
            out.update(_defining_module(module, name) for name, _ in names)
    return {m for m in out if m in MODULES}


def _closure(roots: "set[str]") -> "set[str]":
    """Every module reached from ``roots``.  Importing a module runs its
    parent packages' ``__init__``, but their re-exports are not walked."""
    reached: "set[str]" = set()
    todo = list(roots)
    while todo:
        m = todo.pop()
        if m in reached:
            continue
        reached.add(m)
        parent = m.rpartition(".")[0]
        while parent:
            reached.add(parent)
            parent = parent.rpartition(".")[0]
        if m not in PACKAGES:
            package = m.rpartition(".")[0]
            todo.extend(_uses(MODULES[m], package))
    return reached


def _reached() -> "set[str]":
    roots = {"repro.cli", "repro.__main__"}
    scripts = [*(REPO / "examples").glob("*.py"), *(REPO / "benchmarks").rglob("*.py")]
    for path in scripts:
        roots |= _uses(path, "")
    return _closure(roots)


def test_every_module_is_reached():
    unreached = sorted(MODULES.keys() - _reached() - CROSS_CHECKS.keys())
    assert not unreached, (
        "modules that no CLI command, example or benchmark reaches "
        "(delete them, or name the test they are a cross-check for): "
        + ", ".join(unreached)
    )


def test_cross_checks_are_unreached_and_imported_by_their_test():
    reached = _reached()
    for module, test_id in CROSS_CHECKS.items():
        assert module in MODULES, f"{module} no longer exists"
        assert module not in reached, f"{module} is reached; drop it from CROSS_CHECKS"
        path, *qualname = test_id.split("::")
        tree = ast.parse((REPO / path).read_text())
        defined = {
            n.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.ClassDef, ast.FunctionDef))
        }
        assert set(qualname) <= defined, f"{test_id} does not exist"
        assert module in _closure(_uses(REPO / path, "")), (
            f"{path} does not import {module}"
        )
