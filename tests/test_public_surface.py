"""Three rules on the public surface, checked on the source tree.

* A :class:`~repro.krylov.options.SolverOptions` field is a knob some
  caller sets: at least one file outside ``tests/`` passes it by keyword
  to a ``SolverOptions(...)`` or ``.replace(...)`` call.  A value nobody
  varies is a constant of the module that reads it.
* An export alone is not API: every name in a ``repro`` package
  ``__all__`` has a reader outside ``tests/`` and outside the module
  that defines it.  A package ``__init__`` re-exporting the name does
  not read it.  The only exemptions are :data:`EXPORTED_FOR_TESTS`.
* A retired family stays retired: no file of the source, the docs, the
  README, the examples or the scripts names anything in :data:`RETIRED`.
"""

from __future__ import annotations

import ast
import dataclasses
from functools import cache
from pathlib import Path

import pytest

from repro.krylov.options import SolverOptions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "examples", "scripts", "perf", "benchmarks")

#: ``__all__`` names whose only readers are tests, each with its reason.
EXPORTED_FOR_TESTS = (
    ("list_schemes", "the tests enumerate every registered scheme with it"),
    ("representation_error", "the tests measure ||V - QR|| / ||V|| with it"),
)


#: Names no file under :data:`RETIRED_SCOPE` may contain again: those of
#: the low-precision storage layer (every vector is fp64, and no charge
#: carries a word size), then those of the nonblocking collectives and
#: the overlapped CA kernel (every collective is blocking).  A later
#: deletion appends its own.
RETIRED = (
    "storage=", "accumulate=", "quantize", "round_bf16", "STORAGE_SPECS",
    "ACCUMULATE_SPECS", "word_bytes",
    "ca_overlap", "post_allreduce", "post_ihalo", "overlapped",
    "CommRequest", "comm_overlap",
)
RETIRED_SCOPE = ("src", "docs", "README.md", "examples", "scripts")


def caller_files() -> list[Path]:
    return sorted(path for top in CALLER_DIRS
                  for path in (ROOT / top).rglob("*.py")
                  if "tests" not in path.relative_to(ROOT).parts)


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_file(module: str) -> Path:
    path = SRC.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def package_all(init: Path) -> list[str]:
    for node in parse(init).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def home(init: Path, name: str) -> Path:
    """The file defining ``name`` as package ``init`` exports it,
    followed through re-exports (a submodule is its own home)."""
    for node in parse(init).body:
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        for alias in node.names:
            if (alias.asname or alias.name) != name:
                continue
            sub = module_file(f"{node.module}.{alias.name}")
            if sub.exists():
                return sub
            origin = module_file(node.module)
            return (home(origin, alias.name)
                    if origin.name == "__init__.py" else origin)
    return init


@cache
def names_read(path: Path) -> frozenset[str]:
    """Identifiers ``path`` reads; an ``__init__``'s imports re-export."""
    reexport = path.name == "__init__.py"
    out = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexport:
            out.update((node.module or "").split("."))
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import) and not reexport:
            for alias in node.names:
                out.update(alias.name.split("."))
    return frozenset(out)


@cache
def options_passed() -> frozenset[str]:
    """Keywords some caller passes to ``SolverOptions(...)`` / ``.replace``."""
    passed = set()
    for path in caller_files():
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            if callee in ("SolverOptions", "replace"):
                passed.update(kw.arg for kw in node.keywords if kw.arg)
    return frozenset(passed)


def is_read(init: Path, name: str) -> bool:
    """Some caller outside ``name``'s defining module reads ``name``."""
    where = home(init, name)
    return any(name in names_read(path)
               for path in caller_files() if path != where)


PACKAGES = sorted(SRC.rglob("__init__.py"))


@pytest.mark.parametrize("field", [f.name for f in
                                   dataclasses.fields(SolverOptions)])
def test_every_solver_option_is_set_by_a_caller(field):
    assert field in options_passed()


@pytest.mark.parametrize(
    "init", PACKAGES,
    ids=[str(init.parent.relative_to(SRC)) for init in PACKAGES])
def test_every_export_has_a_reader(init):
    exempt = dict(EXPORTED_FOR_TESTS)
    unread = [name for name in package_all(init)
              if name not in exempt and not is_read(init, name)]
    assert unread == []


@pytest.mark.parametrize("name, reason", EXPORTED_FOR_TESTS,
                         ids=[name for name, _ in EXPORTED_FOR_TESTS])
def test_exemption_is_exported_unread_and_says_why(name, reason):
    assert reason.strip()
    homes = [init for init in PACKAGES if name in package_all(init)]
    assert homes, "an exemption that is not exported"
    assert not any(is_read(init, name) for init in homes), \
        "an exemption that has a reader"


def test_exemptions_are_listed_once():
    assert len(dict(EXPORTED_FOR_TESTS)) == len(EXPORTED_FOR_TESTS)


def test_no_file_names_a_retired_name():
    files = [path for top in RETIRED_SCOPE for path in (
        [ROOT / top] if (ROOT / top).is_file()
        else sorted((ROOT / top).rglob("*")))
        if path.is_file() and "__pycache__" not in path.parts]
    assert len(files) > 100
    named = [f"{path.relative_to(ROOT)}: {name}" for path in files
             for name in RETIRED
             if name in path.read_text(errors="replace")]
    assert named == []
