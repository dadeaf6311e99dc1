"""The docs/ site must track the code it documents.

Four structural guards: the experiment catalogue in docs/experiments.md
must list exactly the runner's registered subcommands (so adding an
experiment without documenting it — or documenting a renamed one — is
a tier-1 failure), every relative link in the markdown pages must
resolve (same check CI runs standalone via scripts/docs_lint.py), every
``repro-<name>`` command the pages tell a reader to type must be a
console script pyproject.toml declares, and the two sections describing
the communicator may name only collectives the ``Communicator`` protocol
declares.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
PAGES = ("architecture.md", "cost-model.md", "solvers.md",
         "experiments.md", "observability.md")


class TestExperimentsCatalogue:
    def _documented_names(self) -> set[str]:
        text = (DOCS / "experiments.md").read_text()
        return set(re.findall(r"^### `([a-z0-9_]+)`", text, re.MULTILINE))

    def test_catalogue_matches_runner_registry(self):
        """docs/experiments.md has exactly one ### entry per registered
        subcommand, plus the synthetic ``all``."""
        from repro.experiments import runner
        documented = self._documented_names()
        registered = set(runner.REGISTRY) | {"all"}
        missing = registered - documented
        stale = documented - registered
        assert not missing, f"undocumented experiments: {sorted(missing)}"
        assert stale == set(), f"stale docs entries: {sorted(stale)}"

    def test_catalogue_is_nontrivial(self):
        """Every entry carries prose, not just a heading."""
        text = (DOCS / "experiments.md").read_text()
        names = re.findall(r"^### `([a-z0-9_]+)`", text, re.MULTILINE)
        blocks = re.split(r"^### `[a-z0-9_]+`$", text, flags=re.MULTILINE)
        assert len(blocks) == len(names) + 1
        for name, body in zip(names, blocks[1:]):
            assert len(body.strip()) > 40, f"empty docs entry for {name}"


class TestDocsSite:
    def test_pages_exist(self):
        for page in PAGES:
            assert (DOCS / page).is_file(), f"docs/{page} missing"

    def test_readme_links_every_page(self):
        readme = (REPO / "README.md").read_text()
        for page in PAGES:
            assert f"docs/{page}" in readme, (
                f"README.md does not link docs/{page}")

    def test_docs_lint_passes(self):
        """The standalone CI linter agrees the links are alive."""
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "docs_lint.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestConsoleScripts:
    #: ``repro-name`` standing alone (not ``repro-bench-artifact/1``)
    COMMAND = re.compile(r"\brepro-[a-z]+\b(?![-/])")

    def _declared(self) -> dict[str, str]:
        pyproject = (REPO / "pyproject.toml").read_text()
        section = pyproject.split("[project.scripts]")[1].split("\n[")[0]
        return dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', section,
                               re.MULTILINE))

    def test_every_documented_command_is_declared(self):
        declared = set(self._declared())
        for path in (REPO / "README.md", *sorted(DOCS.glob("*.md"))):
            mentioned = set(self.COMMAND.findall(path.read_text()))
            assert mentioned <= declared, (
                f"{path.name} names {sorted(mentioned - declared)}, which "
                f"pyproject.toml [project.scripts] does not declare")

    def test_every_declared_script_resolves(self):
        from importlib import import_module
        for name, target in self._declared().items():
            module, _, attr = target.partition(":")
            assert callable(getattr(import_module(module), attr)), name


class TestCommunicatorSections:
    """The protocol paragraphs must not name collectives that do not
    exist (they once said ``stacked_allreduce_sum``)."""

    SECTIONS = (("architecture.md", "## The Communicator protocol"),
                ("cost-model.md", "## Overlap windows"))
    #: A backticked ``name``, ``name(...)`` or ``comm.name(...)`` whose
    #: name carries a collective's stem is a communicator call.
    CALL = re.compile(
        r"`(?:comm\.)?(\w*(?:allreduce|bcast|halo|wait)\w*)(?:\([^`]*\))?`")

    @staticmethod
    def _section(page: str, heading: str) -> str:
        text = (DOCS / page).read_text()
        start = text.index(heading + "\n")
        end = text.find("\n## ", start + len(heading))
        return text[start:end if end != -1 else len(text)]

    def test_every_named_call_is_on_the_protocol(self):
        from repro.parallel.api import Communicator
        for page, heading in self.SECTIONS:
            names = set(self.CALL.findall(self._section(page, heading)))
            assert names, f"no communicator call named in {page} {heading!r}"
            stale = sorted(n for n in names if not hasattr(Communicator, n))
            assert not stale, (
                f"docs/{page} {heading!r} names {stale}, which the "
                f"Communicator protocol does not declare")
