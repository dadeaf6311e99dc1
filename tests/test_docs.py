"""The docs/ site must track the code it documents.

Structural guards: the experiment catalogue in docs/experiments.md
must list exactly the runner's registered subcommands (so adding an
experiment without documenting it — or documenting a renamed one — is
a tier-1 failure), every relative link in the markdown pages must
resolve (same check CI runs standalone via scripts/docs_lint.py), every
``repro-<name>`` command the pages tell a reader to type must be a
console script pyproject.toml declares, and the two sections describing
the communicator may name only collectives the ``Communicator`` protocol
declares.  The README must name exactly the ``SolverOptions`` knobs
there are and exactly the experiments the nightly CI job smoke-runs.
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
README = REPO / "README.md"
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
                ("cost-model.md", "## Collectives"))
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


class TestReadmeTracksTheCode:
    #: a parenthesized list of backticked names: ``(`a`, `b` and `c`)``
    NAME_LIST = re.compile(r"\(((?:`\w+`,\s*)+(?:and\s+)?`\w+`)\)")

    def test_solver_knobs_are_the_options_fields(self):
        """Every list of names in the README that names a
        ``SolverOptions`` field names every field and nothing else."""
        from repro.krylov.options import SolverOptions
        fields = {f.name for f in dataclasses.fields(SolverOptions)}
        lists = [set(re.findall(r"`(\w+)`", found))
                 for found in self.NAME_LIST.findall(README.read_text())]
        knobs = [names for names in lists if names & fields]
        assert knobs, "README names no SolverOptions knob"
        assert all(names == fields for names in knobs), knobs

    def test_nightly_smokes_are_the_ones_ci_runs(self):
        """The README's nightly bullet names, as bare backticked words,
        exactly the ``repro.experiments.runner <name>`` runs of the
        workflow's nightly job."""
        readme = README.read_text()
        start = readme.index("* **nightly**")
        # the bullet ends at the next bullet or the blank line after it
        end = re.search(r"\n(?:\* |\n)", readme[start:])
        bullet = readme[start:start + end.start() if end else len(readme)]
        documented = set(re.findall(r"`([a-z_0-9]+)`", bullet))
        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = workflow[workflow.index("\n  nightly:\n"):]
        following = re.search(r"\n  [\w-]+:\n", job[1:])
        job = job[:following.start() + 1] if following else job
        ran = set(re.findall(r"repro\.experiments\.runner ([a-z_0-9]+)",
                             job))
        assert ran, "the nightly job runs no experiment"
        assert documented == ran
