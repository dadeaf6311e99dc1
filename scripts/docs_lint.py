#!/usr/bin/env python
"""Docs lint: no dead relative links in the repo's markdown pages, and no
page named that does not exist.

Scans README.md and docs/*.md for markdown links, resolves every
relative target against the linking file's directory, and fails (exit 1)
listing each target that does not exist.  Fragments are checked too:
``page.md#some-heading`` must match a GitHub-style slug of a heading in
the target page.  External links (http/https/mailto) are ignored — this
is a structural check, not a crawler.  Every ``NAME.md`` those pages or
a module under src/ mention in passing (a docstring's "see DESIGN.md")
must exist at the repository root or under docs/.

Runs standalone in CI (a non-pytest tier-1 step), so a docs rename can
never leave silently broken cross-references behind.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")
#: a ``NAME.md`` mention, any directory prefix left out of the name
_MD_NAME = re.compile(r"[\w.-]+\.md\b")


def _slug(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation, dashes."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(md_path: Path) -> set[str]:
    return {_slug(h) for h in _HEADING.findall(md_path.read_text())}


def lint_file(md_path: Path) -> list[str]:
    """Return human-readable problems for one markdown file."""
    problems = []
    for target in _LINK.findall(md_path.read_text()):
        if target.startswith(_EXTERNAL):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-page anchor
            if fragment and _slug(fragment) not in _anchors(md_path):
                problems.append(f"{md_path.name}: dead anchor #{fragment}")
            continue
        resolved = (md_path.parent / path_part).resolve()
        if not resolved.exists():
            problems.append(f"{md_path.name}: dead link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if _slug(fragment) not in _anchors(resolved):
                problems.append(
                    f"{md_path.name}: dead anchor -> {target}")
    return problems


def lint_mentions(path: Path) -> list[str]:
    """Return a problem per ``NAME.md`` that ``path`` names and that exists
    neither at the repository root nor under docs/."""
    return [f"{path.relative_to(REPO)}: names {name}, which does not exist"
            for name in sorted(set(_MD_NAME.findall(path.read_text())))
            if not ((REPO / name).exists() or (REPO / "docs" / name).exists())]


def main() -> int:
    pages = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    problems = []
    for page in pages:
        problems.extend(lint_file(page))
    for path in (*pages, *sorted((REPO / "src").rglob("*.py"))):
        problems.extend(lint_mentions(path))
    for problem in problems:
        print(f"docs-lint: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs-lint: {len(pages)} pages clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
