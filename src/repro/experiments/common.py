"""Shared experiment plumbing: result tables, machine resolution."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.parallel.machine import PRESETS, MachineSpec
from repro.utils.formatting import render_table


@dataclass
class ExperimentTable:
    """A paper artifact reproduction: rows + provenance notes.

    ``rows`` are printable cell lists matching ``headers``; ``notes``
    explain substitutions (reduced scale, surrogate matrices, modeled
    times) so the printed output is self-describing.  ``files`` maps a
    file name to the text the run produced for it (``BENCH_*.json``
    artifacts, traces); ``repro-experiments`` writes them under ``--out``.
    """

    experiment_id: str
    title: str
    headers: list
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        out = render_table(self.headers, self.rows,
                           title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out

    def cell(self, row: int, col: int):
        return self.rows[row][col]

    def column(self, col: int) -> list:
        return [row[col] for row in self.rows]

    def write_files(self, out) -> list[Path]:
        """Write every entry of ``files`` under directory ``out``."""
        paths = []
        for name, text in self.files.items():
            path = Path(out) / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            paths.append(path)
        return paths


def resolve_machine(name: str | MachineSpec) -> MachineSpec:
    """Machine preset lookup for CLI/benchmark parameters."""
    if isinstance(name, MachineSpec):
        return name
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; presets: {', '.join(PRESETS)}"
        ) from None


def fmt(x: float, digits: int = 3) -> str:
    """Compact scientific/decimal formatting for table cells."""
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.{digits}e}"
    return f"{x:.{digits}g}"


def speedup(base: float, new: float) -> str:
    """Render a 'Nx' speedup cell like the paper's tables."""
    if new <= 0:
        return "-"
    return f"{base / new:.1f}x"
