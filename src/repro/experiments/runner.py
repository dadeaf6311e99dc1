"""CLI dispatcher: ``repro-experiments <name> [args...]``.

Names mirror the paper artifacts: fig6 fig7 fig8 fig9 table2 table3
fig10 fig11 fig12 table4 fig13 ablations, plus ``all`` (quick versions
of everything).
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablations,
    backend_validation,
    ca_mpk_tradeoff,
    calibration,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10_12,
    fig13,
    overlap_tradeoff,
    precision_stability,
    rgs_convergence,
    service_throughput,
    sketch_stability,
    table2,
    table3,
    table4,
)

_DISPATCH = {
    "fig6": fig6.main,
    "fig7": fig7.main,
    "fig8": fig8.main,
    "fig9": fig9.main,
    "table2": table2.main,
    "table3": table3.main,
    "fig10": lambda argv: fig10_12.main(["fig10"] + (argv or [])),
    "fig11": lambda argv: fig10_12.main(["fig11"] + (argv or [])),
    "fig12": lambda argv: fig10_12.main(["fig12"] + (argv or [])),
    "table4": table4.main,
    "fig13": fig13.main,
    "ablations": ablations.main,
    "sketch": sketch_stability.main,
    "rgs": rgs_convergence.main,
    "precision": precision_stability.main,
    "ca_mpk": ca_mpk_tradeoff.main,
    "overlap": overlap_tradeoff.main,
    "service": service_throughput.main,
    "backend": backend_validation.main,
    "calibrate": calibration.main,
}


def _quick_tables():
    """Every artifact at its module's own ``QUICK`` size, in paper order."""
    for mod in (fig6, fig7, fig8, fig9, table2):
        yield mod.run(**mod.QUICK)
    yield table3.run()
    yield from fig10_12.run_all()
    yield table4.run()
    yield fig13.run()
    for key, run in ablations.RUNS.items():
        yield run(**ablations.QUICK.get(key, {}))
    for mod in (sketch_stability, rgs_convergence):
        yield mod.run(**mod.QUICK)
    yield from precision_stability.run(**precision_stability.QUICK)
    yield ca_mpk_tradeoff.run(**ca_mpk_tradeoff.QUICK)
    for mod in (overlap_tradeoff, service_throughput, backend_validation,
                calibration):
        yield mod.run(**mod.QUICK)[0]   # (table, artifact, ...)


def run_all_quick() -> None:
    """Quick pass over every artifact (reduced sizes), in paper order."""
    for table in _quick_tables():
        print(table.render(), "\n")


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = " ".join(sorted(_DISPATCH) + ["all"])
        print(f"usage: repro-experiments <name> [options]\nnames: {names}")
        return 0
    name, rest = argv[0], argv[1:]
    if name == "all":
        run_all_quick()
        return 0
    if name not in _DISPATCH:
        print(f"unknown experiment {name!r}; try --help")
        return 2
    _DISPATCH[name](rest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
