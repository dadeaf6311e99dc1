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


def run_all_quick() -> None:
    """Quick pass over every artifact (reduced sizes), in paper order."""
    print(fig6.run(n=20_000, seeds=3).render(), "\n")
    print(fig7.run(n=10_000, seeds=3).render(), "\n")
    print(fig8.run(n=20_000).render(), "\n")
    print(fig9.run(run_n=5_000).render(), "\n")
    print(table2.run(measure_nx=64).render(), "\n")
    print(table3.run().render(), "\n")
    for t in fig10_12.run_all():
        print(t.render(), "\n")
    print(table4.run().render(), "\n")
    print(fig13.run().render(), "\n")
    print(ablations.run_sync_vs_reuse().render(), "\n")
    print(ablations.run_bs_grid().render(), "\n")
    print(ablations.run_basis_conditioning(nx=24).render(), "\n")
    print(ablations.run_step_size_cliff(n=5000).render(), "\n")
    print(ablations.run_intra_kernels(n=20000).render(), "\n")
    print(ablations.run_step_strategies(nx=32).render(), "\n")
    print(sketch_stability.run(n=2000).render(), "\n")
    print(rgs_convergence.run(n=250, maxiter=800).render(), "\n")
    for t in precision_stability.run(n=1500, nx=20, maxiter=3000):
        print(t.render(), "\n")
    print(ca_mpk_tradeoff.run(nx=24, ranks=8).render(), "\n")
    print(overlap_tradeoff.run(
        nx=48, ranks=8, s=5, restart=15, bw_inter=1.0e6,
        multipliers=overlap_tradeoff.LATENCY_MULTIPLIERS[:-1])[0].render(),
        "\n")
    print(service_throughput.run(nx=12, ranks=4, s=4, restart=12)[0]
          .render(), "\n")
    print(backend_validation.run(nx=24, restart=12, repeats=1)[0].render(),
          "\n")
    print(calibration.run(nx=24, restart=12)[0].render(), "\n")


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
