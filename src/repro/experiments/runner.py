"""The one CLI of the experiments: ``repro-experiments NAME [--quick] [--out DIR]``.

``NAME`` is a key of :data:`REGISTRY` (the paper's artifacts and this
reproduction's studies) or ``all``.  The runner prints every table the
entry's runs return and writes every file a table carries
(:attr:`ExperimentTable.files`) under ``--out`` (default ``.``).
``--quick`` runs each at its module's ``QUICK`` size; ``all`` runs every
entry that way, in paper order.  Any other size is set through the
module's ``run(**kw)``.
"""

from __future__ import annotations

import argparse
from functools import partial

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
    rgs_convergence,
    service_throughput,
    sketch_stability,
    table2,
    table3,
    table4,
)


def _module(mod) -> list:
    """A module's ``run`` at its ``QUICK`` size (its defaults if none)."""
    return [(mod.run, getattr(mod, "QUICK", {}))]


#: name -> its runs, each ``(run, quick kwargs)``, in print order; a run
#: whose quick kwargs are ``None`` is made at full size only
REGISTRY = {
    "fig6": _module(fig6),
    "fig7": _module(fig7),
    "fig8": _module(fig8),
    "fig9": _module(fig9),
    "table2": _module(table2),
    "table3": _module(table3),
    **{fig: [(partial(fig10_12.run, fig), {})] for fig in fig10_12.SCHEMES},
    "table4": _module(table4),
    "fig13": _module(fig13),
    "ablations": [(run, ablations.QUICK.get(key, {}))
                  for key, run in ablations.RUNS.items()],
    "sketch": _module(sketch_stability),
    "rgs": _module(rgs_convergence),
    "ca_mpk": _module(ca_mpk_tradeoff) + [
        (partial(ca_mpk_tradeoff.run, precond_name=pc), None)
        for pc in ("jacobi", "block_jacobi")],
    "service": _module(service_throughput),
    "backend": _module(backend_validation),
    "calibrate": _module(calibration),
}


def tables(name: str, quick: bool = False):
    """Every table entry ``name`` prints, in order."""
    quick = quick or name == "all"
    for key in REGISTRY if name == "all" else [name]:
        for run, sizes in REGISTRY[key]:
            if quick and sizes is None:
                continue
            out = run(**sizes) if quick else run()
            yield from out if isinstance(out, list) else [out]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro-experiments", description=__doc__)
    p.add_argument("name", choices=[*REGISTRY, "all"])
    p.add_argument("--quick", action="store_true",
                   help="run at each module's QUICK size")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory for the files a run writes (default: .)")
    return p


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    for table in tables(args.name, args.quick):
        print(table.render() + "\n")
        for path in table.write_files(args.out):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
