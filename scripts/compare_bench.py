#!/usr/bin/env python
"""Gate CI on loop-vs-batched ratios inside one ``BENCH_*.json`` artifact.

``--check-speedup NAME[:RATIO]``: ``NAME[batched]`` must be at least
``RATIO`` (default ``--min-speedup``, 1.5x) faster than ``NAME[loop]``,
min of rounds — the engine claim this repo's CI enforces on
``test_block_dot`` and ``test_block_axpy`` and, with a ratio of their
own, on the ragged-partition benches (``test_block_dot_ragged:1.5``,
...).  Both legs come from one run on one machine, so the ratio is
portable where absolute seconds are not; host seconds are measured by
``perf/run.py``, not compared across artifacts here.

An artifact that is *missing* an entry referenced by ``--check-speedup``
is a configuration error, not a failed gate — the benchmark was renamed
or never ran, and silently "failing" (or worse, passing) would hide
that.  It exits with status 2 and a message naming the file and every
missing entry.

Exit status 0 when all gates pass, 1 when a gate fails, 2 on a
hard configuration error.  Example::

    python scripts/compare_bench.py bench-out/BENCH_kernels.json \
        --check-speedup test_block_dot --check-speedup test_block_axpy \
        --check-speedup test_trsm_ragged:1.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.artifacts import load_artifact  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="the BENCH_*.json to gate")
    parser.add_argument("--check-speedup", action="append", required=True,
                        metavar="NAME[:RATIO]",
                        help="require NAME[batched] >= RATIO x faster than "
                        "NAME[loop]; RATIO defaults to --min-speedup "
                        "(repeatable)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required batched-vs-loop speedup of a "
                        "--check-speedup without its own RATIO (default: 1.5)")
    args = parser.parse_args(argv)
    gates = []
    for spec in args.check_speedup:
        name, _, ratio = spec.partition(":")
        try:
            gates.append((name, float(ratio) if ratio else args.min_speedup))
        except ValueError:
            parser.error(f"--check-speedup {spec!r}: RATIO is not a number")

    artifact = load_artifact(args.artifact)
    have = set(artifact.names())
    missing = [entry for name, _ in gates
               for entry in (f"{name}[loop]", f"{name}[batched]")
               if entry not in have]
    if missing:
        # Hard error, not a failed gate: the artifact cannot answer
        # the question it is being asked (renamed/never-ran bench).
        print(f"ERROR: {args.artifact} is missing "
              f"{len(missing)} entr{'y' if len(missing) == 1 else 'ies'} "
              f"required by --check-speedup: {', '.join(missing)}")
        print("(benchmark renamed or did not run; fix the bench "
              "invocation or the --check-speedup names)")
        return 2

    failed = False
    for name, required in gates:
        speedup = artifact.speedup(f"{name}[loop]", f"{name}[batched]")
        ok = speedup >= required
        tag = "ok" if ok else "TOO SLOW"
        print(f"speedup {tag}: {name} batched is {speedup:.2f}x vs loop "
              f"(required {required:.2f}x)")
        failed = failed or not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
