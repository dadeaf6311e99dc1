"""Paper-reproduction experiment harness.

One module per table/figure of the paper (docs/experiments.md is the
experiment index).  Each module exposes ``run(...) -> ExperimentTable``
plus a ``main()`` for the CLI (``repro-experiments <name>``);
``tests/experiments/test_paper_claims.py`` asserts the paper's claims on
the same entry points.
"""

from repro.experiments.common import ExperimentTable, resolve_machine
from repro.experiments.estimator import CycleCostEstimator, ProblemShape

__all__ = [
    "ExperimentTable",
    "resolve_machine",
    "CycleCostEstimator",
    "ProblemShape",
]
