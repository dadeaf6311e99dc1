"""Paper-reproduction experiment harness.

One module per table/figure of the paper (docs/experiments.md is the
experiment index).  Each module exposes ``run(...)`` returning an
``ExperimentTable`` or a list of them; ``runner.REGISTRY`` names them
for the one CLI (``repro-experiments <name>``), and
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
