"""Distributed sketch application over :class:`DistMultiVector` shards.

``S @ V`` decomposes over a row partition as the sum of shard-local
products ``S[:, rows_r] @ V_r`` (see :mod:`repro.sketch.operators`), so
the distributed application is: every rank sketches its own shard with
no communication, then the ``(m_rows, k)`` partials meet in ONE
allreduce — the same single-synchronization pattern as a block dot
product, and the reason randomized orthogonalization fits the paper's
communication-avoiding setting.

Execution goes through the :mod:`repro.distla.engine` kernel engine the
multivector's communicator is bound to: ``batched`` hands the operator's
batched kernel one ``(ranks, rows, k)`` view of the flat storage per run
of equal-count ranks (any partition) and reduces with the stacked
(vectorized, bit-identical) tree; ``loop``, the reference, applies the
operator shard by shard.  Both charge identical modeled costs, so
artifacts never depend on the engine.
"""

from __future__ import annotations

import numpy as np

from repro.distla import engine as dengine
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.sketch.operators import SketchOperator


def sketch_multivector(v: DistMultiVector, op: SketchOperator
                       ) -> np.ndarray:
    """Global sketch ``S @ V`` — shard-local partials + one allreduce.

    Returns the ``(m_rows, k)`` sketch, replicated on every rank like
    any other reduction result.
    """
    if op.n_rows != v.n_global:
        raise ShapeError(
            f"operator sketches {op.n_rows} rows but multivector has "
            f"{v.n_global}")
    return dengine.resolve(v.comm).sketch_apply(v, op)
