"""Random-sketching subsystem for randomized block orthogonalization.

The paper's Section IX names random sketching as the way past the
CholQR stability cliff; this package makes it a first-class library
layer the distla engine, the ortho schemes, the s-step solver, and the
benchmarks all draw on:

* :mod:`repro.sketch.operators` — sparse-sign/CountSketch, Gaussian and
  SRHT subspace embeddings behind one :class:`SketchOperator` ABC, with
  deterministic seeding and embedding-size heuristics;
* :mod:`repro.sketch.distributed` — shard-local application through the
  ``loop``/``batched`` kernel engines (one allreduce, engine-identical
  results and charged costs);
* :mod:`repro.sketch.precondition` — sketch-QR whitening factors, the
  building block of randomized CholQR and the sketched inter-block
  schemes in :mod:`repro.ortho.randomized`.
"""

from repro.sketch.operators import (
    SketchOperator,
    canonical_family,
    make_operator,
    sketch_rows,
)
from repro.sketch.precondition import (
    right_apply_inverse,
    sketch_qr,
)
from repro.sketch.distributed import sketch_multivector
from repro.sketch.quality import leave_one_out_distortion
from repro.sketch.seeding import derive_seed

__all__ = [
    "SketchOperator",
    "canonical_family",
    "sketch_rows",
    "make_operator",
    "sketch_multivector",
    "sketch_qr",
    "right_apply_inverse",
    "derive_seed",
    "leave_one_out_distortion",
]
