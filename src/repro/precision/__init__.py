"""Multi-precision storage/compute subsystem.

The cost model of this library is bytes-dominated (tall-skinny BLAS on
a GPU roofline), which makes storage precision the single biggest
bandwidth lever: fp32 storage halves, bf16 storage quarters, every
panel's charged traffic.  This package makes precision a first-class
policy threaded through the whole stack:

* :mod:`repro.precision.dtypes` — storage specs (``fp64``/``fp32``/
  ``bf16``-emulated/``dd``), word sizes, container dtypes, quantizers;
* :mod:`repro.precision.kernels` — mixed-precision orthogonalization:
  the dd-Gram BCGS-PIP pass and
  :class:`~repro.precision.kernels.MixedPrecisionTwoStageScheme`
  (imported lazily by consumers — not re-exported here, because it
  pulls in :mod:`repro.ortho` and this package must stay importable
  from the lowest layers).

Downstream: :class:`repro.distla.multivector.DistMultiVector` carries a
storage spec, both kernel engines accumulate reductions in fp64 over
low-precision shards (bit-identical loop/batched per dtype) and charge
bytes at the storage word size.  The solvers themselves run in fp64; a
dd-Gram orthogonalization reaches them as ``scheme=``.
"""

from repro.precision.dtypes import (
    ACCUMULATE_SPECS,
    GRAM_SPECS,
    container_dtype,
    eps,
    quantize,
    validate_storage,
    word_bytes,
)

__all__ = [
    "ACCUMULATE_SPECS",
    "GRAM_SPECS",
    "word_bytes",
    "container_dtype",
    "eps",
    "quantize",
    "validate_storage",
]
