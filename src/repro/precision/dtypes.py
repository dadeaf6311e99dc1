"""Storage-precision specs: word sizes, container dtypes, quantizers.

The multi-precision subsystem describes precision with small string
*specs* rather than raw NumPy dtypes, because two of the interesting
precisions do not exist as native NumPy storage:

* ``"fp64"`` — IEEE binary64, the library's historical working
  precision (8-byte words).
* ``"fp32"`` — IEEE binary32 storage (4-byte words).  Stored in native
  ``float32`` containers; all reductions still accumulate in float64
  (see :mod:`repro.distla.engine`).
* ``"bf16"`` — bfloat16 *emulated by rounding*: values live on the
  bfloat16 grid (8-bit exponent, 8-bit significand) but are carried in
  ``float32`` containers, since NumPy has no native bfloat16.  Charged
  at 2 bytes per word — what the storage would cost on hardware that
  has it.
* ``"dd"`` — double-double compensated arithmetic
  (:mod:`repro.dd`): two float64 words per value, 16 bytes.  Never a
  multivector *storage* format here (the dd pair lives in small
  replicated host matrices), but a legal Gram spec of the
  mixed-precision CholQR trade (:mod:`repro.precision.kernels`).

This module is deliberately dependency-free (NumPy only) so the
lowest layers (:mod:`repro.distla.multivector`,
:mod:`repro.parallel.costmodel`) can import it without cycles.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

#: Specs a :class:`~repro.distla.multivector.DistMultiVector` may store.
STORAGE_SPECS = ("fp64", "fp32", "bf16")

#: Specs local kernels may accumulate in (the reduction tree itself is
#: always float64, see ``SimComm._fold``).
ACCUMULATE_SPECS = ("fp64", "fp32")

#: Specs a Gram matrix may be formed in.
GRAM_SPECS = ("fp64", "dd")

#: Bytes per stored word, the quantity the roofline cost model charges.
_WORD_BYTES = {"fp64": 8.0, "fp32": 4.0, "bf16": 2.0, "dd": 16.0}

#: NumPy container that carries each spec's values in memory.
_CONTAINERS = {"fp64": np.float64, "fp32": np.float32, "bf16": np.float32}

#: Unit roundoff of each spec (bf16: 8 significand bits incl. implicit).
_EPS = {
    "fp64": float(np.finfo(np.float64).eps),
    "fp32": float(np.finfo(np.float32).eps),
    "bf16": 2.0 ** -8,
    "dd": 2.0 ** -104,
}


def validate_storage(spec: str) -> str:
    """Return ``spec`` if it names a storage precision, else raise."""
    if spec not in STORAGE_SPECS:
        raise ConfigurationError(
            f"unknown storage precision {spec!r}; expected one of "
            f"{STORAGE_SPECS}")
    return spec


def word_bytes(spec: str) -> float:
    """Bytes one stored word of ``spec`` occupies (bf16 charges 2)."""
    try:
        return _WORD_BYTES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown precision spec {spec!r}; expected one of "
            f"{tuple(_WORD_BYTES)}") from None


def container_dtype(spec: str) -> np.dtype:
    """NumPy dtype that carries ``spec`` values (bf16 rides in float32)."""
    try:
        return np.dtype(_CONTAINERS[spec])
    except KeyError:
        raise ConfigurationError(
            f"no container dtype for precision spec {spec!r}") from None


def eps(spec: str) -> float:
    """Unit roundoff of ``spec`` (used for tolerance heuristics)."""
    try:
        return _EPS[spec]
    except KeyError:
        raise ConfigurationError(f"unknown precision spec {spec!r}") from None


def round_bf16(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest bfloat16 value (ties to even), as float32.

    Standard bit trick: a float32 truncated to its top 16 bits *is* a
    bfloat16; round-to-nearest-even adds ``0x7FFF`` plus the parity of
    the bit that will become the new LSB before truncating.  Infinities
    pass through (their low mantissa bits are zero); NaNs stay NaN
    (rounding a NaN payload may move it within the NaN space, which is
    fine).  Overflow to inf happens exactly where bfloat16 would
    overflow, since the exponent field is the same as float32's.  The
    result has the shape of ``arr`` (0-d included) and, for a
    column-major tile, its layout: nothing is made contiguous first.
    """
    with np.errstate(over="ignore"):  # overflow-to-inf is the semantics
        a32 = np.asarray(arr, dtype=np.float32)
    bits = a32.view(np.uint32)  # same itemsize: legal for any strides
    rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16))
                                          & np.uint32(1))
    rounded &= np.uint32(0xFFFF0000)
    # High-payload negative NaNs would wrap around uint32 during the
    # rounding add; keep NaN bit patterns as-is instead.
    rounded = np.where(np.isnan(a32), bits, rounded)
    return rounded.view(np.float32)


def quantize(arr: np.ndarray, spec: str) -> np.ndarray:
    """Round ``arr`` to ``spec``'s grid, in ``spec``'s container dtype.

    ``"fp64"`` and ``"fp32"`` are plain dtype conversions (no copy when
    the dtype already matches); ``"bf16"`` applies
    :func:`round_bf16`.
    """
    if spec == "fp64":
        return np.asarray(arr, dtype=np.float64)
    if spec == "fp32":
        return np.asarray(arr, dtype=np.float32)
    if spec == "bf16":
        return round_bf16(arr)
    raise ConfigurationError(f"cannot quantize to precision spec {spec!r}")
