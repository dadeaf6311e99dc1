"""Precision policies: one object naming the three precision knobs.

A :class:`PrecisionPolicy` bundles the precisions a solver run uses:

* ``storage`` — what the distributed multivectors (the Krylov basis,
  the panels every orthogonalization kernel streams) are stored in.
  This is the bandwidth lever: the cost model charges local kernels by
  bytes moved, and fp32/bf16 storage halves/quarters every panel's
  byte traffic (see :func:`repro.parallel.costmodel.bytes_per_word`).
* ``accumulate`` — what shard-local reduction kernels (Gram /
  projection GEMMs, column norms) accumulate partial results in before
  the (always-float64) reduction tree combines them.  ``"fp64"`` is
  the safe default the backward-stability analyses assume
  (arXiv:2409.03079): low-precision *storage* with high-precision
  *accumulation*.
* ``gram`` — what the Gram matrix is formed in by the mixed-precision
  orthogonalization schemes (:mod:`repro.precision.kernels`): plain
  ``"fp64"``, deliberately degraded ``"fp32"`` (for studying the
  cliff), or ``"dd"`` double-double compensation, which pushes the
  CholQR breakdown from ``kappa ~ eps^-1/2`` to ``kappa ~ eps^-1``
  (the mixed-precision CholQR of the paper's ref. [26]).

Policies are frozen and hashable; resolve one from a name with
:func:`resolve_policy` — every ``precision=`` argument in the library
accepts a policy instance, a registered name, or ``None`` (fp64).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.precision import dtypes


@dataclass(frozen=True)
class PrecisionPolicy:
    """Storage / accumulate / Gram precision triple (validated)."""

    name: str
    storage: str = "fp64"
    accumulate: str = "fp64"
    gram: str = "fp64"

    def __post_init__(self) -> None:
        dtypes.validate_storage(self.storage)
        if self.accumulate not in dtypes.ACCUMULATE_SPECS:
            raise ConfigurationError(
                f"unknown accumulate precision {self.accumulate!r}; "
                f"expected one of {dtypes.ACCUMULATE_SPECS}")
        if self.gram not in dtypes.GRAM_SPECS:
            raise ConfigurationError(
                f"unknown gram precision {self.gram!r}; expected one of "
                f"{dtypes.GRAM_SPECS}")

    # ------------------------------------------------------------------
    @property
    def storage_word_bytes(self) -> float:
        """Bytes per stored basis word (what panel traffic is charged at)."""
        return dtypes.word_bytes(self.storage)

    @property
    def storage_eps(self) -> float:
        """Unit roundoff of the storage format (tolerance heuristics)."""
        return dtypes.eps(self.storage)

    @property
    def is_default(self) -> bool:
        """True when the policy is all-fp64 (the historical behavior)."""
        return (self.storage == "fp64" and self.accumulate == "fp64"
                and self.gram == "fp64")

    def __str__(self) -> str:
        return (f"{self.name}(storage={self.storage}, "
                f"accumulate={self.accumulate}, gram={self.gram})")


#: Registered policies, selectable by name everywhere ``precision=`` is
#: accepted.  The names spell the storage format first; suffixes name a
#: non-default Gram precision.
POLICIES: dict[str, PrecisionPolicy] = {
    "fp64": PrecisionPolicy("fp64"),
    "fp32": PrecisionPolicy("fp32", storage="fp32"),
    "bf16": PrecisionPolicy("bf16", storage="bf16"),
    # dd-compensated Gram over fp64 storage: the mixed-precision CholQR
    # configuration of the paper's ref. [26].
    "fp64_dd_gram": PrecisionPolicy("fp64_dd_gram", gram="dd"),
    # the headline mixed-precision configuration: half-width storage,
    # fp64 accumulation, dd Gram for the breakdown-prone factorizations.
    "fp32_dd_gram": PrecisionPolicy("fp32_dd_gram", storage="fp32",
                                    gram="dd"),
    # native low-precision accumulation (for studying what fp64
    # accumulation buys — not a recommended production setting).
    "fp32_native": PrecisionPolicy("fp32_native", storage="fp32",
                                   accumulate="fp32"),
}


def resolve_policy(precision: "PrecisionPolicy | str | None"
                   ) -> PrecisionPolicy:
    """Resolve a ``precision=`` argument to a :class:`PrecisionPolicy`.

    Accepts a policy instance (returned as-is), a registered name from
    :data:`POLICIES` (case-insensitive, ``-``/``_`` interchangeable),
    or ``None`` (the all-fp64 default).
    """
    if precision is None:
        return POLICIES["fp64"]
    if isinstance(precision, PrecisionPolicy):
        return precision
    key = str(precision).strip().lower().replace("-", "_")
    try:
        return POLICIES[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown precision policy {precision!r}; expected one of "
            f"{sorted(POLICIES)} or a PrecisionPolicy instance") from None
