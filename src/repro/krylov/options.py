"""Solver configuration: :class:`SolverOptions` and its mode constants.

The behaviour knobs of the solvers that a caller actually sets —
``solve_mode`` and ``mpk_mode`` — travel in one immutable
:class:`SolverOptions` value::

    opts = SolverOptions(solve_mode="sketched", mpk_mode="ca")
    result = sstep_gmres(sim, b, s=5, restart=30, options=opts)

``options=`` is the only way in (a knob passed as a bare keyword is
Python's own ``TypeError``); structural parameters that shape the
iteration itself (``s``, ``restart``, ``tol``, ``maxiter``, ``scheme``,
``basis``, ``precond``, ``observer``) stay first-class arguments.  A
knob exists when two non-test callers need different values; the
sketched solve's embedding family, size, seed and redraw threshold are
constants of :mod:`repro.krylov.sstep_gmres`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Valid ``solve_mode`` values.
SOLVE_MODES = ("classical", "sketched")

#: Valid ``mpk_mode`` values: the two kernel modes plus ``"auto"``
#: (whichever of ``"standard"`` and, when the preconditioner composes,
#: ``"ca"`` prices cheaper for one restart cycle; see
#: :func:`repro.krylov.mpk.resolve_mpk_mode`).
MPK_SOLVER_MODES = ("standard", "ca", "auto")


@dataclass(frozen=True)
class SolverOptions:
    """Immutable bundle of :func:`sstep_gmres` behaviour knobs.

    Every field is checked when the options are built, before a solve
    charges anything: a bad value raises ``ConfigurationError`` naming
    its field.

    Parameters
    ----------
    solve_mode:
        ``"classical"`` minimizes the coordinate least-squares problem
        ``||gamma R e1 - H y||`` — correct while the basis is
        orthonormal.  ``"sketched"`` maintains a sketched basis ``S V``
        alongside the full one and minimizes the *embedded* residual
        ``||S V (rhs - H y)||`` instead (randomized GMRES à la RGS):
        valid for any numerically full-rank basis, e.g. the
        sketch-orthonormal one produced by
        :class:`~repro.ortho.randomized.SketchedTwoStageScheme` with
        ``fused=True``.  The sketched path also emits residual-gap /
        basis-condition diagnostics into ``SolveResult.diagnostics``
        and redraws its embedding when the leave-one-out distortion
        estimate crosses
        :data:`~repro.krylov.sstep_gmres.DEFAULT_RESKETCH_THRESHOLD`.
    mpk_mode:
        How the matrix powers kernel communicates: ``"standard"`` (one
        halo exchange per basis column — the paper's and Trilinos'
        setting), ``"ca"`` (ghost-zone communication-avoiding kernel:
        ONE aggregated deep-halo exchange per s-panel, redundant local
        work on a shrinking ghost region; raises
        :class:`~repro.exceptions.ConfigurationError` when the
        preconditioner has no finite ghost closure), or ``"auto"``
        (whichever of ``"standard"`` and — when the preconditioner
        composes — ``"ca"`` the cost model prices cheaper for one
        restart cycle of the solve's panels, a tie keeping ``"ca"``;
        pricing charges nothing, and a machine that prices a kernel at
        ``inf`` or NaN is a
        :class:`~repro.exceptions.ConfigurationError`).
        All kernels generate bit-identical bases; only the
        communication profile — and hence the modeled time — differs.
    """

    solve_mode: str = "classical"
    mpk_mode: str = "standard"

    def __post_init__(self) -> None:
        if self.solve_mode not in SOLVE_MODES:
            raise ConfigurationError(
                f"unknown solve_mode {self.solve_mode!r}; expected one of "
                f"{SOLVE_MODES}")
        if self.mpk_mode not in MPK_SOLVER_MODES:
            raise ConfigurationError(
                f"unknown mpk_mode {self.mpk_mode!r}; expected one of "
                f"{MPK_SOLVER_MODES}")

    def replace(self, **changes) -> "SolverOptions":
        """Copy with ``changes`` applied (re-validates)."""
        import dataclasses
        return dataclasses.replace(self, **changes)
