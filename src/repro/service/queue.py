"""Request-batching solve front end: :class:`SolveQueue`.

A solver-as-a-service deployment receives independent solve requests —
different right-hand sides, tolerances, deadlines — against a shared
operator.  Running them back to back pays every cycle's collective
latency once *per request*; the paper's whole argument is that this
latency, not flops, is the scale bottleneck.  :class:`SolveQueue` is
the batching front end over :func:`repro.krylov.block.block_sstep_gmres`
that fixes this: compatible pending requests (same matrix/partition —
the bound :class:`~repro.krylov.simulation.Simulation` — and same
``s``/``restart``/basis/scheme/preconditioner/solver options) group
into one panelized multi-RHS batch, so a width-``b`` dispatch pays one
collective per barrier instead of ``b``.

Batching changes *when* requests run, never *what* they compute: each
member of a dispatched batch is bit-identical to an independent
:func:`~repro.krylov.sstep_gmres.sstep_gmres` call, and per-request
``tol``/``maxiter`` ride through to the block solver's per-member
convergence exits.

The dispatch policy is the classic max-width/max-wait pair:

* ``max_width`` — a compatibility group reaching this many pending
  requests dispatches immediately (full panels are the throughput
  sweet spot; wider panels grow payload bytes but not collective
  count).
* ``max_wait`` — :meth:`SolveQueue.pump` also dispatches a partial
  group whose *oldest* request has waited at least this long, bounding
  latency for sparse traffic.  Time is the logical clock of the bound
  simulation's tracer (modeled seconds) unless an explicit ``now`` is
  passed to :meth:`submit`/:meth:`pump`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_RESTART, DEFAULT_STEP_SIZE, DEFAULT_TOL
from repro.exceptions import ConfigurationError
from repro.krylov.block import block_sstep_gmres
from repro.krylov.options import SolverOptions
from repro.krylov.restart import check_inputs
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation


@dataclass
class SolveRequest:
    """One pending solve: the RHS plus its per-request knobs."""

    request_id: int
    b: np.ndarray
    x0: np.ndarray | None
    tol: float
    maxiter: int
    submitted_at: float
    #: Compatibility key — requests batch together iff keys are equal.
    key: tuple = field(repr=False)


def _solver_key(s, restart, basis, scheme_factory, precond, options):
    """Hashable compatibility key for one solver configuration.

    Structural knobs compare by value — the options object itself sits
    in the key, not its hash: distinct options can hash alike (CPython
    has ``hash(-1) == hash(-2)``) and must still not share a batch.
    Stateful objects (a scheme factory, a preconditioner instance, a
    basis object) key by identity — two requests share a batch only when
    they share the *same* instances, which is the safe reading of
    "compatible".
    """
    return (int(s), int(restart),
            basis if isinstance(basis, str) else id(basis),
            None if scheme_factory is None else id(scheme_factory),
            None if precond is None else id(precond),
            options)


class SolveQueue:
    """Group compatible solve requests into panelized batches.

    Parameters
    ----------
    sim:
        The simulation every request solves against (one matrix, one
        partition, one machine — the service's tenancy boundary).
    max_width:
        Dispatch a compatibility group as soon as it holds this many
        requests; also the widest batch a single dispatch produces
        (a larger backlog drains as consecutive full batches).
    max_wait:
        :meth:`pump` dispatches a partial group once its oldest request
        has waited at least this long (modeled seconds).  The default
        ``0.0`` means every ``pump`` drains all pending work — callers
        wanting accumulation pass a positive window.
    s / restart / basis / scheme_factory / precond / options:
        Queue-level solver defaults; :meth:`submit` may override any of
        them per request, and the override participates in the
        compatibility key.
    """

    def __init__(self, sim: Simulation, *, max_width: int = 8,
                 max_wait: float = 0.0,
                 s: int = DEFAULT_STEP_SIZE, restart: int = DEFAULT_RESTART,
                 basis="monomial", scheme_factory=None, precond=None,
                 options: SolverOptions | None = None) -> None:
        if max_width < 1:
            raise ConfigurationError(f"max_width must be >= 1, got {max_width}")
        if max_wait < 0.0:
            raise ConfigurationError(f"max_wait must be >= 0, got {max_wait}")
        self.sim = sim
        self.max_width = int(max_width)
        self.max_wait = float(max_wait)
        self.defaults = dict(s=s, restart=restart, basis=basis,
                             scheme_factory=scheme_factory, precond=precond,
                             options=options)
        self._next_id = 0
        #: pending requests per compatibility key, FIFO within a key
        self._pending: dict[tuple, list[SolveRequest]] = {}
        #: solver arguments per key with pending requests (shared by every
        #: request under it).  This is also what pins the ``id()``s in the
        #: keys: while a request waits under a key, the entry references
        #: that key's basis / scheme factory / preconditioner, so none can
        #: be collected and its id reused by an incompatible object.  The
        #: entry goes when the key's last pending request is dispatched;
        #: a key that recurs later stores the new submission's objects.
        self._configs: dict[tuple, dict] = {}
        self._results: dict[int, SolveResult] = {}
        #: width of every dispatched batch, in dispatch order
        self.dispatched_widths: list[int] = []

    # ------------------------------------------------------------------
    def _now(self, now: float | None) -> float:
        return float(self.sim.tracer.clock) if now is None else float(now)

    def submit(self, b, x0=None, *, tol: float = DEFAULT_TOL,
               maxiter: int = 100_000, now: float | None = None,
               **overrides) -> int:
        """Enqueue one solve request; returns its request id.

        ``tol``/``maxiter`` are per-request (they never fragment a
        batch — the block solver tests convergence per member).  Any
        of ``s``/``restart``/``basis``/``scheme_factory``/``precond``/
        ``options`` may be overridden per request and becomes part of
        the compatibility key.  Submission never dispatches; call
        :meth:`pump` (or :meth:`flush`) to run batches.
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown solver override(s) {sorted(unknown)}; expected "
                f"among {sorted(self.defaults)}")
        cfg = {**self.defaults, **overrides}
        # the solver's own door check, here: a request that cannot run is
        # refused at submission instead of failing its whole batch
        b, x0 = check_inputs(self.sim, b, x0, s=cfg["s"],
                             restart=cfg["restart"], maxiter=maxiter,
                             tol=tol)
        key = _solver_key(cfg["s"], cfg["restart"], cfg["basis"],
                          cfg["scheme_factory"], cfg["precond"],
                          cfg["options"])
        rid = self._next_id
        self._next_id += 1
        req = SolveRequest(request_id=rid, b=b, x0=x0, tol=float(tol),
                           maxiter=int(maxiter),
                           submitted_at=self._now(now), key=key)
        self._pending.setdefault(key, []).append(req)
        self._configs.setdefault(key, cfg)
        return rid

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of requests waiting for dispatch."""
        return sum(len(reqs) for reqs in self._pending.values())

    def done(self, request_id: int) -> bool:
        return request_id in self._results

    def result(self, request_id: int) -> SolveResult:
        """The finished request's :class:`SolveResult` (raises
        :class:`KeyError` while it is still pending)."""
        try:
            return self._results[request_id]
        except KeyError:
            raise KeyError(
                f"request {request_id} has no result yet — still pending? "
                f"(pump() or flush() dispatches)") from None

    # ------------------------------------------------------------------
    def _dispatch(self, key: tuple, reqs: list[SolveRequest]) -> None:
        cfg = self._configs[key]
        width = len(reqs)
        cols = np.stack([r.b for r in reqs], axis=1)
        if any(r.x0 is not None for r in reqs):
            x0 = np.stack([r.x0 if r.x0 is not None
                           else np.zeros(self.sim.n) for r in reqs], axis=1)
        else:
            x0 = None
        results = block_sstep_gmres(
            self.sim, cols, x0,
            s=cfg["s"], restart=cfg["restart"],
            tol=[r.tol for r in reqs], maxiter=[r.maxiter for r in reqs],
            scheme_factory=cfg["scheme_factory"], basis=cfg["basis"],
            precond=cfg["precond"], options=cfg["options"])
        for req, res in zip(reqs, results):
            res.diagnostics["request_id"] = req.request_id
            self._results[req.request_id] = res
        self.dispatched_widths.append(width)

    def pump(self, now: float | None = None) -> int:
        """Dispatch every group that is full or has waited out
        ``max_wait``; returns the number of requests dispatched.

        Full ``max_width`` slices always go; a partial remainder goes
        only once its oldest member has waited at least ``max_wait``
        (so ``max_wait=0`` drains everything, and a positive window
        holds partial batches back to accumulate width).
        """
        now = self._now(now)
        launched = 0
        for key in list(self._pending):
            reqs = self._pending[key]
            while len(reqs) >= self.max_width:
                batch, reqs = reqs[:self.max_width], reqs[self.max_width:]
                self._dispatch(key, batch)
                launched += len(batch)
            if reqs and now - reqs[0].submitted_at >= self.max_wait:
                self._dispatch(key, reqs)
                launched += len(reqs)
                reqs = []
            if reqs:
                self._pending[key] = reqs
            else:
                del self._pending[key], self._configs[key]
        return launched

    def flush(self) -> int:
        """Dispatch everything pending regardless of width or age."""
        launched = 0
        for key in list(self._pending):
            reqs = self._pending.pop(key)
            for lo in range(0, len(reqs), self.max_width):
                batch = reqs[lo:lo + self.max_width]
                self._dispatch(key, batch)
                launched += len(batch)
            del self._configs[key]
        return launched

    def __repr__(self) -> str:
        return (f"SolveQueue(pending={self.pending}, "
                f"max_width={self.max_width}, max_wait={self.max_wait}, "
                f"dispatched={len(self.dispatched_widths)})")
