"""``mpk_mode="auto"`` decides by price: a cycle's price is, float for
float, the modeled clock extending its panels adds, and pricing charges
nothing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.krylov.basis import ChebyshevBasis, MonomialBasis, NewtonBasis
from repro.krylov.mpk import (MatrixPowersKernel, PreconditionedOperator,
                              resolve_mpk_mode)
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds, sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu, summit
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.polynomial import ChebyshevPreconditioner

POLYS = {
    "monomial": MonomialBasis,
    "newton": lambda: NewtonBasis(np.array([0.4, 1.3, 2.9, 4.1, 5.5])),
    "chebyshev": lambda: ChebyshevBasis(0.1, 8.0),
}
PRECONDS = {
    "none": lambda: None,
    "jacobi": JacobiPreconditioner,
    "block_jacobi": BlockJacobiPreconditioner,
}
#: one restart cycle of ``s = 4``, ``m = 13``: three full panels and a
#: one-column last one (its own plan)
PANELS = _panel_bounds(4, 14)


def kernel(mode, *, engine="batched", pc="none", poly="monomial", ranks=5,
           machine=summit, spans=False):
    """A kernel over ``laplace2d(12)`` and a basis whose column 0 is set
    (144 rows: 4 ranks split evenly, 5 do not)."""
    sim = Simulation(laplace2d(12), ranks=ranks, machine=machine(),
                     engine=engine, spans=spans)
    precond = PRECONDS[pc]()
    op = PreconditionedOperator(
        sim.matrix, precond.setup(sim.matrix) if precond else None)
    basis = sim.zeros(PANELS[-1][1])
    v0 = np.random.default_rng(7).standard_normal(sim.n)
    basis.view_cols(0).assign_from(sim.vector_from(v0 / np.linalg.norm(v0)))
    return sim, MatrixPowersKernel(op, POLYS[poly](), mode=mode), basis


def extend_cycle(mpk, basis):
    for lo, hi in PANELS:
        mpk.extend(basis, max(lo, 1), hi)


@pytest.mark.parametrize("ranks", [4, 5])
@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("poly", POLYS)
@pytest.mark.parametrize("pc", PRECONDS)
@pytest.mark.parametrize("mode", ["standard", "ca"])
def test_the_price_is_the_clock_extending_adds(mode, pc, poly, engine,
                                               ranks):
    sim, mpk, basis = kernel(mode, engine=engine, pc=pc, poly=poly,
                             ranks=ranks)
    prices, bases = [], []
    for _ in range(2):  # the first cycle pays every CA plan's analysis
        sim.tracer.reset()
        prices.append(mpk.cycle_price(PANELS))
        assert sim.tracer.clock == 0.0
        extend_cycle(mpk, basis)
        assert prices[-1].hex() == sim.tracer.clock.hex()
        bases.append(basis.to_global().tobytes())
    assert prices[0] > prices[1] > 0.0 if mode == "ca" else (
        prices[0] == prices[1] > 0.0)
    assert bases[0] == bases[1]


@pytest.mark.parametrize("pc", PRECONDS)
def test_pricing_charges_nothing(pc):
    """Not the clock, the rows, the counts nor the spans — a CA plan
    priced on a fresh matrix is analyzed but charged only when the
    kernel first uses it."""
    sim, mpk, basis = kernel("ca", pc=pc, spans=True)
    standard = MatrixPowersKernel(mpk.op, mpk.basis_poly)
    with sim.tracer.phase("spmv"):
        sim.comm.charge_halo(sim.matrix.halo.recv_bytes())  # non-empty
    before, spans = sim.tracer.snapshot(), list(sim.tracer.spans)
    prices = [k.cycle_price(PANELS) for k in (mpk, standard)]
    assert min(prices) > 0.0
    assert sim.tracer.snapshot() == before
    assert sim.tracer.spans == spans
    extend_cycle(mpk, basis)
    # two plan depths, each analysis charged once, on first use
    assert sim.tracer.kernel_count("spmv", "ghost_plan") == 2


def test_an_unpaid_plan_analysis_can_tip_the_pick():
    """A near tie: on Summit with a host 100x slower, one cycle of
    ``"ca"`` beats ``"standard"`` by less than analyzing its ghost plans
    costs.  A one-cycle solve resolves to ``"standard"`` and pays no more
    than either explicit mode; once the matrix has paid for the plans,
    the same cycle resolves to ``"ca"``."""
    base = summit()
    machine = base.with_overrides(host_flops=base.host_flops / 100)

    def one_cycle(sim, mode):
        return sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                           tol=0.0, maxiter=12,
                           options=SolverOptions(mpk_mode=mode))

    sims, runs = {}, {}
    for mode in ("auto", "standard", "ca"):
        sims[mode] = Simulation(laplace2d(24), ranks=6, machine=machine)
        runs[mode] = one_cycle(sims[mode], mode)
    clocks = {mode: sim.tracer.clock for mode, sim in sims.items()}
    assert runs["auto"].diagnostics["mpk_mode"] == "standard"
    assert clocks["auto"] == clocks["standard"] < clocks["ca"]
    assert runs["auto"].x.tobytes() == runs["ca"].x.tobytes()
    again = one_cycle(sims["ca"], "auto")
    assert again.diagnostics["mpk_mode"] == "ca"


def slow_host():
    """Summit with a host 100x slower: plan analysis near a tie."""
    base = summit()
    return base.with_overrides(host_flops=base.host_flops / 100)


@pytest.mark.parametrize("machine", [summit, generic_cpu, slow_host])
@pytest.mark.parametrize("ranks", [4, 5])
@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("poly", POLYS)
@pytest.mark.parametrize("pc", PRECONDS)
def test_the_floor_bounds_the_ca_price_and_keeps_the_pick(
        pc, poly, engine, ranks, machine):
    """The plan-free floor is at most the ``"ca"`` price, and the mode
    ``"auto"`` resolves to is the one full pricing picks."""
    sim, mpk, _ = kernel("ca", engine=engine, pc=pc, poly=poly,
                         ranks=ranks, machine=machine)
    picked = resolve_mpk_mode(mpk.op, "auto", mpk.basis_poly, PANELS)
    floor = mpk._cycle_floor(PANELS)
    prices = {mode: MatrixPowersKernel(mpk.op, mpk.basis_poly,
                                       mode).cycle_price(PANELS)
              for mode in ("standard", "ca")}
    assert 0.0 < floor <= prices["ca"]
    assert picked == ("standard" if prices["standard"] < prices["ca"]
                      else "ca")
    assert sim.tracer.clock == 0.0


@pytest.mark.parametrize("ranks", [4, 5])
@pytest.mark.parametrize("pc", PRECONDS)
def test_the_floor_step_is_every_panels_last_step(pc, ranks):
    """Read off the halo, the depth-0 step charges the records an
    analyzed plan's last step charges, record for record."""
    sim, mpk, _ = kernel("ca", pc=pc, ranks=ranks)
    near = sim.matrix._near_levels(mpk.op.ghost_expand)
    assert sim.matrix._ghost_plans == {}
    for depth in (1, 4):
        plan = sim.matrix._plan(depth, mpk.op.ghost_expand)
        for n in (0, 2, 3):
            assert (mpk._ca_step(sim.comm.cost, near, 0, n)
                    == mpk._ca_step(sim.comm.cost, plan, 0, n))


def test_an_auto_solve_the_floor_decides_analyzes_no_plan():
    """Block Jacobi on Summit: a ``"standard"`` cycle prices below the
    ``"ca"`` floor, so ``"auto"`` runs ``"standard"`` and the matrix
    holds no ghost plan afterwards."""
    sim = Simulation(laplace2d(24), ranks=6, machine=summit())
    precond = BlockJacobiPreconditioner().setup(sim.matrix)
    run = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                      tol=0.0, maxiter=12, precond=precond,
                      options=SolverOptions(mpk_mode="auto"))
    assert run.diagnostics["mpk_mode"] == "standard"
    assert sim.matrix._ghost_plans == {}


class TestResolution:
    def test_the_cheaper_price_wins_and_a_tie_keeps_ca(self, monkeypatch):
        _, mpk, _ = kernel("standard")
        prices = {}
        monkeypatch.setattr(MatrixPowersKernel, "cycle_price",
                            lambda self, panels: prices[self.mode])
        for std, ca, picked in [(1.0, 2.0, "standard"), (2.0, 1.0, "ca"),
                                (1.0, 1.0, "ca")]:
            prices.update(standard=std, ca=ca)
            assert resolve_mpk_mode(
                mpk.op, "auto", MonomialBasis(), PANELS) == picked

    @pytest.mark.parametrize("override, shown", [
        ({"spmv_efficiency": 0.0}, "inf"),
        ({"spmv_efficiency": float("nan")}, "nan"),
        ({"net_latency_intra": float("inf")}, "inf")])
    def test_a_price_that_is_not_finite_is_refused(self, override, shown):
        machine = generic_cpu().with_overrides(**override)
        sim = Simulation(laplace2d(12), ranks=4, machine=machine)
        with pytest.raises(ConfigurationError) as info:
            sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                        options=SolverOptions(mpk_mode="auto"))
        message = str(info.value)
        assert "'standard'" in message
        assert f"prices at {shown} " in message
        assert "'generic_cpu'" in message
        assert sim.tracer.clock == 0.0  # refused before any charge

    def test_a_constant_only_the_ca_price_reads_is_refused_past_the_floor(
            self):
        """``host_flops=0`` prices the plan analysis, and nothing else of
        a cycle, at ``inf``.  With block Jacobi the floor rules ``"ca"``
        out before the analysis is priced; unpreconditioned it does not,
        and the full ``"ca"`` price is refused."""
        sim = Simulation(laplace2d(12), ranks=4,
                         machine=summit().with_overrides(host_flops=0.0))
        block = PreconditionedOperator(
            sim.matrix, BlockJacobiPreconditioner().setup(sim.matrix))
        assert resolve_mpk_mode(
            block, "auto", MonomialBasis(), PANELS) == "standard"
        with pytest.raises(ConfigurationError,
                           match="'ca' kernel prices at inf "):
            resolve_mpk_mode(PreconditionedOperator(sim.matrix), "auto",
                             MonomialBasis(), PANELS)

    def test_a_price_is_skipped_when_the_operator_does_not_compose(
            self, monkeypatch):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op = PreconditionedOperator(
            sim.matrix, ChebyshevPreconditioner(degree=2).setup(sim.matrix))
        monkeypatch.setattr(MatrixPowersKernel, "cycle_price", None)
        assert resolve_mpk_mode(
            op, "auto", MonomialBasis(), PANELS) == "standard"
