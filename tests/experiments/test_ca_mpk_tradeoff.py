"""Smoke-size assertions of the CA-MPK trade-off experiment's claims."""

from __future__ import annotations

import pytest

from repro.experiments import ca_mpk_tradeoff, runner
from repro.parallel.machine import generic_cpu


@pytest.fixture(scope="module")
def table():
    return ca_mpk_tradeoff.run(nx=20, ranks=8)


def _speedup(table, row: int) -> float:
    return float(table.cell(row, 3).rstrip("x"))


class TestTradeoffTable:
    def test_covers_all_regimes(self, table):
        labels = table.column(0)
        assert labels == [name for name, _ in ca_mpk_tradeoff.REGIMES]

    def test_halo_counts(self, table):
        # s=5, m=30 -> 6 panels; + nothing else (basis generation only)
        for row in range(len(table.rows)):
            assert table.cell(row, 4) == 30
            assert table.cell(row, 5) == 6

    def test_ca_wins_in_latency_dominated_regime(self, table):
        """The acceptance claim: modeled speedup > 1 where latency
        dominates, growing with the latency scale."""
        by_label = {table.cell(r, 0): r for r in range(len(table.rows))}
        s4 = _speedup(table, by_label["summit_lat4x"])
        s16 = _speedup(table, by_label["summit_lat16x"])
        assert s4 > 1.0
        assert s16 > s4

    def test_block_jacobi_composition_hurts_ca(self):
        """Block-rounded ghost closures inflate redundant work — the
        composition problem that keeps Trilinos on the standard MPK."""
        none = ca_mpk_tradeoff.generate_basis(
            generic_cpu(), "ca", nx=20, ranks=8, s=5, restart=30)
        bj = ca_mpk_tradeoff.generate_basis(
            generic_cpu(), "ca", nx=20, ranks=8, s=5, restart=30,
            precond_name="block_jacobi")
        assert bj["redundant_frac"] > none["redundant_frac"]

#: what the ``auto`` column names on every row of each sweep at the
#: fixture's size: block-rounded closures make CA re-run the neighbours'
#: Gauss-Seidel sweeps, which no latency regime here pays back
AUTO_PICKS = {"none": {"ca"}, "jacobi": {"ca"}, "block_jacobi": {"standard"}}


@pytest.mark.parametrize("pc", AUTO_PICKS)
def test_auto_names_the_cheaper_kernel(table, pc):
    if pc != "none":
        table = ca_mpk_tradeoff.run(nx=20, ranks=8, precond_name=pc)
    auto = table.headers.index("auto")
    for row in range(len(table.rows)):
        std, ca = float(table.cell(row, 1)), float(table.cell(row, 2))
        assert std != ca
        assert table.cell(row, auto) == ("standard" if std < ca else "ca")
    assert set(table.column(auto)) == AUTO_PICKS[pc]


def test_cli_quick(capsys):
    assert runner.main(["ca_mpk", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "ca_mpk_tradeoff" in out
    assert "summit_lat16x" in out
