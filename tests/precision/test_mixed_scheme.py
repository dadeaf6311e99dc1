"""Mixed-precision orthogonalization: the dd-Gram panel pass and the
mixed-precision two-stage scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CholeskyBreakdownError, ConfigurationError
from repro.ortho import (
    BlockDriver,
    MixedPrecisionTwoStageScheme,
    NumpyBackend,
    get_scheme,
    orthogonality_error,
)
from repro.precision.kernels import mixed_precision_panel
from repro.utils.rng import default_rng, random_with_condition


class TestMixedPrecisionPanel:
    def _contract(self, gram, ortho_floor=1e-13):
        """V_old = Q P + V_new R, V_new orthonormal (the pass contract)."""
        rng = default_rng(1)
        nb = NumpyBackend()
        basis = rng.standard_normal((500, 10))
        q0 = np.linalg.qr(basis[:, :6])[0]
        basis[:, :6] = q0
        v_old = basis[:, 6:].copy()
        p, r = mixed_precision_panel(nb, basis, 6, 10, gram=gram)
        recon = q0 @ p + basis[:, 6:] @ r
        np.testing.assert_allclose(recon, v_old, atol=1e-12)
        assert orthogonality_error(basis[:, 6:]) < ortho_floor

    def test_contract_dd(self):
        self._contract("dd")

    def test_fp64_delegates_to_classical(self):
        self._contract("fp64")

    def test_empty_prefix_is_dd_cholqr(self):
        rng = default_rng(2)
        nb = NumpyBackend()
        v = random_with_condition(2000, 5, 1e12, rng)
        work = v.copy()
        p, r = mixed_precision_panel(nb, work, 0, 5, gram="dd")
        assert p is None
        # plain fp64 CholQR breaks at kappa 1e12; the dd Gram does not
        with pytest.raises(CholeskyBreakdownError):
            mixed_precision_panel(nb, v.copy(), 0, 5, gram="fp64")
        np.testing.assert_allclose(work @ r, v, atol=1e-10)

    @pytest.mark.parametrize("lo, c", [(0, 1), (0, 4), (3, 1), (3, 4),
                                       (6, 1), (6, 4)])
    def test_dd_contract_over_panel_shapes(self, lo, c):
        """``V_old = Q P + V_new R`` with an orthonormal ``V_new`` for
        every prefix width, the empty one included, and ``R`` upper
        triangular with a positive diagonal."""
        rng = default_rng(10 + 7 * lo + c)
        nb = NumpyBackend()
        basis = rng.standard_normal((400, lo + c))
        if lo:
            basis[:, :lo] = np.linalg.qr(basis[:, :lo])[0]
        q0 = basis[:, :lo].copy()
        v_old = basis[:, lo:].copy()
        p, r = mixed_precision_panel(nb, basis, lo, lo + c, gram="dd")
        assert (p is None) == (lo == 0)
        recon = basis[:, lo:] @ r + (0.0 if p is None else q0 @ p)
        np.testing.assert_allclose(recon, v_old, atol=1e-12)
        assert orthogonality_error(basis[:, lo:]) < 1e-13
        np.testing.assert_array_equal(r, np.triu(r))
        assert np.all(np.diag(r) > 0)

    @pytest.mark.parametrize("gram", ["fp32", "bf16", "fp16", "DD", ""])
    def test_unknown_gram_is_refused_by_the_scheme(self, gram):
        with pytest.raises(ConfigurationError, match="gram precision"):
            MixedPrecisionTwoStageScheme(big_step=20, gram=gram)

    @pytest.mark.parametrize("gram", ["fp32", "bf16", "fp16", "DD", ""])
    def test_unknown_gram_is_refused_by_the_panel(self, gram):
        with pytest.raises(ConfigurationError, match="gram precision"):
            mixed_precision_panel(NumpyBackend(), np.eye(8), 0, 4,
                                  gram=gram)

    def test_fp32_gram_is_refused(self):
        """The Gram runs in fp64 or dd; an fp32 Gram is no spec."""
        rng = default_rng(3)
        v = random_with_condition(2000, 5, 1e6, rng)
        nb = NumpyBackend()
        with pytest.raises(ConfigurationError, match="fp32"):
            mixed_precision_panel(nb, v.copy(), 0, 5, gram="fp32")
        with pytest.raises(ConfigurationError, match="fp32"):
            MixedPrecisionTwoStageScheme(big_step=20, gram="fp32")
        mixed_precision_panel(nb, v.copy(), 0, 5, gram="fp64")  # fine

    def test_unknown_gram_raises(self):
        nb = NumpyBackend()
        with pytest.raises(ConfigurationError):
            mixed_precision_panel(nb, np.eye(8), 0, 4, gram="fp8")


class TestMixedTwoStageScheme:
    KAPPA_PAST_CLIFF = 1e9

    def test_registry_entry(self):
        assert get_scheme("mixed-two-stage") is MixedPrecisionTwoStageScheme
        assert get_scheme("MIXED_TWO_STAGE") is MixedPrecisionTwoStageScheme

    def test_matches_classical_on_benign_input(self):
        rng = default_rng(4)
        v = random_with_condition(1500, 20, 1e3, rng)
        mixed = BlockDriver(
            MixedPrecisionTwoStageScheme(big_step=20), 5).run(v)
        classical = BlockDriver(
            get_scheme("two-stage")(big_step=20), 5).run(v)
        assert orthogonality_error(mixed.q) < 1e-14
        np.testing.assert_allclose(mixed.q @ mixed.r, classical.q @ classical.r,
                                   atol=1e-12)

    def test_survives_past_classical_cliff(self):
        """At kappa 1e9 the classical scheme (even with shift recovery)
        breaks down; the dd-Gram scheme stays O(eps)-orthogonal."""
        rng = default_rng(5)
        v = random_with_condition(3000, 30, self.KAPPA_PAST_CLIFF, rng)
        with pytest.raises(CholeskyBreakdownError):
            BlockDriver(get_scheme("two-stage")(
                big_step=30, breakdown="shift"), 5).run(v)
        res = BlockDriver(MixedPrecisionTwoStageScheme(
            big_step=30, breakdown="shift"), 5).run(v)
        assert orthogonality_error(res.q) < 1e-13
        rep = np.linalg.norm(res.q @ res.r - v) / np.linalg.norm(v)
        assert rep < 1e-12

    def test_stage_selection(self):
        """gram applies only to the selected stages; big_panel-only still
        runs classical stage-1 passes."""
        rng = default_rng(6)
        v = random_with_condition(1000, 12, 1e2, rng)
        scheme = MixedPrecisionTwoStageScheme(
            big_step=12, stages=("big_panel",))
        res = BlockDriver(scheme, 4).run(v)
        assert orthogonality_error(res.q) < 1e-14

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MixedPrecisionTwoStageScheme(big_step=10, gram="fp16")
        with pytest.raises(ConfigurationError):
            MixedPrecisionTwoStageScheme(big_step=10, stages=("third",))
