"""Name -> class registries for kernels and schemes."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.ortho import (
    BCGSPIP2Scheme,
    CholQR2,
    RBCGSScheme,
    SketchedCholQR,
    SketchedTwoStageScheme,
    TwoStageScheme,
    get_scheme,
    list_schemes,
)
from repro.ortho.base import BlockOrthoScheme, IntraBlockQR
from repro.ortho.registry import INTRA_QR, get_intra_qr


class TestIntraQRRegistry:
    def test_lookup(self):
        assert get_intra_qr("cholqr2") is CholQR2
        assert get_intra_qr("sketched_cholqr") is SketchedCholQR

    def test_name_normalization(self):
        assert get_intra_qr("Sketched-CholQR") is SketchedCholQR
        assert get_intra_qr(" CHOLQR2 ") is CholQR2

    def test_unknown_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="sketched_cholqr"):
            get_intra_qr("qr_of_destiny")

    def test_listing_instantiable(self):
        names = sorted(INTRA_QR)
        assert "cholqr" in names and "hhqr" in names
        for name in names:
            assert isinstance(get_intra_qr(name)(), IntraBlockQR)


class TestSchemeRegistry:
    def test_lookup(self):
        assert get_scheme("bcgs-pip2") is BCGSPIP2Scheme
        assert get_scheme("two-stage") is TwoStageScheme
        assert get_scheme("rbcgs") is RBCGSScheme
        assert get_scheme("sketched_two_stage") is SketchedTwoStageScheme

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="two_stage"):
            get_scheme("three-stage")

    def test_listing_subclasses(self):
        for name in list_schemes():
            assert issubclass(get_scheme(name), BlockOrthoScheme)

    def test_env_style_selection(self, monkeypatch):
        """The registry is what REPRO_* config hooks resolve through."""
        import os
        monkeypatch.setenv("REPRO_SCHEME", "sketched-two-stage")
        cls = get_scheme(os.environ["REPRO_SCHEME"])
        scheme = cls(big_step=10)
        assert scheme.name == "sketched-two-stage"
