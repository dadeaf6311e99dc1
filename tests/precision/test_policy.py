"""PrecisionPolicy registry and resolution."""

from __future__ import annotations

import re

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.precision import PrecisionPolicy, resolve_policy
from repro.precision.policy import POLICIES


class TestPolicy:
    def test_registry_covers_core_policies(self):
        assert {"fp64", "fp32", "bf16", "fp32_dd_gram",
                "fp64_dd_gram"} <= set(POLICIES)

    def test_default_is_fp64(self):
        p = resolve_policy(None)
        assert p.is_default
        assert (p.storage, p.accumulate, p.gram) == ("fp64", "fp64", "fp64")

    def test_resolve_by_name_normalizes(self):
        assert resolve_policy("FP32-dd-GRAM") is POLICIES["fp32_dd_gram"]

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_registered_name_resolves_in_any_spelling(self, name):
        spelling = f"  {name.upper().replace('_', '-')} "
        assert resolve_policy(spelling) is POLICIES[name]
        assert resolve_policy(POLICIES[name]) is POLICIES[name]

    def test_resolve_instance_passthrough(self):
        p = PrecisionPolicy("custom", storage="fp32", gram="dd")
        assert resolve_policy(p) is p

    def test_word_bytes_and_eps(self):
        assert resolve_policy("fp32").storage_word_bytes == 4.0
        assert resolve_policy("bf16").storage_word_bytes == 2.0
        assert resolve_policy("fp32").storage_eps > \
            resolve_policy("fp64").storage_eps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PrecisionPolicy("bad", storage="dd")
        with pytest.raises(ConfigurationError):
            PrecisionPolicy("bad", accumulate="bf16")
        with pytest.raises(ConfigurationError):
            PrecisionPolicy("bad", gram="bf16")
        with pytest.raises(ConfigurationError):
            resolve_policy("fp8")

    @pytest.mark.parametrize("build, spec", [
        (lambda spec: PrecisionPolicy("bad", storage=spec), "dd"),
        (lambda spec: PrecisionPolicy("bad", accumulate=spec), "bf16"),
        (lambda spec: PrecisionPolicy("bad", gram=spec), "bf16"),
        (resolve_policy, "fp8"),
    ], ids=["storage", "accumulate", "gram", "resolve_policy"])
    def test_spec_error_is_a_library_error_naming_the_spec(self, build,
                                                           spec):
        with pytest.raises(ReproError, match=re.escape(repr(spec))) as info:
            build(spec)
        assert type(info.value) is ConfigurationError

    def test_frozen(self):
        with pytest.raises(AttributeError):
            resolve_policy("fp64").storage = "fp32"
