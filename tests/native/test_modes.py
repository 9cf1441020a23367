"""Mode resolution, precedence and fallback semantics of :mod:`repro.native`."""

from __future__ import annotations

import pytest

from repro import native
from repro.xp.backend import BackendUnavailableError


class TestModeResolution:
    def test_python_mode_disables_kernels(self):
        assert native.kernels_for("python") is None
        assert native.active_tier("python") is None

    def test_off_is_an_alias_of_python(self):
        assert native.resolve_mode("off") == "python"
        assert native.kernels_for("off") is None

    @pytest.mark.parametrize("mode", ["vulkan", "cext", "numba"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown native kernel mode"):
            native.resolve_mode(mode)

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "off")
        monkeypatch.setattr(native, "_DEFAULT_MODE", None)
        assert native.default_mode() == "python"
        assert native.kernels_for(None) is None

    def test_explicit_mode_overrides_the_env(self, monkeypatch):
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "off")
        monkeypatch.setattr(native, "_DEFAULT_MODE", None)
        assert native.resolve_mode("auto") == "auto"

    def test_use_kernel_scopes_and_restores(self, monkeypatch):
        monkeypatch.setattr(native, "_DEFAULT_MODE", None)
        before = native.default_mode()
        with native.use_kernel("python"):
            assert native.default_mode() == "python"
            with native.use_kernel("auto"):
                assert native.default_mode() == "auto"
            assert native.default_mode() == "python"
        assert native.default_mode() == before

    def test_use_kernel_none_leaves_the_default_alone(self, monkeypatch):
        monkeypatch.setattr(native, "_DEFAULT_MODE", "python")
        with native.use_kernel(None):
            assert native.default_mode() == "python"

    def test_set_default_mode_validates(self):
        with pytest.raises(ValueError):
            native.set_default_mode("nope")


class TestUnavailableTiers:
    @pytest.fixture
    def no_tiers(self, monkeypatch):
        """Force the C tier probe to report unavailable."""
        monkeypatch.setattr(native, "_PROBE", (None, "cext forced off"))

    def test_auto_degrades_silently(self, no_tiers):
        assert native.kernels_for("auto") is None
        assert native.active_tier("auto") is None
        assert not native.native_available()
        assert native.available_tiers() == ()

    def test_native_mode_raises_loudly(self, no_tiers):
        with pytest.raises(BackendUnavailableError, match="no native kernel tier"):
            native.kernels_for("native")

    def test_specific_tier_raises_its_own_error(self, no_tiers):
        with pytest.raises(BackendUnavailableError, match="cext forced off"):
            native.kernels_for("native")


class TestAvailableTiers:
    def test_kernels_report_their_tier(self, tier, kernels):
        assert kernels.tier == tier
        assert tier in native.available_tiers()

    def test_auto_selects_an_available_tier(self, tier):
        assert native.active_tier("auto") in native.available_tiers()

    def test_compile_seconds_is_monotone_and_finite(self, kernels):
        first = native.compile_seconds()
        assert first >= 0.0
        assert native.compile_seconds() >= first
