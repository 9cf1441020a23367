"""Fixtures for the native-kernel equivalence suite.

Every test taking ``kernels``/``tier`` runs against the C tier wherever a
system compiler can build it (test ids carry the tier name, ``[cext]``) and
is skipped wholesale when it cannot — the suite must pass on hosts without
a compiler.  Tests select the tier through the ``native`` mode.
"""

from __future__ import annotations

import pytest

from repro import native

AVAILABLE_TIERS = native.available_tiers()


@pytest.fixture(params=AVAILABLE_TIERS if AVAILABLE_TIERS else ["missing"])
def tier(request) -> str:
    """The C tier's name, skipping when it cannot load."""
    if request.param == "missing":
        pytest.skip("no native kernel tier available on this host")
    return request.param


@pytest.fixture
def kernels(tier):
    """The :class:`~repro.native.kernels.NativeKernels` facade of ``tier``."""
    return native.kernels_for("native")
