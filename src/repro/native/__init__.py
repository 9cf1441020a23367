"""Native C kernels for the measured hot loops (``repro.native``).

After the array-backend work vectorised everything NumPy can vectorise, the
remaining wall-clock lives in loops NumPy cannot fuse: the CNF kernel's
width-bucketed clause reduction and the engine executor's per-block
dispatch.  This package provides one compiled tier for exactly those two
dominators — small dependency-free C kernels compiled on demand with the
system compiler and loaded via :mod:`ctypes` (:mod:`repro.native.cext`),
each pinned to the pure-Python path by the equivalence suite in
``tests/native/``.  A compiled kernel stays only where a benchmark shows it
beats NumPy (``benchmarks/bench_native.py``).

Mode selection mirrors :mod:`repro.xp` backend selection, with precedence
``environment < SamplerConfig.kernel < CLI --kernel``:

* ``auto`` (default) — the C tier when it can be brought up, silently none
  otherwise (pure-Python/NumPy paths keep running unchanged);
* ``native`` — the C tier, raising
  :class:`~repro.xp.backend.BackendUnavailableError` when it is unavailable;
* ``python`` (alias ``off``) — disable native kernels outright.

Availability is probed once per process and memoised; the one-time build
cost is reported by :func:`compile_seconds` so the serving layer and the
benchmarks can keep cold-vs-warm numbers honest.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.xp.backend import BackendUnavailableError
from repro.native.kernels import NativeKernels, clear_artifact_caches

#: Environment variable selecting the default kernel mode.
NATIVE_ENV_VAR = "REPRO_NATIVE"

#: Recognised kernel modes (``off`` is accepted as an alias of ``python``).
MODES = ("auto", "native", "python", "off")

_DEFAULT_MODE: Optional[str] = None
_LOCK = threading.Lock()
#: Memoised probe of the C tier: (kernels or None, error message or None).
_PROBE: Optional[Tuple[Optional[NativeKernels], Optional[str]]] = None


def _validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown native kernel mode {mode!r}; expected one of {MODES}")
    return "python" if mode == "off" else mode


def default_mode() -> str:
    """The process-default mode (explicit override, else ``$REPRO_NATIVE``, else auto)."""
    if _DEFAULT_MODE is not None:
        return _DEFAULT_MODE
    return _validate_mode(os.environ.get(NATIVE_ENV_VAR, "auto").strip().lower() or "auto")


def set_default_mode(mode: Optional[str]) -> None:
    """Set (or with ``None`` reset) the process-default kernel mode."""
    global _DEFAULT_MODE
    _DEFAULT_MODE = None if mode is None else _validate_mode(mode)


def resolve_mode(mode: Optional[str] = None) -> str:
    """``mode`` validated, falling back to the process default when ``None``."""
    if mode is None:
        return default_mode()
    return _validate_mode(mode)


@contextmanager
def use_kernel(mode: Optional[str]) -> Iterator[None]:
    """Scope the process-default kernel mode (``None`` = leave unchanged)."""
    global _DEFAULT_MODE
    if mode is None:
        yield
        return
    previous = _DEFAULT_MODE
    set_default_mode(mode)
    try:
        yield
    finally:
        _DEFAULT_MODE = previous


def _probe() -> Tuple[Optional[NativeKernels], Optional[str]]:
    global _PROBE
    state = _PROBE  # lock-free fast path once probed
    if state is not None:
        return state
    with _LOCK:
        if _PROBE is None:
            try:
                _PROBE = (NativeKernels(), None)
            except BackendUnavailableError as error:
                _PROBE = (None, str(error))
            except Exception as error:  # pragma: no cover - environment-specific
                _PROBE = (None, f"native C tier failed to load: {error}")
        return _PROBE


def kernels_for(mode: Optional[str] = None) -> Optional[NativeKernels]:
    """The kernel set for ``mode``, or ``None`` when native execution is off.

    ``auto`` degrades silently to ``None`` when the C tier is unavailable;
    ``native`` raises :class:`~repro.xp.backend.BackendUnavailableError`
    instead, mirroring how explicitly requested array backends fail loudly
    while defaults degrade.
    """
    resolved = resolve_mode(mode)
    if resolved == "python":
        return None
    kernels, error = _probe()
    if kernels is None and resolved == "native":
        raise BackendUnavailableError(f"no native kernel tier available: {error}")
    return kernels


def native_available() -> bool:
    """Whether the C tier can be brought up in this process."""
    return _probe()[0] is not None


def active_tier(mode: Optional[str] = None) -> Optional[str]:
    """Name of the tier ``mode`` resolves to (``None`` = pure Python/NumPy)."""
    try:
        kernels = kernels_for(mode)
    except BackendUnavailableError:
        return None
    return None if kernels is None else kernels.tier


def available_tiers() -> Tuple[str, ...]:
    """The native tiers that can be brought up: ``("cext",)`` or ``()``."""
    kernels = _probe()[0]
    return () if kernels is None else (kernels.tier,)


def compile_seconds() -> float:
    """Total wall-clock seconds this process spent building native kernels.

    The C tier's shared-library build (0.0 on a disk-cache hit).  Monotone
    non-decreasing; callers snapshot deltas around work units to attribute
    compile cost honestly.
    """
    from repro.native import cext

    return cext.compile_seconds()


def clear_caches() -> None:
    """Drop per-artifact native memos (flattened programs, CNF plan arrays).

    Folded into :func:`repro.xp.clear_caches`; the compiled library itself
    stays loaded (it is artifact-independent).
    """
    clear_artifact_caches()


__all__ = [
    "BackendUnavailableError",
    "MODES",
    "NATIVE_ENV_VAR",
    "NativeKernels",
    "active_tier",
    "available_tiers",
    "clear_caches",
    "compile_seconds",
    "default_mode",
    "kernels_for",
    "native_available",
    "resolve_mode",
    "set_default_mode",
    "use_kernel",
]
