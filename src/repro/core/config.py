"""Configuration of the gradient-descent sampler.

Defaults follow Section IV of the paper: plain gradient descent with learning
rate 10, 5 iterations, and a batch size chosen per instance (the paper sweeps
100 to 1,000,000; the default here is sized for CPU-hosted NumPy execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.gpu.device import Device, DeviceKind
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SamplerConfig:
    """Hyper-parameters of :class:`repro.core.sampler.GradientSATSampler`."""

    #: Number of candidate solutions learned in parallel per round (paper: 100..1e6).
    batch_size: int = 2048
    #: Gradient-descent iterations per round (paper: 5).
    iterations: int = 5
    #: Learning rate of Eq. 10 (paper: 10).
    learning_rate: float = 10.0
    #: Optimizer: "sgd" (the paper's choice) or "adam" (ablation only).
    optimizer: str = "sgd"
    #: Standard deviation of the Gaussian initialisation of the soft inputs V.
    init_scale: float = 1.0
    #: Random seed for initialisation and unconstrained-input sampling.
    seed: Optional[int] = 0
    #: Execution device (vectorised "gpu-sim" or per-sample "cpu" loop).
    device: Device = field(default_factory=lambda: Device(DeviceKind.GPU_SIM))
    #: Evaluation backend: "engine" (compiled levelized programs, the default)
    #: or "interpreter" (the legacy per-gate autodiff reference).  The two are
    #: bitwise-identical; the engine is the fast path.
    backend: str = "engine"
    #: Maximum number of sampling rounds when a target solution count is requested.
    max_rounds: int = 64
    #: Stop early after this many consecutive rounds that add no new unique solution
    #: (the solution space is likely exhausted).  None disables the check.
    stall_rounds: Optional[int] = 4
    #: Wall-clock budget in seconds (None = unlimited); checked between rounds
    #: and, inside a GD round, between device chunks and iterations, so a
    #: long round overshoots the budget by at most one iteration (model-less
    #: instances sample a round as one vectorised step, their overshoot is
    #: that single step).
    timeout_seconds: Optional[float] = None
    #: Array-backend spec ("numpy", "numpy:float32", "cupy", "torch", ...)
    #: the sampler's hot loops run on.  ``None`` falls back to the device's
    #: backend, then to the process default (``REPRO_ARRAY_BACKEND`` env or
    #: NumPy) — precedence: environment < config < CLI (the CLI writes this
    #: field, so it wins).
    array_backend: Optional[str] = None
    #: Native kernel mode ("auto", "native", "python"/"off")
    #: scoping :mod:`repro.native` for this sampler's runs.  ``None`` leaves
    #: the process default (``REPRO_NATIVE`` env or "auto") in place —
    #: precedence: environment < config < CLI (the CLI writes this field).
    kernel: Optional[str] = None
    #: Persistent artifact-store directory (:mod:`repro.store`) consulted by
    #: :func:`repro.core.pipeline.sample_cnf` before running the CNF->circuit
    #: transform, and populated after a cold build.  ``None`` defers to the
    #: ``REPRO_STORE_DIR`` environment variable (off when unset); ``"off"``
    #: is explicitly off — precedence: environment < config < CLI (the CLI
    #: writes this field, so ``--store-dir`` wins).  The library default is
    #: *off*: enable it for workloads that resample the same formulas across
    #: processes or runs.
    store_dir: Optional[str] = None
    #: Telemetry spec (:mod:`repro.obs`): ``"off"`` forces tracing off,
    #: ``"mem"``/``"on"`` enable the in-memory span ring, any other string is
    #: a JSONL trace-file path.  ``None`` defers to the ``REPRO_TRACE``
    #: environment variable (off when unset) — precedence: environment <
    #: config < CLI (the CLI writes this field, so ``--trace`` wins).
    #: Metrics counters are always live regardless of this spec.
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("batch_size", self.batch_size)
        check_positive("iterations", self.iterations)
        check_positive("learning_rate", self.learning_rate)
        check_positive("max_rounds", self.max_rounds)
        check_positive("init_scale", self.init_scale)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.backend not in ("engine", "interpreter"):
            raise ValueError(
                f"backend must be 'engine' or 'interpreter', got {self.backend!r}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")
        if self.stall_rounds is not None and self.stall_rounds <= 0:
            raise ValueError("stall_rounds must be positive or None")
        if self.array_backend is not None:
            from repro.xp import validate_spec

            # Syntax/registration check only; availability (e.g. CuPy import)
            # is verified at resolution time with a precise error.
            validate_spec(self.array_backend)
        if self.kernel is not None:
            from repro.native import resolve_mode

            # Vocabulary check only; tier availability is resolved at run
            # time (explicit tiers then fail with a precise error).
            resolve_mode(self.kernel)

    def resolve_array_backend(self):
        """The :class:`~repro.xp.backend.ArrayBackend` this config selects.

        Precedence (weakest first): ``REPRO_ARRAY_BACKEND`` environment
        default, ``device.array_backend``, ``array_backend`` (which the CLI
        flag ``--array-backend`` writes, so the CLI wins).
        """
        from repro.xp import get_backend

        if self.array_backend:
            return get_backend(self.array_backend)
        return self.device.backend()  # device spec, else the active default

    def with_(self, **overrides) -> "SamplerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls, batch_size: int = 2048, **overrides) -> "SamplerConfig":
        """The hyper-parameters reported in the paper (lr=10, 5 iterations, SGD)."""
        return cls(
            batch_size=batch_size,
            iterations=5,
            learning_rate=10.0,
            optimizer="sgd",
            **overrides,
        )
