"""Per-layer timing from the benchmark's own side of each layer boundary.

:func:`install` wraps public functions and methods of the program (module
attributes and class attributes, replaced in place) so that each call is
timed as a span of its layer.  Spans nest: a layer's *self* time is its span
minus the spans it encloses, so the self times of all layers partition the
traced part of a job exactly and ``job wall - sum(self times)`` is what no
layer accounts for.  Nothing inside the program is edited.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

_perf = time.perf_counter

#: (layer name, module, attribute, class name or None) — the boundaries timed.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("cnf.parse", "repro.cnf.dimacs", "parse_dimacs", None),
    ("cnf.plan_compile", "repro.cnf.kernel", "compile_evaluation_plan", None),
    ("cnf.validate", "repro.cnf.formula", "evaluate_batch", "CNF"),
    ("transform.total", "repro.core.transform", "transform_cnf", None),
    ("transform.complete", "repro.core.transform", "complete_assignments", "TransformResult"),
    ("engine.compile", "repro.engine.compiler", "compiled_program_for", None),
    ("engine.learn", "repro.engine.train", "learn_batch", None),
    ("sampler.dedup", "repro.core.solutions", "add_batch", "SolutionSet"),
    ("sampler.round", "repro.core.sampler", "sample", "GradientSATSampler"),
    ("store.get", "repro.store.store", "get", "ArtifactStore"),
    ("store.put", "repro.store.store", "put", "ArtifactStore"),
    ("serve.submit", "repro.serve.service", "submit", "SamplingService"),
)


class Bucket(NamedTuple):
    """What one job (or one set-up step) spent in each layer."""

    self_seconds: Dict[str, float]
    inclusive_seconds: Dict[str, float]
    calls: Dict[str, int]
    top_level_seconds: float

    @property
    def attributed(self) -> float:
        return sum(self.self_seconds.values())


class Tracer:
    """Accumulates span self times and call counts into the open bucket."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []  # [start, enclosed seconds]
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_seconds: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of outermost spans (checks the self-time sums).
        self.top_level_seconds = 0.0

    def reset(self) -> "Bucket":
        """Return and clear the bucket (between jobs; never inside a span)."""
        taken = Bucket(
            dict(self.self_seconds), dict(self.inclusive_seconds),
            dict(self.calls), self.top_level_seconds,
        )
        self.self_seconds = defaultdict(float)
        self.inclusive_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.top_level_seconds = 0.0
        return taken

    def wrap(self, layer: str, function: Callable) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [_perf(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _perf() - frame[0]
                stack.pop()
                self.self_seconds[layer] += elapsed - frame[1]
                self.inclusive_seconds[layer] += elapsed
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_seconds += elapsed

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced


_installed: List[Tuple[object, str, object]] = []


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES`; the wrapping is process-wide,
    so a second install before :func:`uninstall` is refused."""
    import importlib

    if _installed:
        raise RuntimeError("layer tracing is already installed")
    for layer, module_name, attribute, class_name in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, tracer.wrap(layer, original))
            _installed.append((owner, attribute, original))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(layer, original)
        # ``from module import name`` copies the reference: rebind it in
        # every loaded module of the program, not only where it is defined.
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not getattr(loaded, "__name__", "").startswith("repro") or namespace is None:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, name, wrapper)
                    _installed.append((loaded, name, original))


def installed() -> bool:
    return bool(_installed)


def uninstall() -> None:
    """Restore every wrapped attribute."""
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)


def transform_stage_seconds() -> Dict[str, float]:
    """Cumulative ``repro_transform_stage_seconds_total`` by stage."""
    from repro import obs

    metric = obs.registry().get("repro_transform_stage_seconds_total")
    if metric is None:
        return {}
    return {key[0]: float(value) for key, value in metric.series().items()}
