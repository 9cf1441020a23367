"""Native kernels vs the NumPy paths on the measured hot-loop dominators.

The ``repro.native`` C tier compiles exactly the loops profiling shows
dominate wall-clock once everything NumPy can vectorise is vectorised: the
CNF kernel's clause reduction and the engine executor's per-slot op loops.
This benchmark times three legs on the headline instance with the native
kernels engaged and with kernels forced off (``use_kernel("python")``):

* ``cnf_eval`` — ``evaluate_batch`` + ``unsatisfied_clause_counts``;
* ``engine_fwd_bwd`` — the slot-matrix ``forward`` + ``backward``;
* ``engine_gd_step`` — one GD iteration's circuit work as the training loop
  runs it (:class:`~repro.engine.executor.GradientStep`): the fused
  ``repro_engine_step`` kernel against NumPy forward + backward.

It prints the speedups and rewrites ``BENCH_native.json`` with the record —
committing the file each PR accumulates the kernels' perf trajectory in
version history.

All timed loops run *warm*: the session-scoped ``warm_native_kernels``
fixture (see ``conftest.py``) brings the library up first.  The record's
``compile_seconds`` is a real build: the median of three fresh processes
each building the library into an empty temporary
``REPRO_NATIVE_CACHE_DIR``.

The gate asserts the best dominator speedup against
``REPRO_BENCH_NATIVE_MIN_SPEEDUP`` (default 2.0; CI uses a lower floor for
noisy shared runners).  Hosts where the C tier cannot be brought up skip
loudly instead of silently passing.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.obs.bench import time_passes
from benchmarks.bench_transform_cold import HEADLINE_INSTANCE
from benchmarks.conftest import engine_bench_batch, native_min_speedup
from repro import native
from repro.core.model import ProbabilisticCircuitModel
from repro.core.transform import transform_cnf
from repro.engine.executor import GradientStep
from repro.engine.executor import backward as engine_backward
from repro.engine.executor import forward as engine_forward
from repro.native.cext import CACHE_DIR_ENV_VAR
from repro.instances.registry import get_instance

#: Where the native-vs-NumPy comparison records its trajectory.
BENCH_NATIVE_JSON = Path(__file__).resolve().parent.parent / "BENCH_native.json"

_SRC = Path(__file__).resolve().parent.parent / "src"

_BUILD_SCRIPT = (
    "from repro.native import cext; cext.load_library(); print(cext.compile_seconds())"
)


def fresh_build_seconds(builds: int = 3) -> float:
    """Median seconds of ``builds`` library builds, each into an empty cache dir."""
    seconds = []
    for _ in range(builds):
        with tempfile.TemporaryDirectory() as cache_dir:
            env = dict(os.environ, PYTHONPATH=str(_SRC))
            env[CACHE_DIR_ENV_VAR] = cache_dir
            result = subprocess.run(
                [sys.executable, "-c", _BUILD_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            seconds.append(float(result.stdout.strip().splitlines()[-1]))
    return statistics.median(seconds)


@pytest.mark.benchmark(group="native")
def test_native_kernels_vs_numpy(benchmark):
    """Native vs NumPy on CNF eval, engine fwd+bwd and the fused GD step."""
    if not native.native_available():
        pytest.skip(
            "the native C tier cannot be brought up on this host "
            "(no system C compiler) — native speedup gate skipped"
        )
    tier = native.active_tier("auto")
    compile_seconds = fresh_build_seconds()
    entry = get_instance(HEADLINE_INSTANCE)
    formula = entry.build_cnf()
    batch = engine_bench_batch()
    rng = np.random.default_rng(0)

    # -- dominator 1: CNF clause loop (evaluate + unsat counts) --------------------------
    transform = transform_cnf(formula)
    inputs = rng.random((batch, len(transform.primary_inputs))) < 0.5
    free = None
    if transform.free_variables:
        free = rng.random((batch, len(transform.free_variables))) < 0.5
    candidates = transform.complete_assignments(inputs, free)
    formula.evaluation_plan()  # compile outside every timed region

    def cnf_numpy():
        # "compiled" takes the C kernel whenever the mode allows: pin it off.
        with native.use_kernel("python"):
            formula.evaluate_batch(candidates, backend="compiled")
            formula.unsatisfied_clause_counts(candidates, backend="compiled")

    def cnf_native():
        formula.evaluate_batch(candidates, backend="native")
        formula.unsatisfied_clause_counts(candidates, backend="native")

    np.testing.assert_array_equal(
        formula.evaluate_batch(candidates, backend="native"),
        formula.evaluate_batch(candidates, backend="compiled"),
    )

    # -- dominator 2: engine slot executor (forward + backward) --------------------------
    model = ProbabilisticCircuitModel.from_transform(transform, backend="engine")
    program = model.program  # compile outside the timed region
    probabilities = rng.random((batch, model.num_inputs))
    seed_grad = np.ones((batch, model.num_outputs))
    state = {}

    def engine_step():
        _, state["cache"] = engine_forward(program, probabilities)
        engine_backward(program, state["cache"], seed_grad)

    def engine_numpy():
        with native.use_kernel("python"):
            engine_step()

    def engine_native():
        with native.use_kernel("native"):
            engine_step()

    # -- dominator 3: one GD iteration's circuit work, fused vs NumPy --------------------
    targets = np.ones((batch, model.num_outputs))
    with native.use_kernel("native"):
        step_native = GradientStep(program, batch)
    with native.use_kernel("python"):
        step_numpy = GradientStep(program, batch)
        numpy_difference, numpy_grads = step_numpy(probabilities, targets)
    fused_difference, fused_grads = step_native(probabilities, targets)
    np.testing.assert_array_equal(fused_difference, numpy_difference)
    np.testing.assert_allclose(fused_grads, numpy_grads, rtol=0.0, atol=1e-10)

    def gd_step_numpy():
        with native.use_kernel("python"):
            step_numpy(probabilities, targets)

    def gd_step_native():
        step_native(probabilities, targets)

    passes, repeats = 5, 3
    cnf_numpy_seconds = time_passes(cnf_numpy, repeats, passes, reduce="best")
    cnf_native_seconds = time_passes(cnf_native, repeats, passes, reduce="best")
    engine_numpy_seconds = time_passes(engine_numpy, repeats, passes, reduce="best")
    engine_native_seconds = time_passes(engine_native, repeats, passes, reduce="best")
    step_numpy_seconds = time_passes(gd_step_numpy, repeats, passes, reduce="best")
    step_native_seconds = benchmark.pedantic(
        lambda: time_passes(gd_step_native, repeats, passes, reduce="best"),
        rounds=1, iterations=1,
    )

    speedups = {
        "cnf_eval": cnf_numpy_seconds / cnf_native_seconds,
        "engine_fwd_bwd": engine_numpy_seconds / engine_native_seconds,
        "engine_gd_step": step_numpy_seconds / step_native_seconds,
    }
    best_dominator = max(speedups, key=speedups.get)
    record = {
        "instance": entry.name,
        "tier": tier,
        "available_tiers": list(native.available_tiers()),
        "batch_size": batch,
        "passes_timed": passes,
        "compile_seconds": compile_seconds,
        "cnf_numpy_seconds": cnf_numpy_seconds,
        "cnf_native_seconds": cnf_native_seconds,
        "engine_numpy_seconds": engine_numpy_seconds,
        "engine_native_seconds": engine_native_seconds,
        "gd_step_numpy_seconds": step_numpy_seconds,
        "gd_step_native_seconds": step_native_seconds,
        "speedups": speedups,
        "best_dominator": best_dominator,
        "best_speedup": speedups[best_dominator],
    }
    benchmark.extra_info.update(record)
    BENCH_NATIVE_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(
        f"{entry.name} [{tier}]: cnf {speedups['cnf_eval']:.1f}x, "
        f"engine fwd+bwd {speedups['engine_fwd_bwd']:.1f}x, "
        f"gd step {speedups['engine_gd_step']:.1f}x over NumPy "
        f"(fresh build {compile_seconds:.2f}s, excluded from all timed loops)"
    )
    minimum = native_min_speedup()
    if minimum <= 0:
        pytest.skip(
            f"native speedup gate disabled (REPRO_BENCH_NATIVE_MIN_SPEEDUP="
            f"{minimum}); measured best {speedups[best_dominator]:.2f}x"
        )
    assert speedups[best_dominator] >= minimum, (
        f"native kernels must beat the NumPy path by at least {minimum}x on "
        f"one dominator, got best {best_dominator} = "
        f"{speedups[best_dominator]:.2f}x"
    )
