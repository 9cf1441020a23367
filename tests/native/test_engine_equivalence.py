"""Native engine kernels pinned to the pure-NumPy executor paths.

Contract (same as the cross-backend suite): forward outputs and the discrete
bool/packed modes are **bitwise** identical; input gradients match within the
engine's documented 1e-10 accumulation-order budget; and a fixed-seed
end-to-end sampling run produces the byte-identical solution stream.  The
fused GD-step kernel is pinned bit for bit to the native forward + backward
it replaces in the training loop.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.xp as xp
from repro import native
from repro.circuit.gates import GateType
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.engine.compiler import cached_programs, compile_circuit
from repro.engine.executor import (
    GradientStep,
    backward,
    execute_bool,
    execute_packed,
    forward,
)
from repro.engine.train import learn_batch, sigmoid_embedding
from repro.instances.registry import get_instance
from repro.serve.cache import build_artifact
from repro.store import ArtifactStore, load_sampling_artifact, persist_artifact
from repro.tensor.optim import make_optimizer
from repro.tensor.tensor import Tensor
from tests.engine.conftest import random_circuit

GRAD_TOLERANCE = 1e-10


def _program(seed: int, num_gates: int = 60):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=7, num_gates=num_gates, num_outputs=3)
    return compile_circuit(circuit, list(circuit.outputs)), circuit


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestExecutorEquivalence:
    def test_forward_is_bitwise(self, tier, seed):
        program, _ = _program(seed)
        probabilities = np.random.default_rng(seed).random((16, program.input_width))
        with native.use_kernel("python"):
            reference, _ = forward(program, probabilities)
        with native.use_kernel("native"):
            outputs, cache = forward(program, probabilities)
        assert cache.__class__.__name__ == "NativeForwardCache"
        np.testing.assert_array_equal(outputs, reference)

    def test_backward_within_gradient_budget(self, tier, seed):
        program, _ = _program(seed)
        rng = np.random.default_rng(seed + 100)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        with native.use_kernel("python"):
            _, cache = forward(program, probabilities)
            reference = backward(program, cache, seed_grad)
        with native.use_kernel("native"):
            _, cache = forward(program, probabilities)
            grads = backward(program, cache, seed_grad)
        np.testing.assert_allclose(grads, reference, rtol=0.0, atol=GRAD_TOLERANCE)

    def test_bool_mode_is_bitwise(self, tier, seed):
        program, circuit = _program(seed)
        matrix = np.random.default_rng(seed).random((33, program.input_width)) < 0.5
        with native.use_kernel("python"):
            reference = execute_bool(program, matrix)
        with native.use_kernel("native"):
            values = execute_bool(program, matrix)
        for net in circuit.outputs:
            np.testing.assert_array_equal(values[net], reference[net])

    def test_packed_mode_is_bitwise(self, tier, seed):
        program, circuit = _program(seed)
        rng = np.random.default_rng(seed)
        packed_inputs = {
            name: rng.integers(0, 2**63, size=5, dtype=np.uint64)
            for name in program.cone_inputs
        }
        with native.use_kernel("python"):
            reference = execute_packed(program, dict(packed_inputs))
        with native.use_kernel("native"):
            values = execute_packed(program, dict(packed_inputs))
        for net in circuit.outputs:
            np.testing.assert_array_equal(values[net], reference[net])


class TestFloat32Policy:
    def test_forward_is_bitwise_in_float32(self, tier):
        import repro.xp as xp

        program, _ = _program(seed=5)
        probabilities = np.random.default_rng(5).random((16, program.input_width))
        backend = xp.get_backend("numpy:float32")
        probs32 = probabilities.astype(np.float32)
        with native.use_kernel("python"):
            reference, _ = forward(program, probs32, backend)
        with native.use_kernel("native"):
            outputs, _ = forward(program, probs32, backend)
        np.testing.assert_array_equal(outputs, reference)


class TestEndToEndSampling:
    """The acceptance contract: native vs python solution streams are identical."""

    def test_fixed_seed_sample_run_matches_python(self, tier, fig1_formula):
        config = SamplerConfig(batch_size=64, seed=11, max_rounds=3)

        def run(mode):
            with native.use_kernel(mode):
                return sample_cnf(fig1_formula, num_solutions=40, config=config)

        reference = run("python")
        candidate = run("native")
        ref_matrix = reference.sample.solution_matrix()
        matrix = candidate.sample.solution_matrix()
        assert matrix.tobytes() == ref_matrix.tobytes()
        assert (
            candidate.sample.num_generated
            == reference.sample.num_generated
        )

    def test_config_kernel_field_reaches_the_sampler(self, tier, fig1_formula):
        config = SamplerConfig(batch_size=32, seed=3, max_rounds=1, kernel="native")
        result = sample_cnf(fig1_formula, num_solutions=10, config=config)
        reference = sample_cnf(
            fig1_formula,
            num_solutions=10,
            config=SamplerConfig(batch_size=32, seed=3, max_rounds=1, kernel="python"),
        )
        assert (
            result.sample.solution_matrix().tobytes()
            == reference.sample.solution_matrix().tobytes()
        )


def _step_program(seed: int, duplicate_output: bool = False, wide: bool = False):
    """A random program whose cone reads both constant slots.

    ``duplicate_output`` lists one output net twice (the duplicate-scatter
    path); ``wide`` adds input columns outside the cone, interleaved with
    the cone's own.
    """
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=7, num_gates=60, num_outputs=3)
    last = circuit.outputs[-1]
    circuit.add_gate("uses_zero", GateType.OR, ["const_zero", last])
    circuit.add_gate("uses_one", GateType.AND, ["const_one", circuit.outputs[0]])
    outputs = list(circuit.outputs) + ["uses_zero", "uses_one"]
    if duplicate_output:
        outputs.append(outputs[1])
    order = list(circuit.inputs)[::-1]
    if wide:
        order = [name for pair in zip(order, [f"pad{i}" for i in order]) for name in pair]
    program = compile_circuit(circuit, outputs, order)
    assert program.const0_slot >= 0 and program.const1_slot >= 0
    assert program.output_plan.unique is not duplicate_output
    assert program.input_width > program.num_inputs or not wide
    return program


def _step_inputs(program, batch: int, seed: int, dtype, zero_targets: bool):
    rng = np.random.default_rng(seed)
    probabilities = rng.random((batch, program.input_width))
    # Exact 0/1 probabilities drive products to (signed) zeros.
    probabilities[rng.random(probabilities.shape) < 0.1] = 0.0
    probabilities[rng.random(probabilities.shape) < 0.1] = 1.0
    targets = np.ones((batch, len(program.output_nets)))
    if zero_targets:
        targets[:, ::2] = 0.0  # as CircuitSampler.output_targets asks for False nets
    return probabilities.astype(dtype), targets.astype(dtype)


class TestFusedStep:
    """``repro_engine_step`` vs native forward + backward, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 31, 32, 33, 512, 2048])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "shape", ["plain", "duplicate_output", "wide", "zero_targets"]
    )
    def test_step_matches_forward_backward_bitwise(self, tier, batch, dtype, shape):
        program = _step_program(
            seed=batch, duplicate_output=shape == "duplicate_output", wide=shape == "wide"
        )
        probabilities, targets = _step_inputs(
            program, batch, seed=batch + 1, dtype=dtype, zero_targets=shape == "zero_targets"
        )
        backend = xp.get_backend(f"numpy:{dtype}")
        with native.use_kernel("native"):
            outputs, cache = forward(program, probabilities, backend)
            difference = outputs - targets
            reference = backward(program, cache, difference + difference)
            step = GradientStep(program, batch, backend)
            assert step._fused is not None
            fused_outputs, fused_grads = step._fused.run(probabilities, targets)
            fused_difference, stepped_grads = step(probabilities, targets)
        assert fused_outputs.dtype == np.dtype(dtype)
        assert fused_outputs.tobytes() == outputs.tobytes()
        assert fused_grads.tobytes() == reference.tobytes()
        assert stepped_grads.tobytes() == reference.tobytes()
        assert fused_difference.tobytes() == difference.tobytes()

    def test_repeated_calls_reuse_scratch_without_leaking_state(self, tier):
        program = _step_program(seed=3, wide=True)
        step_inputs = [
            _step_inputs(program, 45, seed, "float64", zero_targets=bool(seed % 2))
            for seed in range(3)
        ]
        with native.use_kernel("native"):
            step = GradientStep(program, 45)
            for probabilities, targets in step_inputs:
                outputs, cache = forward(program, probabilities)
                difference = outputs - targets
                reference = backward(program, cache, difference + difference)
                _, grads = step(probabilities, targets)
                assert grads.tobytes() == reference.tobytes()

    def test_python_mode_runs_the_block_path(self, tier):
        program = _step_program(seed=4)
        probabilities, targets = _step_inputs(program, 40, 4, "float64", False)
        with native.use_kernel("python"):
            step = GradientStep(program, 40)
            assert step._fused is None
            difference, grads = step(probabilities, targets)
            outputs, cache = forward(program, probabilities)
            reference = backward(program, cache, difference + difference)
        with native.use_kernel("native"):
            fused_difference, fused_grads = GradientStep(program, 40)(probabilities, targets)
        assert difference.tobytes() == fused_difference.tobytes()
        assert grads.tobytes() == reference.tobytes()
        np.testing.assert_allclose(fused_grads, grads, rtol=0.0, atol=GRAD_TOLERANCE)

    def test_shape_mismatch_is_rejected_before_the_kernel_runs(self, tier):
        program = _step_program(seed=5)
        with native.use_kernel("native"):
            step = GradientStep(program, 8)
            probabilities, targets = _step_inputs(program, 9, 5, "float64", False)
            with pytest.raises(ValueError, match="probabilities"):
                step(probabilities, targets)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_learn_batch_matches_a_hand_rolled_loop(self, tier, optimizer):
        """Hard bits and loss history equal the pre-fusion forward/backward loop."""
        program = _step_program(seed=6, wide=True)
        config = SamplerConfig(batch_size=96, iterations=4, optimizer=optimizer, seed=0)
        _, targets = _step_inputs(program, 96, 6, "float64", zero_targets=True)

        def draw(rows):
            return np.random.default_rng(rows).normal(size=(rows, program.input_width))

        with native.use_kernel("native"):
            hard, losses, halted = learn_batch(program, 96, targets, config, draw)
            backend = xp.get_backend("numpy")
            parameter = Tensor(draw(96), requires_grad=True)
            step_optimizer = make_optimizer([parameter], optimizer, config.learning_rate)
            expected_losses = []
            for _ in range(config.iterations):
                probabilities = sigmoid_embedding(parameter.data, backend)
                outputs, cache = forward(program, probabilities, backend)
                difference = outputs - targets
                expected_losses.append(float((difference * difference).sum()))
                input_grads = backward(program, cache, difference + difference)
                parameter.grad = input_grads * probabilities * (1.0 - probabilities)
                step_optimizer.step()
        assert not halted
        assert losses == expected_losses
        assert hard.tobytes() == (parameter.data > 0.0).tobytes()


class TestCompletionFromTheSlotMatrix:
    def test_store_loaded_transform_completes_like_the_reference(self, tier, tmp_path):
        formula = get_instance("or-50-10-7-UC-10").build_cnf()
        artifact = build_artifact(formula)
        transform = artifact.transform
        rng = np.random.default_rng(0)
        inputs = rng.random((77, len(transform.primary_inputs))) < 0.5
        transform.complete_assignments(inputs)  # compiles the completion program
        store = ArtifactStore(tmp_path / "store")
        assert persist_artifact(store, artifact)
        loaded = load_sampling_artifact(store, artifact.signature).transform
        adopted = len(cached_programs(loaded.circuit))
        free = None
        if loaded.free_variables:
            free = rng.random((77, len(loaded.free_variables))) < 0.5
        with native.use_kernel("native"):
            fast = loaded.complete_assignments(inputs, free)
        with native.use_kernel("python"):
            python = loaded.complete_assignments(inputs, free)
            reference = loaded.complete_assignments(inputs, free, use_fast_path=False)
        assert len(cached_programs(loaded.circuit)) == adopted  # a memo hit
        assert fast.tobytes() == reference.tobytes()
        assert python.tobytes() == reference.tobytes()
