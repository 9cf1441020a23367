"""The engine-side gradient-descent loop (Eqs. 6--10 without an autodiff tape).

One :func:`learn_batch` call replaces the interpreter's whole per-round
training.  Each iteration is the sigmoid embedding, one
:class:`~repro.engine.executor.GradientStep` call — compiled forward,
closed-form L2-loss gradient and compiled backward; on host NumPy with the
native C tier up, a single fused kernel call over per-chunk scratch — then
the loss, the sigmoid adjoint and the optimizer step: a handful of array
statements per iteration instead of thousands of per-gate tape nodes.

Every arithmetic step reproduces the legacy interpreter bit for bit:

* the loss gradient is ``d + d`` with ``d = Y - T`` (how the tape's
  ``square = mul(x, x)`` accumulates its two branches);
* the sigmoid adjoint multiplies left to right (``(dP * P) * (1 - P)``);
* parameter updates run through the *same* :class:`~repro.tensor.optim.SGD` /
  :class:`~repro.tensor.optim.Adam` classes, driving a parameter
  :class:`~repro.tensor.tensor.Tensor` whose gradient the engine fills in
  directly.

Device chunking happens here at the program level: the batch is split into
``config.device.chunks`` spans and each span runs the full compiled loop,
so ``gpu-sim`` is one launch and ``cpu`` a per-sample loop — same semantics
as the legacy Python-sliced path, same RNG consumption order.

The array backend the loop runs on is resolved from the config
(``SamplerConfig.resolve_array_backend``: environment < config < CLI) and
activated for the duration of the batch, so the tensor-level optimizer state
and the compiled passes live on the same device.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.engine.executor import GradientStep
from repro.engine.program import CompiledProgram
from repro.tensor.optim import make_optimizer
from repro.tensor.tensor import Tensor
from repro.xp import ArrayBackend, active_backend, use_backend
from repro import obs

_GD_ITERATIONS = obs.counter(
    "repro_engine_gd_iterations_total",
    "Gradient-descent iterations executed by the compiled engine.",
)

if TYPE_CHECKING:  # imported lazily to keep the engine free of core imports
    from repro.core.config import SamplerConfig


def sigmoid_embedding(soft_inputs, xpb: Optional[ArrayBackend] = None):
    """Eq. 6: ``P = sigma(V)`` (bitwise-identical to the tensor op)."""
    xpb = xpb or active_backend()
    soft = xpb.asarray(soft_inputs, dtype=xpb.float_dtype)
    return 1.0 / (1.0 + xpb.exp(-soft))


def learn_chunk(
    program: CompiledProgram,
    initial_soft_inputs,
    targets,
    config: "SamplerConfig",
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[object, List[float], bool]:
    """Run the configured GD iterations on one chunk of soft inputs.

    ``deadline`` is an absolute ``time.perf_counter`` instant; when it passes
    mid-chunk the remaining iterations are skipped (the overshoot is bounded
    by one iteration instead of a whole round) and the partially-trained bits
    are still returned — downstream validation decides whether they satisfy
    the formula.  ``should_stop`` is the cooperative-cancellation hook
    (polled at exactly the deadline check points): a truthy return abandons
    the remaining iterations the same way an expired deadline does, so an
    external scheduler — the portfolio scheduler of :mod:`repro.serve` in
    particular — can retire a chunk mid-flight.  Returns the thresholded
    hard bits (``V > 0``), the loss history, and whether the deadline or the
    stop hook cut the chunk short.
    """
    xpb = active_backend()
    parameter = Tensor(initial_soft_inputs, requires_grad=True)
    targets = xpb.asarray(targets, dtype=xpb.float_dtype)
    optimizer = make_optimizer([parameter], config.optimizer, config.learning_rate)
    step = GradientStep(program, parameter.data.shape[0], xpb)
    loss_history: List[float] = []
    halted = False
    for _ in range(config.iterations):
        if deadline is not None and time.perf_counter() >= deadline:
            halted = True
            break
        if should_stop is not None and should_stop():
            halted = True
            break
        probabilities = sigmoid_embedding(parameter.data, xpb)
        difference, input_grads = step(probabilities, targets)
        loss = float((difference * difference).sum())
        parameter.grad = input_grads * probabilities * (1.0 - probabilities)
        optimizer.step()
        loss_history.append(loss)
    if loss_history:
        _GD_ITERATIONS.inc(len(loss_history))
    return parameter.data > 0.0, loss_history, halted


def learn_batch(
    program: CompiledProgram,
    batch_size: int,
    targets,
    config: "SamplerConfig",
    draw_initial: Callable[[int], object],
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[object, List[float], bool]:
    """Learn a full batch of soft assignments with program-level chunking.

    ``draw_initial`` draws the ``(chunk, n)`` Gaussian initialisation for each
    device chunk in order, which keeps RNG consumption identical to the legacy
    interpreter's chunk loop.  When ``deadline`` (absolute
    ``time.perf_counter`` instant) expires or ``should_stop`` returns true —
    both are polled between chunks and, inside :func:`learn_chunk`, between
    iterations — untrained chunks are dropped and the returned matrix is
    truncated to the rows actually learned.  Returns the hard bit matrix (on
    the configured array backend), the first chunk's loss history (the
    round-level convergence signal), and whether the run was halted early.
    """
    with obs.span("engine.learn_batch") as bspan, \
            use_backend(config.resolve_array_backend()) as xpb:
        bspan.set("batch_size", batch_size)
        hard = xpb.zeros((batch_size, program.input_width), dtype=xpb.bool_dtype)
        loss_history: List[float] = []
        completed = 0
        halted = False
        for start, stop in config.device.chunks(batch_size):
            if deadline is not None and time.perf_counter() >= deadline:
                halted = True
                break
            if should_stop is not None and should_stop():
                halted = True
                break
            chunk_hard, chunk_losses, chunk_halted = learn_chunk(
                program,
                draw_initial(stop - start),
                targets[start:stop],
                config,
                deadline,
                should_stop,
            )
            hard[start:stop] = chunk_hard
            completed = stop
            if not loss_history:
                loss_history = chunk_losses
            if chunk_halted:
                halted = True
                break
        return hard[:completed], loss_history, halted
