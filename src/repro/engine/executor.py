"""Execute a :class:`CompiledProgram`: fused forward, backward, bool, packed.

The value state of one execution is a dense ``(num_slots, batch)`` matrix —
slot-major so that every fused block writes a *contiguous* row range with one
fused array statement.  Three execution modes share the one program:

* :func:`forward` / :func:`backward` — the probabilistic relaxation in the
  backend's float dtype with a hand-written reverse pass.  The closed-form
  adjoints of the three primitive ops are all the engine needs (Table I's
  derivatives compose out of them): ``MUL`` routes ``g*b`` / ``g*a``, ``ADD``
  routes ``g`` twice and ``NOT`` routes ``-g``.  No autodiff tape, no
  per-gate Python objects.
* :func:`execute_bool` — the same program over boolean arrays
  (``MUL = &``, ``ADD = |``, ``NOT = ~``); backs circuit simulation.
* :func:`execute_packed` — 64 samples per ``uint64`` word, the classic
  bit-parallel simulation mode.

Every mode takes an optional ``xpb`` — an
:class:`~repro.xp.backend.ArrayBackend` — and defaults to the process-wide
active backend, so the same compiled program runs on NumPy (the bitwise
reference), CuPy or Torch.  The program's index arrays stay host-side; every
backend accepts host index arrays for gathers and scatters.  Backends
without native ``uint64`` support (:attr:`ArrayBackend.supports_packed`
false) execute the packed mode through the NumPy reference; its results stay
host NumPy arrays, since uint64 words are not representable on such
backends.

``ADD`` appearing only in XOR chains (disjoint operands) is what makes the
``|`` / bitwise interpretations exact — see :mod:`repro.engine.program`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram
from repro.xp import ArrayBackend, active_backend, backend_for, get_backend

#: Float dtypes the native engine kernels cover.
_NATIVE_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _native_kernels(xpb: ArrayBackend, float_mode: bool = False):
    """The native kernel set to engage for an execution on ``xpb``, or ``None``.

    Native execution engages automatically when the backend is NumPy and a
    native tier is importable (mode ``auto``); an explicitly requested
    ``native`` mode raises
    :class:`~repro.xp.backend.BackendUnavailableError` when unavailable, and
    ``python`` disables the fast path outright.  Device backends always run
    the array-program path — their data is not host-addressable.
    """
    if not xpb.is_numpy:
        return None
    if float_mode and np.dtype(xpb.float_dtype) not in _NATIVE_FLOAT_DTYPES:
        return None
    from repro import native

    return native.kernels_for(None)


class ForwardCache:
    """Forward-pass state kept alive for the reverse pass.

    Holds the full slot matrix plus the per-block operand gathers the forward
    pass materialised anyway — the backward pass reuses them instead of
    re-gathering, which removes two fancy-index copies per ``MUL`` block.
    The cache also pins the backend that produced it, so the reverse pass
    always runs where the forward ran.
    """

    __slots__ = ("values", "operands", "xpb")

    def __init__(
        self,
        values,
        operands: List[Optional[Tuple]],
        xpb: ArrayBackend,
    ) -> None:
        self.values = values
        self.operands = operands
        self.xpb = xpb


class NativeForwardCache:
    """Forward state of a native-kernel execution (no per-block gathers).

    The native forward runs in place over the slot matrix, so the reverse
    pass needs only the matrix itself plus the kernel set that produced it —
    :func:`backward` dispatches on the cache type.
    """

    __slots__ = ("values", "kernels", "xpb")

    def __init__(self, values, kernels, xpb: ArrayBackend) -> None:
        self.values = values
        self.kernels = kernels
        self.xpb = xpb


def _base_values(program: CompiledProgram, batch: int, xpb, dtype, zero, one):
    """Allocate the slot matrix and fill the base (input/constant) rows."""
    values = xpb.empty((program.num_slots, batch), dtype=dtype)
    if program.const0_slot >= 0:
        values[program.const0_slot] = zero
    if program.const1_slot >= 0:
        values[program.const1_slot] = one
    return values


def forward(
    program: CompiledProgram,
    probabilities,
    xpb: Optional[ArrayBackend] = None,
) -> Tuple[object, ForwardCache]:
    """Run the probabilistic forward pass on a ``(batch, input_width)`` matrix.

    Returns ``(outputs, cache)`` where ``outputs`` is the ``(batch, m)``
    output-probability matrix and ``cache`` the forward state the caller
    keeps alive if it intends to run :func:`backward`.
    """
    xpb = xpb or active_backend()
    probabilities = xpb.asarray(probabilities, dtype=xpb.float_dtype)
    if probabilities.ndim != 2 or probabilities.shape[1] != program.input_width:
        raise ValueError(
            f"expected probabilities of shape (batch, {program.input_width}), "
            f"got {tuple(probabilities.shape)}"
        )
    batch = probabilities.shape[0]
    values = _base_values(program, batch, xpb, xpb.float_dtype, 0.0, 1.0)
    if program.num_inputs:
        values[: program.num_inputs] = probabilities.T[program.input_columns]
    kernels = _native_kernels(xpb, float_mode=True)
    if kernels is not None:
        # One C/jitted pass over the flat op stream; elementwise per op, so
        # bitwise identical to the fused block path below.
        kernels.engine_forward(program, values)
        outputs = xpb.copy(values[program.output_slots].T)
        return outputs, NativeForwardCache(values, kernels, xpb)
    operands: List[Optional[Tuple]] = []
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            b = values[block.b_slots]
            xpb.multiply(a, b, out=out)
            operands.append((a, b))  # reused by the MUL adjoint
        elif block.opcode == OP_ADD:
            xpb.add(a, values[block.b_slots], out=out)
            operands.append(None)
        else:  # OP_NOT
            xpb.one_minus(a, out=out)
            operands.append(None)
    outputs = xpb.copy(values[program.output_slots].T)
    return outputs, ForwardCache(values, operands, xpb)


def backward(
    program: CompiledProgram,
    cache: ForwardCache,
    output_grads,
) -> object:
    """Reverse pass: map ``dL/dY`` to ``dL/dP`` using the forward cache.

    ``output_grads`` is ``(batch, m)`` like the forward outputs; the result
    has the caller's input-matrix shape ``(batch, input_width)`` with zeros in
    columns outside the cone (matching the interpreter's scatter semantics).
    Runs on the backend that produced ``cache``.
    """
    xpb = cache.xpb
    output_grads = xpb.asarray(output_grads, dtype=xpb.float_dtype)
    values = cache.values
    batch = values.shape[1]
    if tuple(output_grads.shape) != (batch, len(program.output_nets)):
        raise ValueError(
            f"expected output grads of shape ({batch}, {len(program.output_nets)}), "
            f"got {tuple(output_grads.shape)}"
        )
    grads = xpb.zeros_like(values)
    program.output_plan.scatter(grads, output_grads.T, xpb)
    if isinstance(cache, NativeForwardCache):
        # Sequential per-op reverse accumulation; matches the block path
        # within the engine's 1e-10 gradient contract (NumPy's scatter
        # reductions use platform-dependent accumulation orders).
        cache.kernels.engine_backward(program, values, grads)
        input_grads = xpb.zeros((batch, program.input_width), dtype=xpb.float_dtype)
        if program.num_inputs:
            input_grads[:, program.input_columns] = grads[: program.num_inputs].T
        return input_grads
    for index in range(len(program.blocks) - 1, -1, -1):
        block = program.blocks[index]
        g = grads[block.out_start : block.out_stop]
        if block.opcode == OP_MUL:
            a_vals, b_vals = cache.operands[index]
            block.a_plan.scatter(grads, g * b_vals, xpb)
            block.b_plan.scatter(grads, g * a_vals, xpb)
        elif block.opcode == OP_ADD:
            block.a_plan.scatter(grads, g, xpb)
            block.b_plan.scatter(grads, g, xpb)
        else:  # OP_NOT
            block.a_plan.scatter(grads, -g, xpb)
    input_grads = xpb.zeros((batch, program.input_width), dtype=xpb.float_dtype)
    if program.num_inputs:
        input_grads[:, program.input_columns] = grads[: program.num_inputs].T
    return input_grads


def execute_bool(
    program: CompiledProgram,
    input_matrix,
    xpb: Optional[ArrayBackend] = None,
) -> Dict[str, object]:
    """Boolean execution mode: ``(batch, input_width)`` bools to net vectors.

    Returns a map from every compiled net name to its boolean value vector
    (callers select the nets they asked the compiler for).  When no backend
    is passed, execution follows the input's residency
    (:func:`repro.xp.backend_for`): host matrices yield host vectors.
    """
    xpb = xpb or backend_for(input_matrix)
    input_matrix = xpb.asarray(input_matrix, dtype=xpb.bool_dtype)
    if input_matrix.ndim != 2 or input_matrix.shape[1] != program.input_width:
        raise ValueError(
            f"expected input matrix of shape (batch, {program.input_width}), "
            f"got {tuple(input_matrix.shape)}"
        )
    batch = input_matrix.shape[0]
    values = _base_values(program, batch, xpb, xpb.bool_dtype, False, True)
    if program.num_inputs:
        values[: program.num_inputs] = input_matrix.T[program.input_columns]
    kernels = _native_kernels(xpb)
    if kernels is not None:
        kernels.engine_execute_bool(program, values)
        return {name: values[slot] for name, slot in program.net_slot.items()}
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            xpb.logical_and(a, values[block.b_slots], out=out)
        elif block.opcode == OP_ADD:
            # ADD only encodes XOR-chain sums of disjoint events: OR is exact.
            xpb.logical_or(a, values[block.b_slots], out=out)
        else:  # OP_NOT
            xpb.logical_not(a, out=out)
    return {name: values[slot] for name, slot in program.net_slot.items()}


def execute_packed(
    program: CompiledProgram,
    packed_inputs: Dict[str, object],
    xpb: Optional[ArrayBackend] = None,
) -> Dict[str, object]:
    """Bit-parallel execution mode: 64 samples per ``uint64`` lane.

    ``packed_inputs`` maps every cone primary input to an identically shaped
    ``uint64`` array; returns a map from every compiled net to its packed
    vector of the same shape.  When no backend is passed, execution follows
    the inputs' residency (:func:`repro.xp.backend_for`): host uint64 arrays
    yield host results regardless of the active backend.  Backends without
    native ``uint64`` (``supports_packed`` false) run this mode on the NumPy
    reference, and the returned vectors are then host NumPy arrays (uint64
    words cannot live on such a backend).
    """
    if xpb is None:
        sample = next(iter(packed_inputs.values()), None)
        xpb = backend_for(sample) if sample is not None else active_backend()
    if not xpb.supports_packed:
        xpb = get_backend("numpy")
    template = None
    columns = []
    for name in program.cone_inputs:
        if name not in packed_inputs:
            raise ValueError(f"no packed vector provided for primary input {name!r}")
        array = xpb.asarray(packed_inputs[name], dtype=xpb.uint64_dtype)
        if template is not None and tuple(array.shape) != tuple(template.shape):
            raise ValueError(
                f"packed input arrays must share a shape; {name!r} has "
                f"{tuple(array.shape)}, expected {tuple(template.shape)}"
            )
        template = array
        columns.append(array.reshape(-1))
    if template is None and packed_inputs:
        # Cone has no primary inputs (constant-driven outputs): the callers'
        # packed arrays still dictate the lane count and output shape.
        template = xpb.asarray(
            next(iter(packed_inputs.values())), dtype=xpb.uint64_dtype
        )
    lanes = int(template.size) if template is not None else 1
    shape = tuple(template.shape) if template is not None else (1,)
    values = xpb.empty((program.num_slots, lanes), dtype=xpb.uint64_dtype)
    if program.const0_slot >= 0:
        values[program.const0_slot] = 0
    if program.const1_slot >= 0:
        values[program.const1_slot] = xpb.packed_ones_u64
    for slot, column in enumerate(columns):
        values[slot] = column
    kernels = _native_kernels(xpb)
    if kernels is not None:
        kernels.engine_execute_packed(program, values)
        return {
            name: values[slot].reshape(shape)
            for name, slot in program.net_slot.items()
        }
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            xpb.bitwise_and(a, values[block.b_slots], out=out)
        elif block.opcode == OP_ADD:
            xpb.bitwise_or(a, values[block.b_slots], out=out)
        else:  # OP_NOT
            xpb.bitwise_xor(a, xpb.packed_ones_u64, out=out)
    return {
        name: values[slot].reshape(shape) for name, slot in program.net_slot.items()
    }
