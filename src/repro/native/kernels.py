"""Array marshalling and per-artifact caching for the native C kernels.

:mod:`repro.native.cext` exposes raw kernels over flat C-contiguous buffers;
this module owns everything above them:

* flattening compiled artifacts into the layouts the kernels consume —
  :func:`cnf_native_arrays` for a :class:`~repro.cnf.kernel.CNFEvalPlan`,
  :func:`engine_native_state` for a
  :class:`~repro.engine.program.CompiledProgram` — memoised *on the artifact*
  so they drop with their owner exactly like the engine's block arrays and
  the CNF plan's device uploads.  Both memos are additionally tracked in
  :class:`~repro.utils.weakcache.OwnerRegistry` instances so
  :func:`repro.native.clear_caches` (folded into
  :func:`repro.xp.clear_caches`) can strip them process-wide;
* the :class:`NativeKernels` facade the integration points call.  Its
  methods take the repo's own objects (plans, programs) and host NumPy
  arrays, and return host NumPy arrays bitwise-identical to the pure-Python
  reference paths (gradients: within the engine's 1e-10 accumulation-order
  contract).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.utils.weakcache import OwnerRegistry

#: Plans holding memoised native arrays / programs holding native states.
_PLAN_OWNERS = OwnerRegistry()
_PROGRAM_OWNERS = OwnerRegistry()


def clear_artifact_caches() -> None:
    """Strip the native memos off every live plan and program."""
    _PLAN_OWNERS.clear(lambda plan: plan._native_arrays.clear())
    _PROGRAM_OWNERS.clear(lambda program: program.__dict__.pop("_native_state", None))


# -- CNF plan flattening ----------------------------------------------------------------
@dataclass(frozen=True)
class CNFNativeArrays:
    """The flat clause layout the CNF kernels consume (int64/uint8, contiguous)."""

    literal_columns: np.ndarray  # int64, one entry per literal
    literal_negated: np.ndarray  # uint8, parallel to literal_columns
    clause_offsets: np.ndarray  # int64, len = num_nonempty + 1 (end-inclusive)

    @property
    def num_clauses(self) -> int:
        return int(self.clause_offsets.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return int(
            self.literal_columns.nbytes
            + self.literal_negated.nbytes
            + self.clause_offsets.nbytes
        )


def cnf_native_arrays(plan) -> CNFNativeArrays:
    """The native layout of ``plan``, memoised on the plan itself."""
    arrays = plan._native_arrays.get("native")
    if arrays is None:
        offsets = np.empty(plan.reduce_offsets.shape[0] + 1, dtype=np.int64)
        offsets[:-1] = plan.reduce_offsets
        offsets[-1] = plan.num_literals
        arrays = CNFNativeArrays(
            literal_columns=np.ascontiguousarray(plan.literal_columns, dtype=np.int64),
            literal_negated=np.ascontiguousarray(plan.literal_negated, dtype=np.uint8),
            clause_offsets=offsets,
        )
        plan._native_arrays["native"] = arrays
        _PLAN_OWNERS.register(plan)
    return arrays


# -- engine program flattening ----------------------------------------------------------
@dataclass(frozen=True)
class EngineNativeState:
    """A compiled program as flat per-op arrays (the native execution layout)."""

    opcodes: np.ndarray  # uint8
    a_slots: np.ndarray  # int32
    b_slots: np.ndarray  # int32 (0 for NOT ops; never read)
    out_slots: np.ndarray  # int32

    @property
    def num_ops(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def nbytes(self) -> int:
        return int(
            self.opcodes.nbytes
            + self.a_slots.nbytes
            + self.b_slots.nbytes
            + self.out_slots.nbytes
        )


def engine_native_state(program) -> EngineNativeState:
    """Flatten ``program`` into per-op arrays, memoised on the program.

    The memo rides the program object, so it is dropped together with the
    program by the engine's mutation-driven invalidation and by the serving
    layer's byte-bounded :class:`~repro.serve.cache.ArtifactCache` eviction;
    :func:`repro.native.clear_caches` strips it explicitly.
    """
    state = program.__dict__.get("_native_state")
    if state is None:
        num_ops = program.num_ops
        opcodes = np.empty(num_ops, dtype=np.uint8)
        a_slots = np.empty(num_ops, dtype=np.int32)
        b_slots = np.zeros(num_ops, dtype=np.int32)
        out_slots = np.empty(num_ops, dtype=np.int32)
        position = 0
        for block in program.blocks:
            stop = position + block.size
            opcodes[position:stop] = block.opcode
            a_slots[position:stop] = block.a_slots
            if block.b_slots.size:
                b_slots[position:stop] = block.b_slots
            out_slots[position:stop] = np.arange(
                block.out_start, block.out_stop, dtype=np.int32
            )
            position = stop
        state = EngineNativeState(opcodes, a_slots, b_slots, out_slots)
        program._native_state = state
        _PROGRAM_OWNERS.register(program)
    return state


#: The NOT masks of the two bitwise modes: one 0/1 byte per sample, or one
#: bit per sample.
_BYTE_ONES = 0x0101010101010101
_WORD_ONES = 0xFFFFFFFFFFFFFFFF


def _as_bool_matrix(matrix) -> np.ndarray:
    """Host C-contiguous uint8 view of a boolean assignment matrix."""
    matrix = np.asarray(matrix)
    if matrix.dtype != np.bool_:
        matrix = matrix.astype(bool)
    return np.ascontiguousarray(matrix).view(np.uint8)


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def _op_pointers(state: EngineNativeState) -> tuple:
    """The per-op argument tail every engine kernel takes."""
    return (
        state.num_ops,
        _ptr(state.opcodes, ctypes.c_uint8),
        _ptr(state.a_slots, ctypes.c_int32),
        _ptr(state.b_slots, ctypes.c_int32),
        _ptr(state.out_slots, ctypes.c_int32),
    )


class NativeKernels:
    """The C kernels behind a repo-object-level API.

    Each method takes the repo's own objects (plans, programs) and host NumPy
    arrays, does the marshalling — contiguity, dtype views, scratch
    allocation, and the empty-formula / empty-clause special cases kept
    identical to :class:`~repro.cnf.kernel.CNFEvalPlan`'s fused paths — and
    calls into the shared library built by :mod:`repro.native.cext`.
    """

    tier = "cext"

    def __init__(self) -> None:
        from repro.native import cext

        self._lib = cext.load_library()
        #: Column-tile width of the float engine kernels (``cext.ENGINE_TILE``).
        self.tile = cext.ENGINE_TILE

    # -- CNF ----------------------------------------------------------------------------
    def _cnf_arguments(self, plan, matrix) -> tuple:
        batch, nvars = matrix.shape
        arrays = cnf_native_arrays(plan)
        scratch = np.empty((nvars, (batch + 63) // 64), dtype=np.uint64)
        return (
            _ptr(matrix, ctypes.c_uint8),
            batch,
            nvars,
            _ptr(arrays.literal_columns, ctypes.c_int64),
            _ptr(arrays.literal_negated, ctypes.c_uint8),
            _ptr(arrays.clause_offsets, ctypes.c_int64),
            arrays.num_clauses,
        ), _ptr(scratch, ctypes.c_uint64)

    def cnf_evaluate(self, plan, assignments) -> np.ndarray:
        """Per-row satisfaction, bitwise identical to ``plan.evaluate``."""
        matrix = _as_bool_matrix(assignments)
        batch = matrix.shape[0]
        if plan.num_empty:
            return np.zeros(batch, dtype=bool)
        if plan.reduce_offsets.size == 0:
            return np.ones(batch, dtype=bool)
        arguments, scratch = self._cnf_arguments(plan, matrix)
        out = np.empty(batch, dtype=np.uint8)
        self._lib.repro_cnf_eval(*arguments, scratch, _ptr(out, ctypes.c_uint8))
        return out.view(np.bool_)

    def cnf_unsatisfied_counts(self, plan, assignments) -> np.ndarray:
        """Per-row falsified-clause counts, identical to ``plan.unsatisfied_counts``."""
        matrix = _as_bool_matrix(assignments)
        batch = matrix.shape[0]
        if plan.reduce_offsets.size == 0:
            return np.full(batch, plan.num_empty, dtype=np.int64)
        arguments, scratch = self._cnf_arguments(plan, matrix)
        out = np.empty(batch, dtype=np.int64)
        self._lib.repro_cnf_unsat_counts(
            *arguments, plan.num_empty, scratch, _ptr(out, ctypes.c_int64)
        )
        return out

    # -- engine -------------------------------------------------------------------------
    def _float_kernel(self, values, direction: str):
        if values.dtype == np.float64:
            return getattr(self._lib, f"repro_engine_{direction}_f64"), ctypes.c_double
        return getattr(self._lib, f"repro_engine_{direction}_f32"), ctypes.c_float

    def float_columns(self, batch: int) -> int:
        """Columns of a float slot matrix for ``batch`` samples: whole tiles."""
        return -(-batch // self.tile) * self.tile

    @staticmethod
    def bool_columns(batch: int) -> int:
        """Columns of a bool slot matrix for ``batch`` samples: whole words."""
        return -(-batch // 8) * 8

    def _check_tiled(self, values) -> None:
        if values.shape[1] % self.tile or not values.flags.c_contiguous:
            raise ValueError(
                f"float slot matrices must be C-contiguous with a multiple of "
                f"{self.tile} columns, got shape {values.shape}"
            )

    def engine_forward(self, program, values) -> None:
        """Run the op stream in place over a float slot matrix whose column
        count is a multiple of :attr:`tile` (:meth:`float_columns`)."""
        self._check_tiled(values)
        state = engine_native_state(program)
        fn, ctype = self._float_kernel(values, "forward")
        fn(_ptr(values, ctype), values.shape[1], *_op_pointers(state))

    def engine_backward(self, program, values, grads) -> None:
        """Accumulate operand gradients in place (reverse op order)."""
        self._check_tiled(values)
        if grads.shape != values.shape or not grads.flags.c_contiguous:
            raise ValueError(f"grads must match the slot matrix {values.shape}")
        state = engine_native_state(program)
        fn, ctype = self._float_kernel(values, "backward")
        fn(
            _ptr(values, ctype),
            _ptr(grads, ctype),
            values.shape[1],
            *_op_pointers(state),
        )

    def engine_step(self, program, batch: int, dtype) -> "EngineStep":
        """The fused GD-step kernel bound to ``program`` and a ``batch``-row chunk."""
        return EngineStep(self._lib, self.tile, program, batch, np.dtype(dtype))

    def engine_execute_bool(self, program, values) -> None:
        """Boolean mode in place over the ``(slots, columns)`` bool matrix.

        ``columns`` must be a multiple of 8 (:meth:`bool_columns`): the
        kernel runs over the rows as 64-bit words of eight 0/1 bytes.
        """
        if values.shape[1] % 8 or not values.flags.c_contiguous:
            raise ValueError(
                "bool slot matrices must be C-contiguous with a multiple of 8 "
                f"columns, got shape {values.shape}"
            )
        self._execute_bits(program, values.view(np.uint64), _BYTE_ONES)

    def engine_execute_packed(self, program, values) -> None:
        """Bit-parallel mode in place over the ``(slots, lanes)`` uint64 matrix."""
        self._execute_bits(program, values, _WORD_ONES)

    def _execute_bits(self, program, words, ones: int) -> None:
        state = engine_native_state(program)
        self._lib.repro_engine_execute_bits(
            _ptr(words, ctypes.c_uint64), words.shape[1], ones, *_op_pointers(state)
        )


class EngineStep:
    """``repro_engine_step_*`` bound to one program and one chunk of rows.

    Holds the chunk's scratch — the ``(slots, tile)`` value and gradient
    tiles, the ``(batch, outputs)`` output matrix and the ``(batch,
    input_width)`` input-gradient matrix — plus the kernel's constant
    arguments, so an iteration allocates nothing.  :meth:`run` overwrites
    the returned arrays on every call.
    """

    def __init__(self, lib, tile: int, program, batch: int, dtype: np.dtype) -> None:
        if dtype == np.float64:
            fn, ctype = lib.repro_engine_step_f64, ctypes.c_double
        elif dtype == np.float32:
            fn, ctype = lib.repro_engine_step_f32, ctypes.c_float
        else:
            raise ValueError(f"no native engine step for dtype {dtype}")
        state = engine_native_state(program)
        self._fn, self._ctype, self._dtype = fn, ctype, dtype
        self.batch = int(batch)
        self.width = program.input_width
        self.num_outputs = len(program.output_nets)
        self.outputs = np.empty((self.batch, self.num_outputs), dtype=dtype)
        # Columns outside the cone keep their zeros: the kernel never writes them.
        self.input_grads = np.zeros((self.batch, self.width), dtype=dtype)
        self._values = np.zeros((program.num_slots, tile), dtype=dtype)
        self._grads = np.empty_like(self._values)
        self._input_columns = np.ascontiguousarray(program.input_columns, dtype=np.int32)
        self._output_slots = np.ascontiguousarray(program.output_slots, dtype=np.int32)
        self._pinned = state  # keeps the op arrays alive with the pointers below
        self._tail = (
            _ptr(self.outputs, ctype),
            _ptr(self.input_grads, ctype),
            self.batch,
            self.width,
            self.num_outputs,
            _ptr(self._input_columns, ctypes.c_int32),
            program.num_inputs,
            _ptr(self._output_slots, ctypes.c_int32),
            program.const0_slot,
            program.const1_slot,
            _ptr(self._values, ctype),
            _ptr(self._grads, ctype),
            program.num_slots,
            *_op_pointers(state),
        )

    def _operand(self, array, columns: int, name: str) -> np.ndarray:
        array = np.ascontiguousarray(array, dtype=self._dtype)
        if array.shape != (self.batch, columns):
            raise ValueError(
                f"expected {name} of shape {(self.batch, columns)}, got {array.shape}"
            )
        return array

    def run(self, probabilities, targets):
        """``(outputs, input_grads)`` of one iteration for ``probabilities``.

        ``outputs`` is ``Y = F(P)``; ``input_grads`` is ``dL/dP`` of the loss
        ``sum((Y - T)^2)`` — bitwise what the slot-matrix ``forward`` and
        ``backward`` give with output grads ``(Y - T) + (Y - T)``.
        """
        probabilities = self._operand(probabilities, self.width, "probabilities")
        targets = self._operand(targets, self.num_outputs, "targets")
        self._fn(_ptr(probabilities, self._ctype), _ptr(targets, self._ctype), *self._tail)
        return self.outputs, self.input_grads
