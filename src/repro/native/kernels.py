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

    def engine_forward(self, program, values) -> None:
        """Run the op stream in place over the ``(slots, batch)`` float matrix."""
        state = engine_native_state(program)
        fn, ctype = self._float_kernel(values, "forward")
        fn(_ptr(values, ctype), values.shape[1], *_op_pointers(state))

    def engine_backward(self, program, values, grads) -> None:
        """Accumulate operand gradients in place (reverse op order)."""
        state = engine_native_state(program)
        fn, ctype = self._float_kernel(values, "backward")
        fn(
            _ptr(values, ctype),
            _ptr(grads, ctype),
            values.shape[1],
            *_op_pointers(state),
        )

    def engine_execute_bool(self, program, values) -> None:
        """Boolean mode in place over the ``(slots, batch)`` bool matrix."""
        state = engine_native_state(program)
        self._lib.repro_engine_execute_bool(
            _ptr(values.view(np.uint8), ctypes.c_uint8),
            values.shape[1],
            *_op_pointers(state),
        )

    def engine_execute_packed(self, program, values) -> None:
        """Bit-parallel mode in place over the ``(slots, lanes)`` uint64 matrix."""
        state = engine_native_state(program)
        self._lib.repro_engine_execute_packed(
            _ptr(values, ctypes.c_uint64), values.shape[1], *_op_pointers(state)
        )
