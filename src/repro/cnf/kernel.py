"""Compiled CNF evaluation kernel.

Batch CNF evaluation used to walk the clause list in Python
(:meth:`~repro.cnf.formula.CNF.evaluate_batch`'s clause-by-clause,
literal-by-literal loop).  This module compiles a formula once into a flat
*evaluation plan* — the CNF analogue of the engine's levelized programs
(:mod:`repro.engine.program`):

* ``literal_columns`` / ``literal_negated`` — every literal occurrence of
  every non-empty clause, flattened into one index array and one sign array,
  so a single fancy-index gather ``assignments.T[columns] ^ negated``
  produces all literal values of the whole formula at once;
* ``reduce_offsets`` — clause start boundaries into the flat arrays, in the
  spirit of ``np.logical_or.reduceat``.  ``reduceat`` itself pays per-segment
  overhead on thousands of tiny clauses, so the clauses are stored sorted by
  width and each ``width_groups`` bucket reduces as a fused
  ``(clauses, width, batch)`` slice-OR instead — same flat layout, no
  per-clause Python or per-segment ufunc cost.  The boolean reductions run
  over the transposed ``(variables, batch)`` matrix so every gathered row is
  contiguous;
* a bit-packed variant that packs the batch axis 8 rows per byte
  (``np.packbits``) and reduces the flat layout with
  ``np.bitwise_or.reduceat`` / ``np.bitwise_and.reduce``, mirroring the
  engine's packed execution mode.

Empty clauses cannot ride either reduction (a zero-length segment is not an
identity reduction), so they are counted separately: one empty clause makes
every assignment unsatisfying.

Plans are memoised per :class:`~repro.cnf.formula.CNF` via
:meth:`~repro.cnf.formula.CNF.evaluation_plan` and invalidated whenever the
formula mutates (``add_clause`` or a ``num_variables`` change), mirroring the
engine's compile-once design; :func:`clear_plan_caches` (surfaced as
:func:`repro.xp.clear_caches`) drops them explicitly.  The clause-loop
implementation survives as the ``"reference"`` backend;
:func:`default_backend` (overridable with :func:`set_default_backend` or the
``REPRO_CNF_BACKEND`` environment variable) selects which implementation
:meth:`CNF.evaluate_batch` uses.

The fused kernels execute on the active *array backend*
(:mod:`repro.xp`): plan compilation stays host-side NumPy, while the plan's
index arrays are uploaded once per backend (memoised on the plan) so the
evaluation itself runs where the assignments live — NumPy bitwise-identical
to the seed, CuPy/Torch best-effort.  Note the two "backend" axes are
orthogonal: this module's ``backend`` strings pick the *kernel
implementation* ("compiled"/"packed"/"reference"); :mod:`repro.xp` picks the
*array runtime* it executes on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.utils.weakcache import OwnerRegistry
from repro.xp import ArrayBackend, backend_for, get_backend
from repro import obs

_PLAN_COMPILES = obs.counter(
    "repro_cnf_plan_compiles_total",
    "CNF evaluation plans flattened from clause lists.",
)
_CNF_EVALUATIONS = obs.counter(
    "repro_cnf_evaluations_total",
    "Batched CNF satisfaction evaluations by kernel flavour.",
    labels=("kind",),
)

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.cnf.formula
    from repro.cnf.formula import CNF

#: Accepted values for the evaluation-backend knob.
BACKENDS = ("compiled", "packed", "reference", "native")

#: Environment variable consulted for the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_CNF_BACKEND"

_default_backend: Optional[str] = None


def default_backend() -> str:
    """The process-wide evaluation backend (env override, else ``"compiled"``)."""
    if _default_backend is not None:
        return _default_backend
    return _validate_backend(os.environ.get(BACKEND_ENV_VAR, "compiled"))


def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide backend; ``None`` restores the environment default."""
    global _default_backend
    _default_backend = None if name is None else _validate_backend(name)


def resolve_backend(name: Optional[str]) -> str:
    """Resolve a per-call backend argument (``None`` means the default)."""
    return default_backend() if name is None else _validate_backend(name)


def _validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    return name


def resolve_native_kernels():
    """The native kernel set backing ``backend="native"`` (never ``None``).

    An explicitly requested native CNF backend fails loudly — with
    :class:`~repro.xp.backend.BackendUnavailableError` — when native kernels
    are disabled (``REPRO_NATIVE=off``) or no tier can be brought up,
    mirroring how explicitly requested array backends fail.
    """
    from repro import native
    from repro.xp.backend import BackendUnavailableError

    mode = native.resolve_mode(None)
    if mode == "python":
        raise BackendUnavailableError(
            'CNF backend "native" requested but native kernels are disabled '
            f"(mode 'python' via ${native.NATIVE_ENV_VAR} or "
            "repro.native.set_default_mode)"
        )
    # "auto" hardens to "native" so the explicit backend request fails
    # loudly if the C tier is unavailable.
    return native.kernels_for("native")


@dataclass(frozen=True)
class CNFEvalPlan:
    """A compiled, formula-specific batch-evaluation plan (immutable)."""

    #: Declared variable width the plan was compiled for.
    num_variables: int
    #: Total clause count, including empty clauses.
    num_clauses: int
    #: Flat assignment-column index of every literal, clauses sorted by width.
    literal_columns: np.ndarray
    #: Sign of each flat literal (``True`` for a negated literal).
    literal_negated: np.ndarray
    #: Start offset of each (width-sorted) non-empty clause in the flat arrays.
    reduce_offsets: np.ndarray
    #: Original clause index of each width-sorted non-empty clause.
    nonempty_index: np.ndarray
    #: ``(clause_start, clause_end, width)`` spans over the width-sorted
    #: clauses; each bucket reduces as one fused ``(clauses, width, batch)`` OR.
    width_groups: Tuple[Tuple[int, int, int], ...]
    #: Number of empty clauses (each one falsifies every assignment).
    num_empty: int
    #: Per-array-backend uploads of the index arrays (keyed by cache_key).
    _device_arrays: Dict[str, Tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Native-kernel layouts of the index arrays (see :mod:`repro.native.kernels`).
    _native_arrays: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self):
        # The per-backend device uploads and native-kernel layouts hold
        # ctypes/device handles that are process-local and unpicklable;
        # serialised plans (repro.store entries, spawned workers) start with
        # empty memos and re-upload lazily on first use.
        state = dict(self.__dict__)
        state["_device_arrays"] = {}
        state["_native_arrays"] = {}
        return state

    @property
    def num_literals(self) -> int:
        """Total literal occurrences across the non-empty clauses."""
        return int(self.literal_columns.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident size of the plan's host index arrays.

        Per-backend device uploads are excluded (they live on the device and
        are dropped with the plan).  Used by byte-bounded artifact caches
        (:mod:`repro.serve.cache`) to account for compiled state.
        """
        return int(
            self.literal_columns.nbytes
            + self.literal_negated.nbytes
            + self.reduce_offsets.nbytes
            + self.nonempty_index.nbytes
        )

    @staticmethod
    def _resolve_xpb(assignments, xpb: Optional[ArrayBackend]) -> ArrayBackend:
        """Default backend resolution following the *input's* residency.

        Delegates to :func:`repro.xp.backend_for` — the same rule
        :meth:`CNF._check_assignment_matrix` applies — so direct-plan
        consumers (WalkSAT's unsat scan, metrics) keep working regardless of
        ``REPRO_ARRAY_BACKEND``.  Pass ``xpb`` explicitly to override.
        """
        return xpb if xpb is not None else backend_for(assignments)

    # -- array-backend residency --------------------------------------------------------
    def _arrays_for(self, xpb: ArrayBackend) -> Tuple:
        """``(literal_columns, literal_negated)`` resident on ``xpb``.

        The NumPy reference uses the compiled arrays directly; other
        backends get a one-time upload memoised per backend (dropped with
        the plan, e.g. by :func:`clear_plan_caches`).
        """
        if xpb.is_numpy:
            return self.literal_columns, self.literal_negated
        arrays = self._device_arrays.get(xpb.cache_key)
        if arrays is None:
            arrays = (
                xpb.from_numpy(self.literal_columns),
                xpb.from_numpy(self.literal_negated),
            )
            self._device_arrays[xpb.cache_key] = arrays
        return arrays

    # -- fused evaluation -------------------------------------------------------------
    def _gather_literal_values(self, assignments, xpb: ArrayBackend):
        """``(literals, batch)`` literal values over the transposed matrix."""
        columns, negated = self._arrays_for(xpb)
        transposed = xpb.ascontiguousarray(assignments.T)
        values = transposed[columns]
        values ^= negated[:, None]
        return values

    def _group_blocks(self, values, batch: int):
        """Yield each width bucket as a ``(clauses, width, batch)`` view."""
        for clause_start, clause_end, width in self.width_groups:
            flat_start = int(self.reduce_offsets[clause_start])
            count = clause_end - clause_start
            block = values[flat_start : flat_start + count * width]
            yield clause_start, clause_end, block.reshape(count, width, batch)

    @staticmethod
    def _or_over_width(block):
        """OR a ``(clauses, width, batch)`` block down to ``(clauses, batch)``."""
        satisfied = block[:, 0]
        for column in range(1, block.shape[1]):
            satisfied = satisfied | block[:, column]
        return satisfied

    def evaluate(self, assignments, xpb: Optional[ArrayBackend] = None):
        """Per-row satisfaction of the whole formula (boolean kernel).

        Runs on ``xpb`` (default: the active array backend); ``assignments``
        may be a host or device array of that backend.
        """
        xpb = self._resolve_xpb(assignments, xpb)
        batch = assignments.shape[0]
        _CNF_EVALUATIONS.inc(1.0, "bool")
        if self.num_empty:
            return xpb.zeros(batch, dtype=xpb.bool_dtype)
        if self.reduce_offsets.size == 0:
            return xpb.ones(batch, dtype=xpb.bool_dtype)
        values = self._gather_literal_values(assignments, xpb)
        satisfied = xpb.ones(batch, dtype=xpb.bool_dtype)
        for _, _, block in self._group_blocks(values, batch):
            satisfied &= xpb.all(self._or_over_width(block), axis=0)
        return satisfied

    def evaluate_packed(self, assignments, xpb: Optional[ArrayBackend] = None):
        """Per-row satisfaction via the bit-packed kernel (8 rows per byte).

        The batch axis is packed with ``packbits``, the flat clause
        boundaries then drive one ``bitwise_or`` segmented reduction over
        ``uint8`` words; results are bitwise-identical to :meth:`evaluate`.
        Backends without native packed support run on the NumPy reference
        and upload the result.
        """
        xpb = self._resolve_xpb(assignments, xpb)
        if not xpb.supports_packed:
            # Counted by the NumPy-reference recursion below, not here.
            host = self.evaluate_packed(
                np.asarray(xpb.asnumpy(assignments), dtype=bool),
                get_backend("numpy"),
            )
            return xpb.from_numpy(host)
        _CNF_EVALUATIONS.inc(1.0, "packed")
        batch = assignments.shape[0]
        if self.num_empty:
            return xpb.zeros(batch, dtype=xpb.bool_dtype)
        if self.reduce_offsets.size == 0:
            return xpb.ones(batch, dtype=xpb.bool_dtype)
        columns, negated = self._arrays_for(xpb)
        packed_columns = xpb.packbits(xpb.ascontiguousarray(assignments.T), axis=1)
        literal_words = packed_columns[columns]
        literal_words[negated] ^= xpb.packed_ones_u8
        clause_words = xpb.bitwise_or_reduceat(
            literal_words, self.reduce_offsets, axis=0
        )
        formula_words = xpb.bitwise_and_reduce(clause_words, axis=0)
        return xpb.astype(xpb.unpackbits(formula_words, count=batch), xpb.bool_dtype)

    def clause_satisfaction(self, assignments, xpb: Optional[ArrayBackend] = None):
        """Full ``(batch, num_clauses)`` satisfaction matrix, empty clauses False."""
        xpb = self._resolve_xpb(assignments, xpb)
        batch = assignments.shape[0]
        result = xpb.zeros((batch, self.num_clauses), dtype=xpb.bool_dtype)
        if self.reduce_offsets.size:
            values = self._gather_literal_values(assignments, xpb)
            for clause_start, clause_end, block in self._group_blocks(values, batch):
                columns = self.nonempty_index[clause_start:clause_end]
                result[:, columns] = self._or_over_width(block).T
        return result

    def unsatisfied_counts(self, assignments, xpb: Optional[ArrayBackend] = None):
        """Per-row count of falsified clauses."""
        xpb = self._resolve_xpb(assignments, xpb)
        batch = assignments.shape[0]
        counts = xpb.full(batch, self.num_empty, dtype=xpb.int64_dtype)
        if self.reduce_offsets.size:
            values = self._gather_literal_values(assignments, xpb)
            for _, _, block in self._group_blocks(values, batch):
                counts += xpb.sum(~self._or_over_width(block), axis=0)
        return counts


#: Formulas holding a memoised plan.
_PLAN_OWNERS = OwnerRegistry()


def register_plan_owner(formula: "CNF") -> None:
    """Track a formula that memoised an evaluation plan (for bulk clearing)."""
    _PLAN_OWNERS.register(formula)


def clear_plan_caches() -> None:
    """Drop every memoised CNF evaluation plan in the process.

    Complements the automatic mutation-driven invalidation and also releases
    the plans' per-backend device uploads.  Exposed to users as
    :func:`repro.xp.clear_caches`.
    """
    _PLAN_OWNERS.clear(lambda formula: formula.clear_evaluation_plan())


def compile_evaluation_plan(formula: "CNF") -> CNFEvalPlan:
    """Flatten ``formula`` into a :class:`CNFEvalPlan` (one pass over the clauses)."""
    _PLAN_COMPILES.inc()
    indexed = [(index, clause) for index, clause in enumerate(formula.clauses)]
    nonempty = [(index, clause) for index, clause in indexed if len(clause)]
    num_empty = len(indexed) - len(nonempty)
    nonempty.sort(key=lambda pair: len(pair[1]))  # stable: insertion order per width
    columns = []
    negated = []
    offsets = []
    original_index = []
    groups = []
    position = 0
    for sorted_position, (index, clause) in enumerate(nonempty):
        width = len(clause)
        if groups and groups[-1][2] == width:
            groups[-1][1] = sorted_position + 1
        else:
            groups.append([sorted_position, sorted_position + 1, width])
        offsets.append(position)
        original_index.append(index)
        for literal in clause:
            columns.append(abs(literal) - 1)
            negated.append(literal < 0)
            position += 1
    return CNFEvalPlan(
        num_variables=formula.num_variables,
        num_clauses=formula.num_clauses,
        literal_columns=np.asarray(columns, dtype=np.intp),
        literal_negated=np.asarray(negated, dtype=bool),
        reduce_offsets=np.asarray(offsets, dtype=np.intp),
        nonempty_index=np.asarray(original_index, dtype=np.intp),
        width_groups=tuple((start, stop, width) for start, stop, width in groups),
        num_empty=num_empty,
    )


def _concatenate(segments, dtype):
    if not segments:
        return np.asarray([], dtype=dtype)
    if len(segments) == 1:
        return np.asarray(segments[0], dtype=dtype)
    return np.concatenate(segments).astype(dtype, copy=False)


def extend_evaluation_plan(plan: CNFEvalPlan, formula: "CNF") -> CNFEvalPlan:
    """Patch a parent plan into the plan of an append-only extended formula.

    ``formula``'s first ``plan.num_clauses`` clauses must be exactly the
    clauses the parent plan was compiled from; only appended clauses (and a
    possibly larger variable count) may differ.  Because the width sort in
    :func:`compile_evaluation_plan` is stable and appended clauses carry the
    largest original indices, each appended clause lands at the *end* of its
    width bucket — so the parent's flat arrays can be spliced per bucket
    without recompiling the whole formula.  The result is equal, field for
    field, to ``compile_evaluation_plan(formula)`` (pinned by tests).
    """
    clauses = formula.clauses
    if len(clauses) < plan.num_clauses:
        raise ValueError(
            f"formula has {len(clauses)} clauses but the parent plan covers "
            f"{plan.num_clauses}; extend_evaluation_plan is append-only"
        )
    appended = clauses[plan.num_clauses :]
    num_empty = plan.num_empty + sum(1 for clause in appended if not len(clause))
    new_by_width: Dict[int, list] = {}
    for offset, clause in enumerate(appended):
        if len(clause):
            index = plan.num_clauses + offset
            new_by_width.setdefault(len(clause), []).append((index, clause))

    old_spans = {width: (start, stop) for start, stop, width in plan.width_groups}
    boundaries = np.append(plan.reduce_offsets, plan.literal_columns.size)
    columns_segments = []
    negated_segments = []
    offsets_segments = []
    index_segments = []
    groups = []
    position = 0
    sorted_position = 0
    for width in sorted(set(old_spans) | set(new_by_width)):
        group_start = sorted_position
        if width in old_spans:
            start, stop = old_spans[width]
            literal_start, literal_stop = boundaries[start], boundaries[stop]
            columns_segments.append(plan.literal_columns[literal_start:literal_stop])
            negated_segments.append(plan.literal_negated[literal_start:literal_stop])
            offsets_segments.append(
                plan.reduce_offsets[start:stop] - literal_start + position
            )
            index_segments.append(plan.nonempty_index[start:stop])
            position += int(literal_stop - literal_start)
            sorted_position += stop - start
        for index, clause in new_by_width.get(width, ()):
            columns_segments.append(
                np.asarray([abs(literal) - 1 for literal in clause], dtype=np.intp)
            )
            negated_segments.append(
                np.asarray([literal < 0 for literal in clause], dtype=bool)
            )
            offsets_segments.append(np.asarray([position], dtype=np.intp))
            index_segments.append(np.asarray([index], dtype=np.intp))
            position += width
            sorted_position += 1
        groups.append((group_start, sorted_position, width))
    return CNFEvalPlan(
        num_variables=formula.num_variables,
        num_clauses=len(clauses),
        literal_columns=_concatenate(columns_segments, np.intp),
        literal_negated=_concatenate(negated_segments, bool),
        reduce_offsets=_concatenate(offsets_segments, np.intp),
        nonempty_index=_concatenate(index_segments, np.intp),
        width_groups=tuple(groups),
        num_empty=num_empty,
    )
