"""Independent output checking: a DIMACS reader and a clause checker.

Nothing here calls the program under test.  The checker re-reads the DIMACS
text the benchmark generated and evaluates every clause on bit-packed
solution columns with plain NumPy, so a fault in the program's own parser or
evaluation kernel cannot hide a wrong solution.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np


def read_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    """``(num_variables, clauses)`` of a DIMACS CNF text."""
    num_variables = None
    clauses: List[List[int]] = []
    current: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            num_variables = int(fields[2])
            continue
        for token in line.split():
            literal = int(token)
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                current.append(literal)
    if current:
        clauses.append(current)
    if num_variables is None:
        raise ValueError("missing 'p cnf' line")
    return num_variables, clauses


class ClauseChecker:
    """Checks boolean solution matrices against one CNF."""

    def __init__(self, text: str) -> None:
        self.num_variables, clauses = read_dimacs(text)
        by_width: Dict[int, List[List[int]]] = {}
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause: the formula is unsatisfiable")
            by_width.setdefault(len(clause), []).append(clause)
        # Per width: 0-based variable columns and an XOR mask that flips
        # negative literals, so a clause holds where the OR of its masked
        # literal bits is set.
        self._buckets = []
        for width, group in sorted(by_width.items()):
            literals = np.asarray(group, dtype=np.int64)
            if np.abs(literals).max() > self.num_variables:
                raise ValueError("literal beyond the declared variable count")
            columns = np.abs(literals) - 1
            flips = np.where(literals < 0, 0xFF, 0x00).astype(np.uint8)
            self._buckets.append((columns, flips[:, :, np.newaxis]))

    def violations(self, solutions: np.ndarray) -> int:
        """Number of rows of ``solutions`` that falsify some clause."""
        solutions = np.asarray(solutions, dtype=bool)
        if solutions.ndim != 2 or solutions.shape[1] != self.num_variables:
            raise ValueError(
                f"expected a (n, {self.num_variables}) matrix, got {solutions.shape}"
            )
        rows = solutions.shape[0]
        if rows == 0:
            return 0
        # Column-major bit planes: planes[v] packs variable v across rows.
        planes = np.ascontiguousarray(np.packbits(solutions, axis=0).T)
        valid = np.packbits(np.ones(rows, dtype=bool))
        failing = np.zeros_like(valid)
        for columns, flips in self._buckets:
            ored = np.bitwise_or.reduce(planes[columns] ^ flips, axis=1)
            failing |= np.bitwise_or.reduce(~ored & valid, axis=0)
        return int(np.unpackbits(failing)[:rows].sum())


def duplicate_rows(solutions: np.ndarray) -> int:
    """How many rows repeat an earlier row."""
    if solutions.shape[0] == 0:
        return 0
    packed = np.ascontiguousarray(np.packbits(np.asarray(solutions, dtype=bool), axis=1))
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return solutions.shape[0] - np.unique(rows).shape[0]


class Digest:
    """Running hash of (job index, unique count, solution bytes) in job order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.total_unique = 0

    def add(self, job_index: int, solutions: np.ndarray) -> None:
        solutions = np.asarray(solutions, dtype=bool)
        self._hash.update(f"{job_index}:{solutions.shape[0]}:{solutions.shape[1]};".encode())
        self._hash.update(np.packbits(solutions, axis=1).tobytes())
        self.total_unique += solutions.shape[0]

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
