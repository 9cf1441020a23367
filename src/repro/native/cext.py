"""The C tier of :mod:`repro.native`: kernels compiled on demand with ``cc``.

The hot loops NumPy cannot fuse — the CNF clause reduction and the engine's
per-slot op dispatch — are small, dependency-free C functions.  Rather than
shipping a build step, the source below is compiled *on first use* into a
shared library (``cc -O3 -fPIC -shared``) under a per-user cache directory
keyed by the source hash, then loaded with :mod:`ctypes`.  A repeat process with the same source finds the
library on disk and pays nothing; the one-time build cost is recorded in
:func:`repro.native.compile_seconds` so benchmarks and the serving layer can
report cold-vs-warm numbers honestly.

No compiler, a failing compile, or a failing load all degrade to
"tier unavailable" (:class:`~repro.xp.backend.BackendUnavailableError` at
explicit request, silent fallback under ``auto``) — the same contract the
CuPy/Torch array backends follow.

Kernel inventory (all operate on caller-allocated C-contiguous buffers):

* ``repro_cnf_eval`` / ``repro_cnf_unsat_counts`` — packed-uint64 clause
  reduction: the boolean assignment matrix is bit-packed column-wise into
  64-row words once, then every clause reduces word-wise (64 assignments per
  op) with an early exit once a word has no satisfying row left.
* ``repro_engine_forward_/backward_f64/f32`` — the levelized program as one
  C loop over flat per-op arrays; forward is elementwise and therefore
  bitwise identical to the NumPy block path, backward accumulates operand
  gradients sequentially per op (covered by the engine's 1e-10 gradient
  contract — NumPy's ``reduceat`` uses platform-dependent reduction trees).
* ``repro_engine_execute_bool`` / ``_packed`` — the boolean and bit-parallel
  execution modes of the same program.

Only kernels a benchmark shows beating NumPy live here
(``benchmarks/bench_native.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.xp.backend import BackendUnavailableError
from repro import obs

_COMPILE_SECONDS_METRIC = obs.counter(
    "repro_native_build_seconds_total",
    "Wall-clock seconds spent building the native C kernels.",
    labels=("tier",),
)

#: Environment variable overriding where compiled libraries are cached.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

C_SOURCE = r"""
#include <stdint.h>

/* ---------------- CNF kernels (packed-uint64 clause reduction) ------------------- */

/* Bit-pack the (batch, nvars) row-major boolean matrix column-wise:
   bit j of colwords[v*nwords + w] = assign[(w*64 + j)*nvars + v].
   Branchless register accumulation — random assignments mispredict a
   per-bit test ~50% of the time, which would make packing cost more
   than the clause reduction it feeds. */
static void pack_columns(const uint8_t *assign, int64_t batch, int64_t nvars,
                         uint64_t *colwords, int64_t nwords)
{
    for (int64_t w = 0; w < nwords; ++w) {
        const int64_t base = w << 6;
        const int64_t limit = batch - base < 64 ? batch - base : 64;
        const uint8_t *block = assign + base * nvars;
        for (int64_t v = 0; v < nvars; ++v) {
            uint64_t word = 0;
            const uint8_t *col = block + v;
            for (int64_t j = 0; j < limit; ++j)
                word |= (uint64_t)(col[j * nvars] & 1) << j;
            colwords[v * nwords + w] = word;
        }
    }
}

void repro_cnf_eval(const uint8_t *assign, int64_t batch, int64_t nvars,
                    const int64_t *cols, const uint8_t *neg,
                    const int64_t *offs, int64_t nclauses,
                    uint64_t *colwords, uint8_t *out)
{
    const int64_t nwords = (batch + 63) >> 6;
    pack_columns(assign, batch, nvars, colwords, nwords);
    for (int64_t w = 0; w < nwords; ++w) {
        const int64_t base = w << 6;
        const int64_t limit = batch - base < 64 ? batch - base : 64;
        uint64_t formula = ~(uint64_t)0;
        for (int64_t c = 0; c < nclauses && formula; ++c) {
            uint64_t clause = 0;
            for (int64_t k = offs[c]; k < offs[c + 1]; ++k) {
                const uint64_t cw = colwords[cols[k] * nwords + w];
                clause |= neg[k] ? ~cw : cw;
                if (!~clause)
                    break; /* clause satisfied on every remaining row */
            }
            formula &= clause;
        }
        for (int64_t j = 0; j < limit; ++j)
            out[base + j] = (uint8_t)((formula >> j) & 1);
    }
}

void repro_cnf_unsat_counts(const uint8_t *assign, int64_t batch, int64_t nvars,
                            const int64_t *cols, const uint8_t *neg,
                            const int64_t *offs, int64_t nclauses,
                            int64_t num_empty, uint64_t *colwords, int64_t *out)
{
    const int64_t nwords = (batch + 63) >> 6;
    pack_columns(assign, batch, nvars, colwords, nwords);
    for (int64_t r = 0; r < batch; ++r)
        out[r] = num_empty;
    for (int64_t w = 0; w < nwords; ++w) {
        const int64_t base = w << 6;
        const uint64_t live =
            batch - base < 64 ? (((uint64_t)1 << (batch - base)) - 1) : ~(uint64_t)0;
        for (int64_t c = 0; c < nclauses; ++c) {
            uint64_t clause = 0;
            for (int64_t k = offs[c]; k < offs[c + 1]; ++k) {
                const uint64_t cw = colwords[cols[k] * nwords + w];
                clause |= neg[k] ? ~cw : cw;
                if (!~clause)
                    break;
            }
            uint64_t unsat = ~clause & live;
            while (unsat) { /* sparse for near-satisfying batches */
                out[base + __builtin_ctzll(unsat)] += 1;
                unsat &= unsat - 1;
            }
        }
    }
}

/* ---------------- engine kernels (flat per-op straight-line program) ------------- */
/* opcodes: 0 = MUL (a*b / &), 1 = ADD (a+b / |), 2 = NOT (1-a / ^ / ~).
   values is the (num_slots, batch) C-contiguous slot matrix; the per-op slot
   arrays index rows of it.  Operand rows always precede output rows, so the
   single in-order pass reproduces the levelized block schedule exactly.      */

#define ENGINE_FORWARD(NAME, T)                                                \
void NAME(T *values, int64_t batch, int64_t nops, const uint8_t *opc,          \
          const int32_t *a, const int32_t *b, const int32_t *o)                \
{                                                                              \
    for (int64_t i = 0; i < nops; ++i) {                                       \
        T *out = values + (int64_t)o[i] * batch;                               \
        const T *pa = values + (int64_t)a[i] * batch;                          \
        if (opc[i] == 0) {                                                     \
            const T *pb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = pa[j] * pb[j];                                        \
        } else if (opc[i] == 1) {                                              \
            const T *pb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = pa[j] + pb[j];                                        \
        } else {                                                               \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = (T)1 - pa[j];                                         \
        }                                                                      \
    }                                                                          \
}

ENGINE_FORWARD(repro_engine_forward_f64, double)
ENGINE_FORWARD(repro_engine_forward_f32, float)

#define ENGINE_BACKWARD(NAME, T)                                               \
void NAME(const T *values, T *grads, int64_t batch, int64_t nops,              \
          const uint8_t *opc, const int32_t *a, const int32_t *b,              \
          const int32_t *o)                                                    \
{                                                                              \
    for (int64_t i = nops - 1; i >= 0; --i) {                                  \
        const T *g = grads + (int64_t)o[i] * batch;                            \
        T *ga = grads + (int64_t)a[i] * batch;                                 \
        if (opc[i] == 0) {                                                     \
            T *gb = grads + (int64_t)b[i] * batch;                             \
            const T *va = values + (int64_t)a[i] * batch;                      \
            const T *vb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j) {                              \
                ga[j] += g[j] * vb[j];                                         \
                gb[j] += g[j] * va[j];                                         \
            }                                                                  \
        } else if (opc[i] == 1) {                                              \
            T *gb = grads + (int64_t)b[i] * batch;                             \
            for (int64_t j = 0; j < batch; ++j) {                              \
                ga[j] += g[j];                                                 \
                gb[j] += g[j];                                                 \
            }                                                                  \
        } else {                                                               \
            for (int64_t j = 0; j < batch; ++j)                                \
                ga[j] -= g[j];                                                 \
        }                                                                      \
    }                                                                          \
}

ENGINE_BACKWARD(repro_engine_backward_f64, double)
ENGINE_BACKWARD(repro_engine_backward_f32, float)

void repro_engine_execute_bool(uint8_t *values, int64_t batch, int64_t nops,
                               const uint8_t *opc, const int32_t *a,
                               const int32_t *b, const int32_t *o)
{
    for (int64_t i = 0; i < nops; ++i) {
        uint8_t *out = values + (int64_t)o[i] * batch;
        const uint8_t *pa = values + (int64_t)a[i] * batch;
        if (opc[i] == 0) {
            const uint8_t *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] & pb[j];
        } else if (opc[i] == 1) {
            const uint8_t *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] | pb[j];
        } else {
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] ^ 1;
        }
    }
}

void repro_engine_execute_packed(uint64_t *values, int64_t lanes, int64_t nops,
                                 const uint8_t *opc, const int32_t *a,
                                 const int32_t *b, const int32_t *o)
{
    for (int64_t i = 0; i < nops; ++i) {
        uint64_t *out = values + (int64_t)o[i] * lanes;
        const uint64_t *pa = values + (int64_t)a[i] * lanes;
        if (opc[i] == 0) {
            const uint64_t *pb = values + (int64_t)b[i] * lanes;
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = pa[j] & pb[j];
        } else if (opc[i] == 1) {
            const uint64_t *pb = values + (int64_t)b[i] * lanes;
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = pa[j] | pb[j];
        } else {
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = ~pa[j];
        }
    }
}
"""

#: Wall-clock seconds spent compiling (building the shared library); read via
#: :func:`repro.native.compile_seconds`.
_compile_seconds = 0.0

_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None


def compile_seconds() -> float:
    """Seconds this process spent building the C tier (0.0 on a disk-cache hit).

    Back-compat accessor; the registered form is
    ``repro_native_build_seconds_total{tier="cext"}`` in :mod:`repro.obs`.
    """
    return _compile_seconds


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _find_compiler() -> Optional[str]:
    from shutil import which

    for name in ("cc", "gcc", "clang"):
        path = which(name)
        if path:
            return path
    return None


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Attach argtypes so a mismatched call fails loudly instead of corrupting."""
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_f32 = ctypes.POINTER(ctypes.c_float)
    i64 = ctypes.c_int64
    lib.repro_cnf_eval.argtypes = [p_u8, i64, i64, p_i64, p_u8, p_i64, i64, p_u64, p_u8]
    lib.repro_cnf_eval.restype = None
    lib.repro_cnf_unsat_counts.argtypes = [
        p_u8, i64, i64, p_i64, p_u8, p_i64, i64, i64, p_u64, p_i64,
    ]
    lib.repro_cnf_unsat_counts.restype = None
    for name, p_t in (
        ("repro_engine_forward_f64", p_f64),
        ("repro_engine_forward_f32", p_f32),
    ):
        fn = getattr(lib, name)
        fn.argtypes = [p_t, i64, i64, p_u8, p_i32, p_i32, p_i32]
        fn.restype = None
    for name, p_t in (
        ("repro_engine_backward_f64", p_f64),
        ("repro_engine_backward_f32", p_f32),
    ):
        fn = getattr(lib, name)
        fn.argtypes = [p_t, p_t, i64, i64, p_u8, p_i32, p_i32, p_i32]
        fn.restype = None
    lib.repro_engine_execute_bool.argtypes = [p_u8, i64, i64, p_u8, p_i32, p_i32, p_i32]
    lib.repro_engine_execute_bool.restype = None
    lib.repro_engine_execute_packed.argtypes = [
        p_u64, i64, i64, p_u8, p_i32, p_i32, p_i32,
    ]
    lib.repro_engine_execute_packed.restype = None
    return lib


def _build_library() -> ctypes.CDLL:
    global _compile_seconds
    compiler = _find_compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "native C tier unavailable: no C compiler (cc/gcc/clang) on PATH"
        )
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _cache_dir()
    library_path = cache_dir / f"repronative_{digest}.so"
    if not library_path.exists():
        start = time.perf_counter()
        cache_dir.mkdir(parents=True, exist_ok=True)
        source_path = cache_dir / f"repronative_{digest}.c"
        source_path.write_text(C_SOURCE)
        # Build into a temp name then rename: concurrent processes racing the
        # build each produce a complete library and the rename is atomic.
        scratch = cache_dir / f"repronative_{digest}.{os.getpid()}.so"
        command = [compiler, "-O3", "-fPIC", "-shared", "-o", str(scratch), str(source_path)]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise BackendUnavailableError(
                f"native C tier unavailable: compile failed: {result.stderr.strip()}"
            )
        os.replace(scratch, library_path)
        delta = time.perf_counter() - start
        _compile_seconds += delta
        _COMPILE_SECONDS_METRIC.inc(delta, "cext")
    return _declare(ctypes.CDLL(str(library_path)))


def load_library() -> ctypes.CDLL:
    """The compiled kernel library (built and memoised on first call).

    Raises :class:`~repro.xp.backend.BackendUnavailableError` when the tier
    cannot be brought up; the failure is memoised so repeated availability
    probes stay cheap.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise BackendUnavailableError(_load_error)
    try:
        _lib = _build_library()
    except BackendUnavailableError as error:
        _load_error = str(error)
        raise
    except Exception as error:  # pragma: no cover - environment-specific
        _load_error = f"native C tier unavailable: {type(error).__name__}: {error}"
        raise BackendUnavailableError(_load_error) from error
    return _lib

