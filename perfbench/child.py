"""One workload in one process: set-up, timed jobs, output checks.

``run.py`` starts this script with a scrubbed environment and reads the JSON
object it prints last.  ``--mode setup`` stops after set-up (the extra set-up
samples behind ``setup_s``); ``--mode run`` also runs and checks the jobs.

Timing rules shared by every workload:

* only the program's own work is on the clock; input loading, probes,
  output checks and (cold) cache clearing and ``gc.collect()`` run between
  jobs;
* each job's seconds are normalised by the median of the host probes run
  around it (:mod:`perfbench.probe`), and the raw seconds are kept too;
* work runs in whole cycles over the 14 Table II formulas, so every run
  weighs the formulas equally.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Jobs in one cycle: one per Table II formula.
CYCLE = 14
#: Whole cycles every run makes at least (8 cycles = 112 jobs, 11 beyond the
#: p90).
MIN_CYCLES = 8
#: After the minimum, whole cycles continue until ``--seconds`` have passed,
#: up to twice the minimum; no cycle starts after this many seconds, so a
#: run ends well inside its time limit.
MAX_MEASURE_SECONDS = 90.0
#: Jobs per serve wave, and waves per block (a block covers whole cycles).
WAVE = 8
WAVES_PER_BLOCK = 7
#: Probes taken after each set-up segment, and between serve waves.
SETUP_PROBES = 5
WAVE_PROBES = 3
#: Half-width (in probes) of the rolling window normalising one job.
WINDOW = 3

COLD_SOLUTIONS = 1000
WARM_SOLUTIONS = 4000
WARM_BATCH = 512
WARM_MAX_ROUNDS = 16


# -- set-up -------------------------------------------------------------------------------
class Context:
    """What set-up produced and what the measurement needs."""

    def __init__(self, args, texts) -> None:
        self.args = args
        self.texts = texts
        self.native_tier: Optional[str] = None
        self.artifacts: List = []
        self.service = None
        self.store_buckets: List = []
        self.store_ops: Dict[str, float] = {}
        self.tracer = None
        #: Single-CPU probe readings of the measurement (host.probe_ms).
        self.host_probes: List[float] = []
        #: Wall seconds of each serve wave.
        self.wave_spans: List[float] = []


def bring_up(ctx: Context) -> None:
    """Import the program and bring up its native tier, which builds the C
    kernels into the per-run, empty ``REPRO_NATIVE_CACHE_DIR``."""
    import repro  # noqa: F401
    import repro.native
    import repro.xp  # noqa: F401
    from repro.core.pipeline import sample_cnf  # noqa: F401
    from repro.serve import SamplingService  # noqa: F401
    from repro.store import ArtifactStore  # noqa: F401

    ctx.native_tier = repro.native.active_tier("auto")


def prepare_warm_set(ctx: Context, index: int) -> None:
    """Parse one formula set and build its artifacts (transform, programs,
    CNF plan)."""
    from repro.cnf.dimacs import parse_dimacs
    from repro.core.signatures import formula_signature
    from repro.serve.cache import build_artifact

    built = []
    for _name, text in ctx.texts["sets"][index]:
        formula = parse_dimacs(text)
        built.append(build_artifact(formula, formula_signature(formula)))
    ctx.artifacts.append(built)


def prepare_serve_set(ctx: Context, index: int) -> None:
    """Start the pool (before the first set), warm the service's store with
    one formula set, then prime every formula of the set on every worker."""
    from repro.cnf.dimacs import parse_dimacs
    from repro.core.config import SamplerConfig
    from repro.core.signatures import formula_signature
    from repro.serve import SamplingService
    from repro.serve.cache import build_artifact
    from repro.store import ArtifactStore
    from repro.store.artifacts import fetch_or_build_artifact

    if ctx.service is None:
        run_dir = Path(ctx.args.run_dir)
        ctx.service = SamplingService(
            num_workers=os.cpu_count() or 1,
            store_dir=str(run_dir / "store"),
            journal=str(run_dir / "journal.jsonl"),
            cache_entries=len(ctx.texts["sets"]) * CYCLE,
        )
    service = ctx.service
    store = ArtifactStore(service.store_dir)
    texts = ctx.texts["sets"][index]
    for _name, text in texts:
        if ctx.tracer is not None:
            ctx.tracer.reset()
        formula = parse_dimacs(text)
        signature = formula_signature(formula)
        fetch_or_build_artifact(store, signature, lambda: build_artifact(formula, signature))
        if ctx.tracer is not None:
            ctx.store_buckets.append(ctx.tracer.reset())
    # Concurrent copies of one formula overflow the dispatcher's affinity
    # spill threshold, so its artifact lands on the other workers too.
    tiny = SamplerConfig(batch_size=8, max_rounds=1, seed=0, store_dir="off")
    for name, text in texts:
        holders = set()
        for _attempt in range(4):
            ids = [
                service.submit(text, num_solutions=1, config=tiny, coalesce=False)
                for _ in range(2 * service.num_workers)
            ]
            for job_id in ids:
                service.result(job_id)
                holders.update(m["worker"] for m in service.forget(job_id).members)
            if len(holders) == service.num_workers:
                break
        if len(holders) != service.num_workers:
            raise RuntimeError(f"could not prime {name} on every worker")


def _store_ops(dump) -> Dict[str, float]:
    entry = dump.get("repro_store_ops_total", {})
    return {key: float(value) for key, value in entry.get("series", {}).items()}


#: Per workload, the step that prepares one formula set; set-up runs it for
#: every set after the common bring-up.  Cold jobs bring their own formulas.
PREPARE_SETS: Dict[str, Optional[Callable[[Context, int], None]]] = {
    "cold-table2": None,
    "warm-table2": prepare_warm_set,
    "serve-manifest": prepare_serve_set,
}


def setup_segments(ctx: Context) -> List[Callable[[], None]]:
    """Set-up as timed segments, with host probes run between them."""
    segments = [lambda: bring_up(ctx)]
    prepare = PREPARE_SETS[ctx.args.workload]
    if prepare is not None:
        for index in range(len(ctx.texts["sets"])):
            segments.append(lambda index=index: prepare(ctx, index))
    return segments


def _set_of_cycle(ctx: Context, cycle: int) -> int:
    """Formula set used by ``cycle``.  The minimum run covers every set
    equally.  A traced run gives each set two cycles, one traced and one
    not, so the tracing overhead compares the same formulas."""
    sets = len(ctx.texts["sets"])
    per_set = 2 if ctx.tracer is not None else max(1, MIN_CYCLES // sets)
    return (cycle // per_set) % sets


# -- measurement --------------------------------------------------------------------------
class Job:
    """One finished job's measurements (raw seconds; normalised later)."""

    __slots__ = (
        "index", "name", "wall", "first", "unique", "generated", "valid",
        "rounds", "probe_slot", "bucket", "stages", "traced", "submit",
        "member", "workers", "memory_hits", "members", "retries", "wave",
        "status", "failed",
    )

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.wall = 0.0
        self.unique = 0
        self.first: Optional[float] = None
        self.bucket = None
        self.stages: Dict[str, float] = {}
        self.traced = False
        self.status = "done"
        self.failed = False
        self.generated = self.valid = self.rounds = 0
        self.submit = self.member = 0.0
        self.workers: List = []
        self.memory_hits = self.members = self.retries = 0
        self.wave = -1


class Checker:
    """Checks each job's solutions and folds them into the digest."""

    def __init__(self) -> None:
        from perfbench.check import ClauseChecker, Digest

        self._make = ClauseChecker
        self._cache: Dict[str, object] = {}
        self.digest = Digest()
        self.bad_solutions = 0
        self.duplicates = 0

    def check(self, job: Job, text: str, matrix, reported_unique: int) -> None:
        from perfbench.check import duplicate_rows

        checker = self._cache.get(text)
        if checker is None:
            checker = self._make(text)
            if len(self._cache) > 2 * CYCLE:
                self._cache.clear()
            self._cache[text] = checker
        bad = checker.violations(matrix)
        dups = duplicate_rows(matrix)
        self.bad_solutions += bad
        self.duplicates += dups
        self.digest.add(job.index, matrix)
        job.unique = int(matrix.shape[0])
        if (
            job.status != "done"
            or bad
            or dups
            or job.unique == 0
            or job.unique != reported_unique
        ):
            job.failed = True


def _toggle_tracing(ctx: Context, on: bool) -> None:
    from perfbench import layers

    if ctx.tracer is None or on == layers.installed():
        return
    if on:
        layers.install(ctx.tracer)
    else:
        layers.uninstall()


def _traced_cycle(ctx: Context, unit: int) -> bool:
    """In a traced run, one cycle (serve: wave) of each consecutive pair runs
    untraced, so the tracing overhead can be measured.  Which one alternates
    from pair to pair, so a first-visit cost does not read as overhead."""
    return ctx.tracer is not None and unit % 2 == (unit // 2) % 2


def _keep_going(units_done: int, min_units: int, start: float, seconds: float) -> bool:
    """Whether to start another unit of work (a cycle, or a block of waves)."""
    elapsed = _perf() - start
    if units_done < min_units:
        return elapsed < MAX_MEASURE_SECONDS
    return units_done < 2 * min_units and elapsed < min(seconds, MAX_MEASURE_SECONDS)


def measure_inline(ctx: Context, probes: List[float], checker: Checker) -> List[Job]:
    """cold-table2 and warm-table2: one job at a time in this process."""
    import repro.xp
    from perfbench.probe import probe_once
    from perfbench import layers
    from perfbench.inputs import formula_text, table2_names
    from repro.core.config import SamplerConfig
    from repro.core.pipeline import sample_cnf
    from repro.core.sampler import GradientSATSampler

    cold = ctx.args.workload == "cold-table2"
    jobs: List[Job] = []
    start = _perf()
    cycle = 0
    while _keep_going(cycle, MIN_CYCLES, start, ctx.args.seconds):
        traced = _traced_cycle(ctx, cycle)
        if cold:
            # A fresh formula per job, generated before the cycle starts.
            texts = [
                (name, formula_text(ctx.args.seed, name, cycle * CYCLE + k))
                for k, name in enumerate(table2_names())
            ]
        else:
            formula_set = _set_of_cycle(ctx, cycle)
            texts = ctx.texts["sets"][formula_set]
        _toggle_tracing(ctx, traced)
        for k in range(CYCLE):
            index = cycle * CYCLE + k
            name, text = texts[k]
            job = Job(index, name)
            job.traced = traced
            job.probe_slot = len(probes)
            probes.append(probe_once())
            if cold:
                repro.xp.clear_caches()
                gc.collect()
            stages_before = layers.transform_stage_seconds() if traced else {}
            if traced:
                ctx.tracer.reset()
            first: List[float] = []

            def on_round(record, _new, first=first):
                if not first and record.num_new_unique > 0:
                    first.append(_perf())

            if cold:
                config = SamplerConfig(seed=index, store_dir="off")
            else:
                artifact = ctx.artifacts[formula_set][k]
                config = SamplerConfig(
                    batch_size=WARM_BATCH, max_rounds=WARM_MAX_ROUNDS,
                    seed=index, store_dir="off",
                )
            t0 = _perf()
            try:
                if cold:
                    sample = sample_cnf(text, COLD_SOLUTIONS, config, on_round=on_round).sample
                else:
                    sampler = GradientSATSampler(
                        artifact.formula, transform=artifact.transform, config=config
                    )
                    sample = sampler.sample(WARM_SOLUTIONS, on_round=on_round)
            except Exception as error:  # a failed job is counted, not fatal
                job.status = f"error: {type(error).__name__}: {error}"
                print(f"job {index} ({name}) failed: {job.status}", file=sys.stderr)
                sample = None
            job.wall = _perf() - t0
            if traced:
                job.bucket = ctx.tracer.reset()
                after = layers.transform_stage_seconds()
                job.stages = {
                    stage: after.get(stage, 0.0) - stages_before.get(stage, 0.0)
                    for stage in after
                }
            job.first = first[0] - t0 if first else None
            if sample is None:
                job.failed = True
                job.unique = 0
            else:
                job.generated = sample.num_generated
                job.valid = sample.num_valid
                job.rounds = len(sample.rounds)
                checker.check(job, text, sample.solution_matrix(), sample.num_unique)
                del sample
            jobs.append(job)
        cycle += 1
    _toggle_tracing(ctx, False)
    probes.append(probe_once())
    return jobs


def measure_serve(ctx: Context, probes: List[float], checker: Checker) -> List[Job]:
    """serve-manifest: closed waves of plain jobs over the worker pool."""
    from perfbench.probe import PairedProbe, probe_many
    from repro.core.config import SamplerConfig
    from repro.serve.service import SamplingService

    service = ctx.service
    first_seen: Dict[str, float] = {}
    original = SamplingService._handle_message

    # The public API has no first-arrival time, so this one private hook
    # notes when the client's pump receives a job's first round that
    # carries new solutions.
    def handle_message(self, kind, key, payload):
        original(self, kind, key, payload)
        if kind == "round" and payload["shape"][0] > 0:
            first_seen.setdefault(key[0], _perf())

    SamplingService._handle_message = handle_message
    # The pool uses every CPU, so its probes do too (see PairedProbe).
    pair = PairedProbe() if (os.cpu_count() or 1) > 1 else None
    if pair is not None:
        probe_many = pair.probe_many
    jobs: List[Job] = []
    probes.extend(probe_many(WAVE_PROBES))
    start = _perf()
    block = 0
    min_blocks = MIN_CYCLES * CYCLE // (WAVE * WAVES_PER_BLOCK)
    try:
        while _keep_going(block, min_blocks, start, ctx.args.seconds):
            for _ in range(WAVES_PER_BLOCK):
                wave = len(ctx.wave_spans)
                traced = _traced_cycle(ctx, wave)
                _toggle_tracing(ctx, traced)
                submitted = []
                t_wave = _perf()
                for slot in range(WAVE):
                    index = wave * WAVE + slot
                    formula_set = _set_of_cycle(ctx, index // CYCLE)
                    name, text = ctx.texts["sets"][formula_set][index % CYCLE]
                    job = Job(index, name)
                    job.traced = traced
                    job.wave = wave
                    job.probe_slot = len(probes) - WAVE_PROBES
                    config = SamplerConfig(
                        batch_size=WARM_BATCH, max_rounds=WARM_MAX_ROUNDS,
                        seed=index, store_dir="off",
                    )
                    t0 = _perf()
                    job_id = service.submit(
                        text, num_solutions=WARM_SOLUTIONS, config=config, coalesce=False
                    )
                    job.submit = _perf() - t0
                    submitted.append((job, job_id, text, t0))
                results = [service.result(job_id) for _, job_id, _, _ in submitted]
                ctx.wave_spans.append(_perf() - t_wave)
                _toggle_tracing(ctx, False)
                for (job, job_id, text, t0), result in zip(submitted, results):
                    # Latency: the submit call plus the service's own
                    # submit-to-finalize time.
                    job.wall = job.submit + result.elapsed_seconds
                    seen = first_seen.pop(job_id, None)
                    job.first = seen - t0 if seen is not None else None
                    job.status = result.status
                    job.member = sum(float(m.get("seconds", 0.0)) for m in result.members)
                    job.workers = [m.get("worker") for m in result.members]
                    job.members = len(result.members)
                    job.memory_hits = sum(
                        1 for m in result.members if m.get("artifact_source") == "memory"
                    )
                    job.retries = int(result.summary.get("retries", 0))
                    job.generated = int(result.summary.get("generated", 0))
                    job.valid = int(result.summary.get("valid", 0))
                    job.rounds = sum(int(m.get("rounds", 0)) for m in result.members)
                    checker.check(job, text, result.solutions.to_matrix(), result.num_unique)
                    service.forget(job_id)
                    jobs.append(job)
                probes.extend(probe_many(WAVE_PROBES))
            block += 1
    finally:
        SamplingService._handle_message = original
        _toggle_tracing(ctx, False)
        if pair is not None:
            pair.close()
            ctx.host_probes = pair.own
    return jobs


# -- metrics ------------------------------------------------------------------------------
def _job_factors(ctx: Context, jobs: List[Job], probes: List[float]) -> List[float]:
    """Per job: reference-host seconds per observed second."""
    from perfbench.probe import normalise, window_median

    factors = []
    for job in jobs:
        if ctx.args.workload == "serve-manifest":
            # Probes before this wave, after it, and one wave either side.
            lo = job.probe_slot - WAVE_PROBES
            hi = job.probe_slot + 3 * WAVE_PROBES
        else:
            # Probes before this job (its own included) and after it.
            lo = job.probe_slot - WINDOW + 1
            hi = job.probe_slot + WINDOW + 1
        factors.append(normalise(1.0, window_median(probes, lo, hi)))
    return factors


def unit_rates(ctx: Context, jobs: List[Job], factors: List[float],
               normalised: bool = True) -> Dict[str, float]:
    """Median over units of work of the unique-solution and job rates.

    A unit is a cycle of 14 inline jobs, or a block of serve waves covering
    whole cycles; a wave's jobs run in parallel, so serve time is wave wall
    time.  The median keeps one rare formula whose solution space runs out
    from swinging the rate.
    """
    serve = ctx.args.workload == "serve-manifest"
    units: Dict[int, List] = {}
    waves = set()
    for job, factor in zip(jobs, factors):
        f = factor if normalised else 1.0
        unit_id = job.wave // WAVES_PER_BLOCK if serve else job.index // CYCLE
        unit = units.setdefault(unit_id, [0, 0, 0.0])
        unit[0] += job.unique
        unit[1] += 1
        if not serve:
            unit[2] += job.wall * f
        elif job.wave not in waves:
            waves.add(job.wave)
            unit[2] += ctx.wave_spans[job.wave] * f
    return {
        "unique_per_s": statistics.median(u / t for u, _, t in units.values()),
        "jobs_per_s": statistics.median(n / t for _, n, t in units.values()),
    }


def end_to_end(ctx: Context, jobs: List[Job], factors: List[float]) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics over ``jobs``, normalised and raw."""
    from perfbench.stats import percentile

    out: Dict[str, Dict[str, float]] = {}
    for kind in ("norm", "raw"):
        scale = factors if kind == "norm" else [1.0] * len(jobs)
        latency = [job.wall * f for job, f in zip(jobs, scale)]
        first = [job.first * f for job, f in zip(jobs, scale) if job.first is not None]
        out[kind] = dict(
            unit_rates(ctx, jobs, factors, kind == "norm"),
            job_latency_p50_s=percentile(latency, 50),
            job_latency_p90_s=percentile(latency, 90),
            first_solution_p50_s=percentile(first, 50),
            first_solution_p90_s=percentile(first, 90),
        )
    out["samples"] = {"latency": len(jobs), "first_solution": len(first)}
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(ctx: Context, jobs: List[Job], factors: List[float], probes: List[float],
              setup_factor: float, overhead: float) -> Dict[str, float]:
    """Per-job medians of each layer over the traced jobs (normalised)."""
    traced = [(job, f) for job, f in zip(jobs, factors) if job.traced]
    serve = ctx.args.workload == "serve-manifest"
    metrics: Dict[str, float] = {}

    def self_time(layer: str) -> float:
        if serve:
            return 0.0  # the sampler layers run in the workers
        return _median([job.bucket.self_seconds.get(layer, 0.0) * f for job, f in traced])

    for metric, layer in (
        ("cnf.parse_s", "cnf.parse"),
        ("cnf.plan_compile_s", "cnf.plan_compile"),
        ("cnf.validate_s", "cnf.validate"),
        ("transform.total_s", "transform.total"),
        ("transform.complete_s", "transform.complete"),
        ("engine.compile_s", "engine.compile"),
        ("engine.learn_s", "engine.learn"),
        ("sampler.dedup_s", "sampler.dedup"),
    ):
        metrics[metric] = self_time(layer)
    for stage in ("stream", "signature", "extraction", "simplify", "optimize"):
        metrics[f"transform.stage.{stage}_s"] = _median(
            [job.stages.get(stage, 0.0) * f for job, f in traced]
        )
    if serve:
        metrics["engine.compile_calls"] = 0.0
        metrics["sampler.round_s"] = 0.0
        metrics["sampler.unattributed_s"] = 0.0
        unattributed = [(job.wall - job.submit - job.member) * f for job, f in traced]
    else:
        metrics["engine.compile_calls"] = _median(
            [float(job.bucket.calls.get("engine.compile", 0)) for job, _ in traced]
        )
        metrics["sampler.round_s"] = _median(
            [job.bucket.inclusive_seconds.get("sampler.round", 0.0) * f for job, f in traced]
        )
        metrics["sampler.unattributed_s"] = self_time("sampler.round")
        unattributed = [(job.wall - job.bucket.attributed) * f for job, f in traced]
    metrics["sampler.rounds_per_job"] = _median([float(job.rounds) for job, _ in traced])
    metrics["sampler.valid_frac"] = _median(
        [job.valid / job.generated for job, _ in traced if job.generated]
    )
    metrics["sampler.unique_frac"] = _median(
        [job.unique / job.generated for job, _ in traced if job.generated]
    )
    metrics["store.get_s"] = _median(
        [b.self_seconds.get("store.get", 0.0) * setup_factor for b in ctx.store_buckets]
    )
    metrics["store.put_s"] = _median(
        [b.self_seconds.get("store.put", 0.0) * setup_factor for b in ctx.store_buckets]
    )
    metrics["store.hits"] = ctx.store_ops.get("hits", 0.0)
    metrics["store.misses"] = ctx.store_ops.get("misses", 0.0)
    if serve:
        per_worker: Dict[object, int] = {}
        for job, _ in traced:
            for worker in job.workers:
                per_worker[worker] = per_worker.get(worker, 0) + 1
        members = sum(job.members for job, _ in traced)
        metrics["serve.submit_s"] = _median([job.submit * f for job, f in traced])
        metrics["serve.member_s"] = _median([job.member * f for job, f in traced])
        metrics["serve.non_sampling_s"] = _median(
            [(job.wall - job.member) * f for job, f in traced]
        )
        metrics["serve.worker_share_max"] = max(per_worker.values()) / members
        metrics["serve.memory_hit_frac"] = sum(job.memory_hits for job, _ in traced) / members
        metrics["serve.retries"] = float(sum(job.retries for job, _ in traced))
    else:
        for name in ("submit_s", "member_s", "non_sampling_s", "worker_share_max",
                     "memory_hit_frac", "retries"):
            metrics[f"serve.{name}"] = 0.0
    metrics["job.unattributed_s"] = _median(unattributed)
    metrics["host.probe_ms"] = statistics.median(ctx.host_probes or probes)
    metrics["obs.trace_overhead_frac"] = overhead
    return metrics


def closure_errors(ctx: Context, jobs: List[Job]) -> int:
    """Traced jobs whose layer times do not add up to their wall time.

    Layer self times must sum to the time the outermost spans cover, and no
    job may have negative unattributed time.
    """
    errors = 0
    for job in jobs:
        if not job.traced:
            continue
        if ctx.args.workload == "serve-manifest":
            rest = job.wall - job.submit - job.member
            covered_gap = 0.0
        else:
            rest = job.wall - job.bucket.attributed
            covered_gap = abs(job.bucket.top_level_seconds - job.bucket.attributed)
        if rest < -1e-6 or covered_gap > 1e-6:
            errors += 1
    return errors


def host_fingerprint(native_tier: Optional[str]) -> Dict[str, object]:
    import platform

    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_tier": native_tier,
    }


# -- entry point --------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE_SETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)
    texts = json.loads(Path(args.inputs).read_text())

    ctx = Context(args, texts)
    if args.trace and args.mode == "run":
        from perfbench.layers import Tracer

        ctx.tracer = Tracer()
    # Set-up, timed segment by segment: each segment is normalised by the
    # probes run right before and after it.
    segments = setup_segments(ctx)
    setup_raw = 0.0
    setup_s = 0.0
    probe_runs: List[List[float]] = []
    for number, segment in enumerate(segments):
        t0 = _perf()
        segment()
        elapsed = _perf() - t0
        if number == 0:
            # Imported only now: the probe needs NumPy, and importing NumPy
            # is part of the program's set-up.
            from perfbench.probe import normalise, probe_many

            # A traced serve run times the store calls of its set builds.
            _toggle_tracing(ctx, True)
        probe_runs.append(probe_many(SETUP_PROBES))
        around = probe_runs[-1] + (probe_runs[-2] if number else [])
        setup_raw += elapsed
        setup_s += normalise(elapsed, statistics.median(around))
    _toggle_tracing(ctx, False)
    if ctx.service is not None:
        ctx.store_ops = _store_ops(ctx.service.merged_metrics())
    setup_probes = [p for run in probe_runs for p in run]
    setup_factor = normalise(1.0, statistics.median(setup_probes))
    report: Dict[str, object] = {"setup_raw_s": setup_raw, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    probes: List[float] = []
    checker = Checker()
    measure = measure_serve if args.workload == "serve-manifest" else measure_inline
    try:
        jobs = measure(ctx, probes, checker)
        self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if ctx.service is not None:
            ctx.service.close()
    children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(self_rss_kb, children_rss_kb) / 1024.0

    factors = _job_factors(ctx, jobs, probes)
    untraced = [(job, f) for job, f in zip(jobs, factors) if not job.traced]
    traced = [(job, f) for job, f in zip(jobs, factors) if job.traced]
    failed = sum(1 for job in jobs if job.failed)
    report.update({
        "attempted": len(jobs),
        "failed": failed,
        "bad_solutions": checker.bad_solutions,
        "duplicate_solutions": checker.duplicates,
        "digest": {
            "seed": args.seed,
            "unique": checker.digest.total_unique,
            "hash": checker.digest.hexdigest(),
        },
        "probe_ms": statistics.median(ctx.host_probes or probes),
        "peak_rss_mb": peak_rss_mb,
        "host": host_fingerprint(ctx.native_tier),
    })
    if args.trace:
        overhead = 1.0 - (
            unit_rates(ctx, *zip(*traced))["unique_per_s"]
            / unit_rates(ctx, *zip(*untraced))["unique_per_s"]
        )
        report["per_layer"] = per_layer(
            ctx, jobs, factors, probes, setup_factor, overhead
        )
        report["closure_errors"] = closure_errors(ctx, jobs)
        report["traced_jobs"] = len(traced)
    else:
        e2e = end_to_end(ctx, jobs, factors)
        report["end_to_end"] = e2e["norm"]
        report["raw"] = e2e["raw"]
        report["samples"] = e2e["samples"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
