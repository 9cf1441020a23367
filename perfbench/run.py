#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload warm-table2 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The script compiles the sources to
bytecode, generates the workload's inputs from ``--seed``, measures set-up
in several fresh processes, runs the timed jobs in one more process, checks
every solution, and prints human-readable lines followed by one JSON object
(the last line) with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("cold-table2", "warm-table2", "serve-manifest")

#: Extra fresh processes that only set up, besides the measuring one.  Cold
#: set-up is short, so it is sampled three times and the median reported;
#: warm and serve set-up already sums four formula-set builds.
SETUP_REPEATS = {"cold-table2": 2, "warm-table2": 0, "serve-manifest": 0}

#: Table II formula sets a run's inputs hold.  Solution-space size varies a
#: lot between seeds of one generator, so warm and serve average over several
#: sets; cold jobs generate a fresh formula each.
FORMULA_SETS = {"cold-table2": 0, "warm-table2": 8, "serve-manifest": 4}

END_TO_END = {
    "setup_s": "s",
    "unique_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "first_solution_p50_s": "s",
    "first_solution_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Every process is stopped after this many seconds (the whole run must end
#: within 180 s).
CHILD_TIMEOUT = 150.0
#: Host probes the orchestrator takes itself, before and after the run.
BASELINE_PROBES = 15


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(run_dir: Path, native_dir: Path) -> Dict[str, str]:
    """The parent environment without any ``REPRO_*`` setting, pointed at
    per-run directories inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "REPRO_NATIVE_CACHE_DIR": str(native_dir),
        "TMPDIR": str(tmp),
        "XDG_CACHE_HOME": str(run_dir / "xdg"),
    })
    return env


def _run(command: List[str], env: Dict[str, str], deadline: float) -> str:
    """Run ``command`` in its own process group; return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before " + " ".join(command[1:4]))
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"timed out: {' '.join(command[1:4])}")
    finally:
        # Nothing the child started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RuntimeError(f"exit code {process.returncode}: {' '.join(command[1:4])}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output: {' '.join(command[1:4])}")
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds normally, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    from perfbench.probe import probe_many

    deadline = time.monotonic() + CHILD_TIMEOUT
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    python = sys.executable
    try:
        # Build: bytecode for the program, so no run pays for compiling it.
        subprocess.run(
            [python, "-m", "compileall", "-q", str(ROOT / "src"), str(ROOT / "perfbench")],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
            env=_environment(run_dir, run_dir / "native-build"),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        inputs = run_dir / "inputs.json"
        _run(
            [python, "-m", "perfbench.inputs", "--seed", str(args.seed),
             "--sets", str(FORMULA_SETS[args.workload]), "--out", str(inputs)],
            _environment(run_dir, run_dir / "native-gen"), deadline,
        )
        baseline = probe_many(BASELINE_PROBES)

        def child(mode: str, tag: str, trace: int = 0) -> Dict[str, object]:
            child_dir = run_dir / tag
            child_dir.mkdir()
            line = _run(
                [
                    python, "-m", "perfbench.child", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--mode", mode,
                    "--inputs", str(inputs), "--run-dir", str(child_dir),
                ],
                _environment(child_dir, child_dir / "native"), deadline,
            )
            return json.loads(line)

        setups = [child("setup", f"setup-{k}") for k in range(SETUP_REPEATS[args.workload])]
        report = child("run", "main", args.trace)
        setups.append(report)
        baseline += probe_many(BASELINE_PROBES)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as error:
        return _fail(str(error))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    return _report(args, report, setups, baseline)


def _report(args, report, setups, baseline) -> int:
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
    failed = int(report["failed"])
    correct = (
        failed == 0
        and report["bad_solutions"] == 0
        and report["duplicate_solutions"] == 0
        and report.get("closure_errors", 0) == 0
    )
    q1, _, q3 = statistics.quantiles(baseline, n=4)
    band = (q1 - (q3 - q1), q3 + (q3 - q1))
    disturbed = not band[0] <= report["probe_ms"] <= band[1]
    digest = report["digest"]
    print(f"workload      : {args.workload} (seed {args.seed}, trace {args.trace})")
    print("host          : " + ", ".join(f"{k}={v}" for k, v in report["host"].items()))
    print(f"jobs          : attempted {report['attempted']}, "
          f"succeeded {report['attempted'] - failed}, failed {failed}")
    print(f"check         : {report['bad_solutions']} invalid, "
          f"{report['duplicate_solutions']} duplicate solutions")
    print(f"digest        : seed={digest['seed']} unique={digest['unique']} "
          f"hash={digest['hash']}")
    print(f"host.probe_ms : {report['probe_ms']:.4f} in run, "
          f"{statistics.median(baseline):.4f} idle "
          f"(band {band[0]:.3f}-{band[1]:.3f}){'  FLAG: probe disturbed' if disturbed else ''}")
    diagnostics = {
        "host": report["host"],
        "digest": digest,
        "host.probe_ms": report["probe_ms"],
        "host.probe_idle_ms": statistics.median(baseline),
        "host.probe_ratio": report["probe_ms"] / statistics.median(baseline),
        "probe_disturbed": disturbed,
        "setup_samples": [round(s["setup_s"], 6) for s in setups],
    }
    if args.trace:
        metrics = report["per_layer"]
        diagnostics["traced_jobs"] = report["traced_jobs"]
        diagnostics["closure_errors"] = report["closure_errors"]
        for name, value in metrics.items():
            print(f"  {name:32s} {value:.6g}")
        result_metrics = {
            name: {"value": value, "unit": _layer_unit(name)} for name, value in metrics.items()
        }
    else:
        values = dict(report["end_to_end"], setup_s=setup_s, peak_rss_mb=report["peak_rss_mb"])
        raw = dict(report["raw"], setup_s=setup_raw, peak_rss_mb=report["peak_rss_mb"])
        diagnostics["raw"] = {f"raw.{k}": v for k, v in raw.items()}
        diagnostics["samples"] = report["samples"]
        print(f"samples       : {report['samples']['latency']} latencies, "
              f"{report['samples']['first_solution']} first solutions, "
              f"{len(setups)} set-ups")
        print(f"  {'metric':24s} {'normalised':>14s} {'raw':>14s}")
        for name, unit in END_TO_END.items():
            print(f"  {name:24s} {values[name]:14.6g} {raw[name]:14.6g} {unit}")
        result_metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    print("diagnostics   : " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share_max")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
