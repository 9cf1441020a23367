#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload warm-table2 --seeds 1-10 --seconds 12

For every end-to-end metric it prints the median over the runs and the
inter-quartile distance as a share of that median, for the normalised value
and for the raw (not normalised) one side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import summarise  # noqa: E402


def _seeds(spec: str):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    normalised, raw = {}, {}
    for seed in _seeds(args.seeds):
        output = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(output[-1])
        diagnostics = json.loads(output[-2].split(":", 1)[1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: INCORRECT {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            normalised.setdefault(name, []).append(metric["value"])
            value = diagnostics.get("raw", {}).get(f"raw.{name}")
            if value is not None:
                raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':26s} {'median':>12s} {'iqr/median':>11s} {'raw median':>12s} {'raw iqr':>9s}")
    for name, values in normalised.items():
        norm = summarise(values)
        line = f"{name:26s} {norm['median']:12.6g} {norm['iqr_frac']:11.4f}"
        if name in raw:
            spread = summarise(raw[name])
            line += f" {spread['median']:12.6g} {spread['iqr_frac']:9.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
