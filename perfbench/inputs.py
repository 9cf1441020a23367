"""Workload inputs: DIMACS texts generated from a workload seed.

Every formula comes from one of the 14 Table II registry entries' generators,
called with the entry's own size parameters and a seed derived here from the
workload seed, the entry name and a job index.  The same workload seed
always gives byte-identical DIMACS text.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple


def derive(workload_seed: int, name: str, index: int) -> int:
    """A 31-bit generator seed for one (entry, job index) pair."""
    digest = hashlib.sha256(f"{workload_seed}:{name}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def table2_names() -> List[str]:
    from repro.instances.registry import TABLE2_INSTANCES

    return list(TABLE2_INSTANCES)


def formula_text(workload_seed: int, name: str, index: int) -> str:
    """DIMACS text of entry ``name`` generated for job ``index``."""
    from repro.cnf.dimacs import write_dimacs
    from repro.instances.registry import get_instance

    entry = get_instance(name)
    parameters = dict(entry.parameters, seed=derive(workload_seed, name, index))
    formula, _circuit = entry.generator(name=name, **parameters)
    return write_dimacs(formula, include_comments=False)


def table2_set(workload_seed: int, index: int = 0) -> List[Tuple[str, str]]:
    """One formula per Table II entry, in the paper's order."""
    return [(name, formula_text(workload_seed, name, index)) for name in table2_names()]


def main() -> None:
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Write the Table II formula sets as JSON.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sets", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w") as handle:
        json.dump({"sets": [table2_set(args.seed, s) for s in range(args.sets)]}, handle)
    print(json.dumps({"inputs": args.out}))


if __name__ == "__main__":
    main()
