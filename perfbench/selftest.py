"""Checks on the benchmark itself.

Usage, from the repository root: python3 perfbench/selftest.py [WORKLOAD ...]

1. The seeded workloads change their graphs when the seed changes, and
   rebuild the same graphs from the same seed.
2. Every exact count of the traced run repeats exactly across two traced
   runs with the same seed (one-second runs, so each makes one pass).

Exits 1 if a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import COUNTS  # noqa: E402

SEEDED = ("tree_random", "small_batch")


def graphs(workload: str, seed: int) -> dict:
    return {
        name: (g.n, tuple(g.edges()))
        for name, g in workloads.build(workload, seed)["graphs"].items()
    }


def check_seeds(workload: str) -> list[str]:
    first, again, other = graphs(workload, 11), graphs(workload, 11), graphs(workload, 12)
    problems = []
    if first != again:
        problems.append(f"{workload}: seed 11 built different graphs twice")
    changed = [name for name in first if first[name] != other.get(name)]
    if not changed:
        problems.append(f"{workload}: seeds 11 and 12 built the same graphs")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run reported failures")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def check_counts(workload: str) -> list[str]:
    first, second = traced_counts(workload, 5), traced_counts(workload, 5)
    return [
        f"{workload}: {name} was {first[name]} then {second[name]}"
        for name in COUNTS
        if first[name] != second[name]
    ]


def main() -> int:
    chosen = sys.argv[1:] or list(WORKLOADS)
    problems = []
    for workload in chosen:
        if workload in SEEDED:
            problems += check_seeds(workload)
        problems += check_counts(workload)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
