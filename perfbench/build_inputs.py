"""Timed set-up for one workload, run in a fresh interpreter.

Usage: python3 perfbench/build_inputs.py WORKLOAD SEED OUTDIR

Imports tnpack, builds the workload's graphs from the seed, writes them as
.gr files plus manifest.json into OUTDIR, and prints {"seconds": ...}: the
time from before the import to the last write.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tnpack.graph import write_graph  # noqa: E402


def main() -> None:
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    manifest = workloads.build(workload, seed)
    for name, g in manifest.pop("graphs").items():
        (outdir / f"{name}.gr").write_text(write_graph(g))
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    print(json.dumps({"seconds": time.perf_counter() - started}))


if __name__ == "__main__":
    main()
