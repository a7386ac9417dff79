"""Seeded request benchmark for the tnpack command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a real user request: an in-process call to
``tnpack.cli.main`` on a .gr file written at set-up, with stdout captured
and its JSON checked. After a warm-up, one client sends requests in a
closed loop, cycling over the workload's graphs and each graph's request
kinds in order, with the fresh-process solves spread evenly over the
window. The loop stops at the first request after ``--seconds`` once every
request has run at least once.

With ``--trace 0`` the run reports end-to-end metrics:

- setup_s: median over fresh interpreters of importing tnpack, building the
  workload's graphs from the seed and writing them as .gr files;
- solve_p50_s: wall time of a warm ``solve --method dp`` request, as the
  median over the workload's graphs of each graph's median;
- solve_cold_s: median wall time of a ``solve --method dp`` request made as
  the first request of a fresh process, import excluded;
- requests_per_s: warm requests completed per second by the closed loop,
  for one pass over the workload's requests at their mean times;
- peak_rss_mb: peak resident memory of the benchmark process.

Every end-to-end metric is reported on every workload; the request-kind
figures that only some workloads have (certify_p50_s, report_p50_s,
report_p90_s, solve_p90_s) and error_rate are printed, by name and unit,
on the lines before the final JSON.

With ``--trace 1`` every request runs twice, untraced and then traced (see
spans.py), and the run reports per-layer metrics: self seconds per request
for each layer, averaged over complete passes; exact counts over the first
pass; and trace.overhead_frac, traced against untraced request time. The
spans are written to .perfbench_out/spans-WORKLOAD-SEED.jsonl.

A request fails when it raises, exits non-zero, reports ``verified: false``
or disagrees with another answer for the same graph (a closed form, a pinned
value, or another request kind; see workloads.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("tree_random", "small_batch")
SETUP_REPEATS = 3
# cold solves per run: one fresh process costs as much as the solve itself
# on the large instances, while the small batch's costs milliseconds
COLD_REPEATS = {"tree_random": 4, "small_batch": 14}
CHILD_TIMEOUT_S = 150
MIN_PERCENTILE_SAMPLES = 100  # at least ten samples beyond the 90th percentile

COMMANDS = {
    "dp": ("solve", "{}", "--method", "dp"),
    "tree": ("solve", "{}", "--method", "tree"),
    "report": ("duality-report", "{}"),
}

END_TO_END = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_cold_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def argv_for(kind: str, path: Path) -> list[str]:
    return [arg.format(path) for arg in COMMANDS[kind]]


def call_cli(argv: list[str]) -> tuple[float, int | None, dict | None]:
    """Run one request; (wall seconds, exit code or None if it raised, report)."""
    import tnpack.cli

    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = tnpack.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - started
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return seconds, code, report


def answers(kind: str, code, report) -> dict | None:
    """Values a request reports, or None when the request itself failed."""
    if code != 0 or not isinstance(report, dict) or report.get("verified") is not True:
        return None
    if kind != "report":
        return {"tnp": report["value"]}
    if report["gap"] != report["roman"] - report["tnp"] or report["gap"] < 0:
        return None
    return {"tnp": report["tnp"], "roman": report["roman"], "gap": report["gap"]}


def run_child(script: str, *args) -> dict:
    """Run a helper script in a fresh interpreter; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Timing(NamedTuple):
    pass_index: int
    file: str
    kind: str
    seconds: float
    traced: bool


class Run:
    """One benchmark run: requests made, their timings and the failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.answers: dict[str, dict] = {}  # file -> values agreed on
        self.timings: list[Timing] = []
        self.cold_s: list[float] = []
        self.tracer = None

    def set_up(self) -> float:
        self.work.mkdir(parents=True)
        repeats = 1 if self.trace else SETUP_REPEATS
        times = [
            run_child("build_inputs.py", self.workload, self.seed, self.work)["seconds"]
            for _ in range(repeats)
        ]
        self.manifest = json.loads((self.work / "manifest.json").read_text())
        self.expect = {
            it["file"]: it["expect"] for it in self.manifest["items"] + self.manifest["warmup"]
        }
        sys.path.insert(0, str(SRC))
        import tnpack.cli  # noqa: F401

        return statistics.median(times)

    def record(self, file: str, kind: str, code, report) -> None:
        """Check one request against everything already known of its graph."""
        values = answers(kind, code, report)
        agreed = self.answers.setdefault(file, dict(self.expect.get(file, {})))
        self.attempted += 1
        if values is None or any(agreed.setdefault(k, v) != v for k, v in values.items()):
            self.failed += 1
            print(f"failed: {kind} {file} {values} expected {agreed}", file=sys.stderr)

    def request(self, file: str, kind: str, pass_index: int | None) -> None:
        """One warm request; pass_index None marks warm-up, which is checked
        but not timed. A traced run sends it untraced, then traced."""
        argv = argv_for(kind, self.work / file)
        modes = (False, True) if self.tracer and pass_index is not None else (False,)
        for traced in modes:
            if traced:
                with self.tracer.installed(), self.tracer.request(len(self.timings)):
                    seconds, code, report = call_cli(argv)
            else:
                seconds, code, report = call_cli(argv)
            self.record(file, kind, code, report)
            if pass_index is not None:
                self.timings.append(Timing(pass_index, file, kind, seconds, traced))

    def cold(self) -> float:
        """One fresh-process solve of the manifest's cold file."""
        file = self.manifest["cold"]
        result = run_child("cold_solve.py", self.work / file)
        self.record(file, "dp", result["exit"], result["report"])
        return result["seconds"]

    def loop(self, cold_repeats: int) -> int:
        """Closed loop over the workload's requests until the deadline, with
        the cold solves spread evenly over it; returns the number of complete
        passes."""
        requests = [(it["file"], kind) for it in self.manifest["items"] for kind in it["requests"]]
        started = time.perf_counter()
        index = 0
        while (
            index < len(requests)
            or len(self.cold_s) < cold_repeats
            or time.perf_counter() - started < self.seconds
        ):
            due = 1 + int(cold_repeats * (time.perf_counter() - started) / self.seconds)
            if len(self.cold_s) < min(cold_repeats, due):
                self.cold_s.append(self.cold())
                continue
            file, kind = requests[index % len(requests)]
            self.request(file, kind, index // len(requests))
            index += 1
        return index // len(requests)

    def end_to_end(self, setup_s: float) -> dict:
        # a workload mixes graphs of very different cost, so a latency is the
        # median over graphs of each graph's median time: with the overall
        # median, one extra request of a fast graph could move it from one
        # graph's cluster of times to another's
        samples: dict[tuple[str, str], list[float]] = {}
        for t in self.timings:
            samples.setdefault((t.kind, t.file), []).append(t.seconds)

        def p50(kind: str) -> float:
            return statistics.median(
                statistics.median(values) for (k, _), values in samples.items() if k == kind
            )

        metrics = {
            "setup_s": setup_s,
            "solve_p50_s": p50("dp"),
            "solve_cold_s": statistics.median(self.cold_s),
            # closed-loop rate of one pass over the requests, each at its mean
            # time, so that a run ending mid-pass does not tilt the mix
            "requests_per_s": len(samples) / sum(map(statistics.fmean, samples.values())),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {"error_rate": (self.failed / self.attempted, "")}
        names = {"dp": "solve", "tree": "certify", "report": "report"}
        for kind in {k for k, _ in samples}:
            values = [t.seconds for t in self.timings if t.kind == kind]
            extra[f"{names[kind]}_p50_s"] = (p50(kind), f"n={len(values)}")
            if len(values) >= MIN_PERCENTILE_SAMPLES:
                p90 = statistics.quantiles(values, n=10)[-1]
                extra[f"{names[kind]}_p90_s"] = (p90, f"n={len(values)}")
        for name, (value, note) in sorted(extra.items()):
            unit = "s" if name.endswith("_s") else "ratio"
            print(f"{self.workload} {name} {value:.6g} {unit} {note}".rstrip())
        return {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}

    def per_layer(self, passes: int) -> dict:
        from spans import COUNTS, LAYERS, REQUEST, COUNTING, WIDTH

        times = self.tracer.self_times()
        complete = [i for i, t in enumerate(self.timings) if t.pass_index < passes]
        traced = [i for i in complete if self.timings[i].traced]
        untraced_s = sum(self.timings[i].seconds for i in complete if not self.timings[i].traced)
        traced_s = sum(self.timings[i].seconds for i in traced)
        metrics = {}
        for layer in LAYERS + (COUNTING,):
            total = sum(times[i][layer] for i in traced)
            metrics[f"{layer}_s"] = (total / len(traced), "s")
        metrics["trace.request_s"] = (sum(times[i][REQUEST] for i in traced) / len(traced), "s")
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
        first = [i for i in traced if self.timings[i].pass_index == 0]
        for name in COUNTS:
            values = [self.tracer.counts[i][name] for i in first]
            metrics[name] = (max(values) if name == WIDTH else sum(values), "count")
        for name, (value, unit) in metrics.items():
            print(f"{self.workload} {name} {value:.6g} {unit}")
        return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    def execute(self) -> dict:
        setup_s = self.set_up()
        for item in self.manifest["warmup"]:
            for kind in item["requests"]:
                self.request(item["file"], kind, None)
        if self.trace:
            from spans import Tracer

            self.tracer = Tracer()
            passes = self.loop(0)
            self.tracer.write(OUT / f"spans-{self.workload}-{self.seed}.jsonl")
            metrics = self.per_layer(passes)
        else:
            self.loop(COLD_REPEATS[self.workload])
            metrics = self.end_to_end(setup_s)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tnpack" / "cli.py").is_file():
        print(f"error: no tnpack sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
