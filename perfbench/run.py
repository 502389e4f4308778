"""Benchmark of the manning_rosen package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: oracle_table, oracle_audit, closed_form, cli (see README.md).
With --trace 0 it sets the workload up in five fresh interpreters, one after
the other, and reports the median as setup_s; the last of them also measures.
With --trace 1 a single traced process reports the per-layer metrics.  The
last line of standard output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle_table", "oracle_audit", "closed_form", "cli")
SETUPS = 5  # fresh interpreters set up per untraced run
BUDGET_S = 170.0  # a run must end within 180 s

# one BLAS thread: OpenBLAS's spinning helper thread would hold the second of
# the two cores the benchmark was tuned on; the cli workload's children inherit it
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# the metric names and units a run reports: end_to_end untraced, per_layer traced
SPEC = HERE.parent / "BENCHMARK.json"


class WorkerFailed(Exception):
    pass


def start_worker(args, deadline: float, setup_only: bool) -> tuple[float, list[str]]:
    """Run one worker to its end; returns its set-up seconds and its other output lines."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, env=ENV,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {BUDGET_S:g} s budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise WorkerFailed("worker never became ready")
    return ready[0] - started, [line for line in lines if not line.startswith("READY ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(start_worker(args, deadline, setup_only=True)[0])
        setup_s, lines = start_worker(args, deadline, setup_only=False)
        setups.append(setup_s)
    except WorkerFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        result["metrics"]["setup_s"] = statistics.median(setups)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    result["metrics"] = {
        metric["name"]: {"value": float(result["metrics"][metric["name"]]), "unit": metric["unit"]}
        for metric in spec["per_layer" if args.trace else "end_to_end"]}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
