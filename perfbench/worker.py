"""One benchmark process: set a workload up, then (unless --setup-only) measure it.

Started by run.py in a fresh interpreter.  It imports ``manning_rosen`` from
the checkout's ``src``, makes the inputs from the seed, runs one untimed
warm-up operation and prints ``READY <CLOCK_MONOTONIC seconds>``; run.py takes
set-up time from that line.  It then repeats whole rounds of operations until
--seconds have passed, and prints a report and, last, one JSON line.

Untraced runs of the ``closed_form`` and ``cli`` workloads time the
operations in reference seconds.  The speed of the shared machine the
benchmark was tuned on drifts by up to a factor of two over seconds to
minutes, in CPU time as in wall time, and a 20 s run cannot average that
away.  So after every CAL_EVERY seconds of operations the worker times
``calibrate``, a fixed piece of work that does not touch the package, and
scales the operations in between by CAL_NOMINAL over the mean of the two
calibrations around them.  A change to the package moves the scaled times as
it moves the wall times; a change in machine speed moves both the operations
and the calibration, and cancels.  The oracle workloads stay in wall seconds
(see ``Workload.calibrated``).
"""

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_package():
    """The package from this checkout's src, never an installed copy."""
    package = SRC / "manning_rosen"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no manning_rosen source under {SRC}")
    sys.path.insert(0, str(SRC))
    import manning_rosen
    import manning_rosen.cli  # noqa: F401 - the oracle_table and cli workloads call it
    if Path(manning_rosen.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported manning_rosen from {manning_rosen.__file__}")
    return manning_rosen


CAL_NOMINAL = 0.010  # seconds calibrate() takes at the reference speed
CAL_EVERY = 0.1  # seconds of operations between two calibrations


def calibrate() -> float:
    """Seconds one fixed mix of interpreter and NumPy work takes now.

    The mix is like that of the calibrated workloads: dictionary and float
    work in Python, and NumPy on a short and on a long array.  Its inputs
    never change.
    """
    short, long = np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 100_001)
    t0 = time.perf_counter()
    table, total = {}, 0.0
    for i in range(20_000):
        table[i & 63] = total
        total += (i * 0.5) ** 0.5
    for i in range(150):
        total += float(np.exp(-short * (i % 7)).sum())
    for i in range(4):
        total += float(np.exp(-long * (i + 1)).sum())
    return time.perf_counter() - t0


def measure(workload, seconds: float, calibrated: bool):
    """Whole rounds until ``seconds`` have passed; returns (outcomes, rounds, wall).

    With ``calibrated`` each outcome's ``seconds`` is in reference seconds
    (see the module docstring); ``wall`` is the sum of the operations' wall
    seconds either way.
    """
    from workloads import Outcome

    outcomes, rounds, wall = [], 0, 0.0
    block, block_s = [], 0.0  # the operations since the last calibration
    last_cal = calibrate() if calibrated else None

    def close_block():
        nonlocal block, block_s, last_cal
        cal = calibrate()
        scale = 2.0 * CAL_NOMINAL / (last_cal + cal)
        for outcome in block:
            outcome.seconds *= scale
        block, block_s, last_cal = [], 0.0, cal

    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(rounds):
            t0 = time.perf_counter()
            try:
                outcome = workload.run(op)
            except Exception as exc:  # a failed operation is counted, the run goes on
                outcome = Outcome(ok=False, note=f"{op}: {exc!r}")
            outcome.seconds = time.perf_counter() - t0
            outcome.fault = getattr(op, "fault", False)
            outcome.round = rounds
            outcomes.append(outcome)
            wall += outcome.seconds
            if calibrated:
                block.append(outcome)
                block_s += outcome.seconds
                if block_s >= CAL_EVERY:
                    close_block()
        rounds += 1
    if block:
        close_block()
    return outcomes, rounds, wall


def import_times(runs: int = 3) -> dict[str, float]:
    """cli.import_s and cli.import_scipy_linalg_s from ``python -X importtime``."""
    samples = collections.defaultdict(list)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import manning_rosen"],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        found = {"manning_rosen": 0.0, "scipy.linalg": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        samples["cli.import_s"].append(found["manning_rosen"])
        samples["cli.import_scipy_linalg_s"].append(found["scipy.linalg"])
    return {key: statistics.median(values) for key, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mr = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](mr, args.seed)
    workload.warm_up()
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calibrated = tracer is None and workload.calibrated
    outcomes, rounds, wall = measure(workload, args.seconds, calibrated)

    failed = [outcome for outcome in outcomes if not outcome.ok]
    print(f"{args.workload}: attempted {len(outcomes)} operations in {rounds} rounds, "
          f"failed {len(failed)}")
    for note, count in collections.Counter(outcome.note for outcome in failed).items():
        print(f"  failed x{count}: {note}")
    busy = sum(outcome.seconds for outcome in outcomes)
    states = sum(outcome.states for outcome in outcomes)
    print(f"{args.workload}: {states} states in {wall:.3f} s of operations"
          + (f", {busy:.3f} reference s" if calibrated else "")
          + (" (traced)" if tracer else ""))

    if tracer is None:
        values = workload.metrics(outcomes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        values = tracer.per_layer(rounds, import_times())
        stages = sum(values[f"oracle.{stage}_s"]
                     for stage in ("self", "assembly", "sturm_count", "eigensolve"))
        print(f"oracle.solve_radial_s {values['oracle.solve_radial_s']:.6f} per round; "
              f"self + assembly + sturm_count + eigensolve {stages:.6f}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    result = {
        "correct": all(outcome.fault for outcome in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": values,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
