"""The repository benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``sweep``, ``regimes``, ``serve``, ``fl`` (see
``perfbench/README.md``).  The program is imported from the checkout's
``src/`` and driven only through its public API.  With ``--trace 0`` the
run repeats whole rounds of the workload for at least ``--seconds`` of
timed work and reports the end-to-end metrics; with ``--trace 1`` it runs
a fixed number of rounds untraced, the same rounds traced, and reports the
per-layer metrics.  Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is imported here
# or in a set-up probe (which inherits the environment).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
#: Fresh-process set-up measurements per run; the median is reported.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("sweep", "regimes", "serve", "fl")


def measure_setup(workload: str) -> float:
    """Median set-up time of ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--scratch", str(SCRATCH)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds: float):
    from workloads import RoundStats

    total = RoundStats()
    index = 0
    while not workload.enough(total, index, seconds):
        total.merge(workload.run_round(index, None))
        index += 1
    return total


def run_traced(workload, name: str, seed: int):
    """Fixed rounds untraced, then the same rounds traced.

    Returns ``(untraced, traced, per-layer metrics)``.  The serve workload
    needs fresh drops for its traced rounds (repeats would be cache hits),
    so its traced pass continues the round numbering; the others repeat
    the very same operations.
    """
    import layers
    from tracing import Tracer
    from workloads import RoundStats, Serve

    rounds = workload.trace_rounds
    untraced = RoundStats()
    for index in range(rounds):
        untraced.merge(workload.run_round(index, None))
    offset = rounds if isinstance(workload, Serve) else 0
    tracer = Tracer()
    traced = RoundStats()
    layers.instrument(tracer)
    try:
        for index in range(offset, offset + rounds):
            traced.merge(workload.run_round(index, tracer))
    finally:
        tracer.restore()
    metrics = layers.per_layer_metrics(tracer, workload.client_latency())
    metrics["trace.overhead_s"] = traced.seconds - untraced.seconds
    metrics.update(workload.breakdown(untraced))
    tracer.dump(SCRATCH / f"trace-{name}-seed{seed}.json")
    return untraced, traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    SCRATCH.mkdir(exist_ok=True)

    setup_s = measure_setup(args.workload) if not args.trace else None

    import repro
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, SCRATCH)
    try:
        workload.warm_up()
        if args.trace:
            untraced, traced, layer_metrics = run_traced(workload, args.workload, args.seed)
            untraced.merge(traced)
            total = untraced
        else:
            total = run_untraced(workload, args.seconds)
        if isinstance(workload, workloads.Serve):
            workload.check_answers(total)
    finally:
        workload.close()

    for problem in total.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    import layers

    if args.trace:
        # Metrics of entry points the program no longer has stay absent;
        # another workload's end-to-end breakdown reads 0.
        metrics = {
            name: {"value": float(layer_metrics.get(name, 0.0)), "unit": unit}
            for name, unit, _better in layers.PER_LAYER
            if name in layer_metrics or name.startswith("e2e.")
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "ops_per_s": {"value": total.ops_per_s(), "unit": "1/s"},
        }
    result = {
        "correct": total.attempted > 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
