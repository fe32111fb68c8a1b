"""Time one workload's set-up in a fresh interpreter.

Set-up is everything a user pays before the first answer: importing the
layers the workload uses, constructing its long-lived objects, and one
small first operation (so work a change moves into first-call
initialisation, such as compiling a kernel, is charged here).  The
interpreter's own start is not counted.  Prints ``{"setup_s": ...}``.

Run as ``python3 perfbench/setup_probe.py --workload sweep`` from the
checkout root; ``run.py`` runs it a few times and reports the median.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _solve_once() -> None:
    from repro.core.allocator import ResourceAllocator
    from repro.core.problem import JointProblem, ProblemWeights
    from repro.scenarios import build_scenario_spec

    system = build_scenario_spec({"family": "paper", "num_devices": 10, "seed": 0})
    ResourceAllocator().solve(JointProblem(system, ProblemWeights.from_energy_weight(0.5)))


def _serve_once(scratch: Path) -> None:
    import http.client

    from repro.serve.server import AllocationServer, ServeConfig

    root = Path(tempfile.mkdtemp(prefix="probe-store-", dir=scratch))
    try:
        server = AllocationServer(ServeConfig(port=0, store_root=str(root))).start()
        try:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=60)
            body = {"scenario": {"family": "paper", "num_devices": 10, "seed": 0}, "energy_weight": 0.5}
            conn.request("POST", "/solve", body=json.dumps(body), headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            conn.close()
            if response.status != 200:
                raise RuntimeError(f"set-up request answered {response.status}")
        finally:
            server.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _fl_once() -> None:
    from repro.fl.roundloop import FLRoundLoop, RoundLoopConfig

    FLRoundLoop(
        RoundLoopConfig(scenario={"family": "paper", "num_devices": 10, "seed": 0}, rounds=1)
    ).run()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "regimes", "serve", "fl"))
    parser.add_argument("--scratch", default=str(ROOT / ".perfbench"))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload in ("sweep", "regimes"):
        _solve_once()
    elif args.workload == "serve":
        scratch = Path(args.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        _serve_once(scratch)
    else:
        _fl_once()
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
