"""The four workloads: input generation, timed rounds and output checks.

Each workload builds its inputs from the seed alone and hands the program
only those inputs.  A *round* is a fixed list of operations; a run repeats
whole rounds, so the share of failed operations never depends on how long
the run was.  Only the calls into the program are timed; the checks run
on every operation after its round's timed part.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks
import layers
from tracing import Tracer

#: The sweep's scenario families and energy weights (paper scale, 50 devices).
SWEEP_FAMILIES = ("paper", "hotspot", "hetero-fleet", "cell-edge")
SWEEP_WEIGHTS = (0.1, 0.5, 0.9)
SWEEP_SEEDS_PER_FAMILY = 4
SWEEP_DEVICES = 50
BATCH_SIZE = 8
#: Round index whose inputs the warm-up uses; no run gets this far.
WARM_UP_ROUND = 10**6


@dataclass
class RoundStats:
    """What one round did: operations, failures and timed seconds."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: Named timed parts (seconds, operations), e.g. per-drop vs batched.
    parts: dict[str, list[float]] = field(default_factory=dict)
    #: Latencies by request kind (serve only).
    latency: dict[str, list[float]] = field(default_factory=dict)
    #: Throughput of each merged round.
    round_rates: list[float] = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Median round throughput once there are three rounds or more.

        Rounds repeat the same operations (or, for serve and fl, the same
        mix on fresh inputs), so the median round shows the typical speed
        and drops a round that a burst of load on the machine slowed.
        """
        if len(self.round_rates) >= 3:
            return statistics.median(self.round_rates)
        return self.attempted / self.seconds

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:2])

    def add_part(self, name: str, seconds: float, ops: int) -> None:
        part = self.parts.setdefault(name, [0.0, 0])
        part[0] += seconds
        part[1] += ops

    def merge(self, other: "RoundStats") -> None:
        self.round_rates.append(other.attempted / other.seconds)
        self.attempted += other.attempted
        self.failed += other.failed
        self.seconds += other.seconds
        self.problems.extend(other.problems)
        for name, (seconds, ops) in other.parts.items():
            self.add_part(name, seconds, int(ops))
        for kind, values in other.latency.items():
            self.latency.setdefault(kind, []).extend(values)


def _problem(system: Any, energy_weight: float, deadline_s: float | None = None) -> Any:
    from repro.core.problem import JointProblem, ProblemWeights

    return JointProblem(
        system, ProblemWeights.from_energy_weight(energy_weight), deadline_s=deadline_s
    )


def _error(exc: Exception) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


class Workload:
    """Base: ``run_round`` does one round; ``close`` releases resources."""

    #: Rounds of the traced run (and of its untraced twin).
    trace_rounds = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        """One operation outside every timing, so lazy set-up is done."""

    def run_round(self, index: int, tracer: Tracer | None) -> RoundStats:
        raise NotImplementedError

    def enough(self, total: RoundStats, rounds: int, seconds: float) -> bool:
        """Stop at the whole round that ends nearest to ``seconds``."""
        return rounds > 0 and total.seconds + 0.5 * total.seconds / rounds >= seconds

    def breakdown(self, total: RoundStats) -> dict[str, float]:
        """Workload-specific end-to-end figures of an untraced pass."""
        return {}

    def client_latency(self) -> dict | None:
        return None

    def close(self) -> None:
        """Release what the workload holds (servers, temporary files)."""


# -- sweep --------------------------------------------------------------------


class Sweep(Workload):
    """Weighted drops at paper scale, solved per drop and then in batches of 8."""

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.core.allocator import ResourceAllocator

        # Each drop is solved at every weight, as a figure sweep does.  About
        # one cell-edge drop in a hundred or more hits the sum-of-ratios cap
        # at every weight and makes its run an outlier; sharing drops across
        # weights keeps such runs rare (see README).
        rng = np.random.default_rng((seed, 1))
        self.drops: list[tuple[dict, float]] = []
        for family in SWEEP_FAMILIES:
            for _ in range(SWEEP_SEEDS_PER_FAMILY):
                spec = {
                    "family": family,
                    "num_devices": SWEEP_DEVICES,
                    "seed": int(rng.integers(0, 2**31 - 1)),
                }
                self.drops.extend((spec, weight) for weight in SWEEP_WEIGHTS)
        self.allocator = ResourceAllocator()

    def warm_up(self) -> None:
        from repro.scenarios import build_scenario_spec

        spec, weight = self.drops[0]
        system = build_scenario_spec(spec)
        self.allocator.solve(_problem(system, weight))
        self.allocator.solve_batch([_problem(system, weight)])

    def run_round(self, index: int, tracer: Tracer | None) -> RoundStats:
        from repro.scenarios import build_scenario_spec

        stats = RoundStats()
        systems: list[Any] = []
        singles: list[Any] = []
        start = time.perf_counter()
        for i, (spec, weight) in enumerate(self.drops):
            try:
                with _request(tracer, ("drop", i)):
                    system = build_scenario_spec(spec)
                    result: Any = self.allocator.solve(_problem(system, weight))
            except Exception as exc:  # noqa: BLE001 - a failed solve is a failed operation
                system, result = None, exc
            systems.append(system)
            singles.append(result)
        per_drop = time.perf_counter() - start

        batched: list[Any] = []
        start = time.perf_counter()
        for first in range(0, len(self.drops), BATCH_SIZE):
            chunk = self.drops[first : first + BATCH_SIZE]
            try:
                with _request(tracer, ("batch", first // BATCH_SIZE)):
                    problems = [
                        _problem(build_scenario_spec(spec), weight) for spec, weight in chunk
                    ]
                    batched.extend(
                        self.allocator.solve_batch(problems, return_exceptions=True)
                    )
            except Exception as exc:  # noqa: BLE001
                batched.extend([exc] * len(chunk))
        in_batches = time.perf_counter() - start

        stats.seconds = per_drop + in_batches
        stats.add_part("per_drop", per_drop, len(self.drops))
        stats.add_part("batched", in_batches, len(self.drops))
        for i, ((spec, weight), system, single, lane) in enumerate(
            zip(self.drops, systems, singles, batched)
        ):
            label = f"{spec['family']} seed {spec['seed']} w1={weight}"
            stats.attempted += 2
            if isinstance(single, Exception):
                stats.fail(label, _error(single))
            else:
                stats.fail(label, checks.check_result(system, single, weight, None))
            if isinstance(lane, Exception):
                stats.fail(label + " (batched)", _error(lane))
            elif isinstance(single, Exception):
                stats.fail(label + " (batched)", ["no per-drop result to compare with"])
            else:
                stats.fail(label + " (batched)", checks.check_same_result(single, lane))
        return stats

    def breakdown(self, total: RoundStats) -> dict[str, float]:
        (t1, n1), (t2, n2) = total.parts["per_drop"], total.parts["batched"]
        return {"e2e.drops_per_s": n1 / t1, "e2e.batch_drops_per_s": n2 / t2}


# -- regimes ------------------------------------------------------------------


def regime_drops(seed: int) -> list[tuple[str, dict, float, float | None]]:
    """(label, scenario, w1, deadline) of one regimes round.

    Four drops are fixed, whatever the seed: the named slow cases (the
    cell-edge drop whose inner loop hits its iteration cap, and two
    deadline drops whose SP2 falls back to the numeric solver), and one
    5 dBm deadline drop.  5 dBm deadline drops drawn from the seed now and
    then fall back on every inner solve and take 20-40 s, more than a
    quarter of a run.  The rest are drawn from the seed.
    """
    rng = np.random.default_rng((seed, 2))

    def draw() -> int:
        return int(rng.integers(0, 2**31 - 1))

    drops: list[tuple[str, dict, float, float | None]] = [
        ("cell-edge cap", {"family": "cell-edge", "num_devices": 50, "seed": 5}, 0.5, None),
        ("deadline 100s/8dBm", {"family": "paper", "num_devices": 20, "seed": 0, "max_power_dbm": 8.0}, 1.0, 100.0),
        ("deadline 100s/8dBm", {"family": "paper", "num_devices": 20, "seed": 2, "max_power_dbm": 8.0}, 1.0, 100.0),
        ("deadline 150s/5dBm", {"family": "paper", "num_devices": 20, "seed": 0, "max_power_dbm": 5.0}, 1.0, 150.0),
    ]
    for _ in range(2):
        drops.append(
            ("power-limited", {"family": "paper", "num_devices": 50, "seed": draw(), "max_power_dbm": 0.0}, 0.5, None)
        )
    for _ in range(2):
        drops.append(
            ("deadline 150s/8dBm", {"family": "paper", "num_devices": 20, "seed": draw(), "max_power_dbm": 8.0}, 1.0, 150.0)
        )
    for family in SWEEP_FAMILIES:
        drops.append(
            ("delay-only", {"family": family, "num_devices": 50, "seed": draw()}, 0.0, None)
        )
    return drops


class Regimes(Workload):
    """The solver regimes the sweep leaves out, one drop at a time."""

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.core.allocator import ResourceAllocator

        self.drops = regime_drops(seed)
        self.allocator = ResourceAllocator()

    def warm_up(self) -> None:
        from repro.scenarios import build_scenario_spec

        label, spec, weight, deadline = self.drops[-1]
        self.allocator.solve(_problem(build_scenario_spec(spec), weight, deadline))

    def run_round(self, index: int, tracer: Tracer | None) -> RoundStats:
        from repro.scenarios import build_scenario_spec

        stats = RoundStats()
        outcomes = []
        for i, (label, spec, weight, deadline) in enumerate(self.drops):
            start = time.perf_counter()
            try:
                with _request(tracer, ("drop", i)):
                    system = build_scenario_spec(spec)
                    result: Any = self.allocator.solve(_problem(system, weight, deadline))
            except Exception as exc:  # noqa: BLE001
                system, result = None, exc
            stats.seconds += time.perf_counter() - start
            outcomes.append((system, result))
        for (label, spec, weight, deadline), (system, result) in zip(self.drops, outcomes):
            stats.attempted += 1
            name = f"{label} seed {spec['seed']}"
            if isinstance(result, Exception):
                stats.fail(name, _error(result))
            else:
                stats.fail(name, checks.check_result(system, result, weight, deadline))
        return stats


# -- serve --------------------------------------------------------------------

#: Cold proposed requests per client per round; each is followed by a
#: repeat of the same request, which the store answers.
SERVE_PAIRS = 10
SERVE_CLIENTS = 2
#: Cell-edge drops are left out here: at 20-30 devices about one in a
#: hundred hits the sum-of-ratios cap and takes seconds, which would make
#: serve timing depend on the seed.  The regimes workload carries that case.
SERVE_FAMILIES = ("paper", "hotspot", "hetero-fleet")
#: A run answers at least this many cold and repeated requests, whatever
#: its length: enough for a 95th percentile with ten samples beyond it.
SERVE_MIN_COLD = 200
SERVE_MIN_HITS = 200
#: Cold answers per run compared with a direct solve outside the service.
SERVE_DIRECT_SAMPLE = 24


class Serve(Workload):
    """An in-process ``AllocationServer`` driven by two keep-alive clients."""

    trace_rounds = 3

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.serve.server import AllocationServer, ServeConfig

        self.store_root = Path(tempfile.mkdtemp(prefix="serve-store-", dir=scratch))
        self.server = AllocationServer(ServeConfig(port=0, store_root=str(self.store_root)))
        self.server.start()
        self.host, self.port = self.server.address
        self.answers: list[dict[str, Any]] = []
        self._latency_by_key: dict[tuple[str, bool], float] = {}
        self._instrumented_store = False

    def requests(self, index: int, client: int) -> list[dict[str, Any]]:
        """Client ``client``'s requests in round ``index``."""
        rng = np.random.default_rng((self.seed, 3, index, client))
        out: list[dict[str, Any]] = []
        for k in range(SERVE_PAIRS):
            body = {
                "scenario": {
                    "family": SERVE_FAMILIES[(k + client) % len(SERVE_FAMILIES)],
                    "num_devices": int(rng.integers(20, 31)),
                    "seed": int(rng.integers(0, 2**31 - 1)),
                },
                "energy_weight": SWEEP_WEIGHTS[k % len(SWEEP_WEIGHTS)],
            }
            out.append({"kind": "cold", "body": body})
            out.append({"kind": "hit", "body": body})
        # One request per client and round takes the per-drop path: a
        # deadline-constrained solve on client 0, a baseline on client 1.
        scenario = {"family": "paper", "num_devices": 20, "seed": int(rng.integers(0, 2**31 - 1))}
        if client == 0:
            extra = {"kind": "deadline",
                     "body": {"scenario": scenario, "energy_weight": 1.0, "deadline_s": 150.0}}
        elif index % 2 == 0:
            extra = {"kind": "baseline",
                     "body": {"scenario": scenario, "solver_kind": "baseline", "baseline": "benchmark",
                              "energy_weight": 0.5,
                              "baseline_kwargs": {"rng": int(rng.integers(0, 2**31 - 1))}}}
        else:
            extra = {"kind": "baseline",
                     "body": {"scenario": scenario, "solver_kind": "baseline", "baseline": "delay_min",
                              "energy_weight": 0.5}}
        out.insert(SERVE_PAIRS, extra)
        return out

    def _client(self, requests: list[dict[str, Any]], sink: list) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            for item in requests:
                data = json.dumps(item["body"]).encode("utf-8")
                start = time.perf_counter()
                try:
                    conn.request("POST", "/solve", body=data, headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    raw = response.read()
                    latency = time.perf_counter() - start
                    status = response.status
                    payload = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    latency = time.perf_counter() - start
                    status, payload = 0, f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
                sink.append({**item, "status": status, "payload": payload, "latency": latency})
        finally:
            conn.close()

    def warm_up(self) -> None:
        sink: list = []
        self._client(self.requests(WARM_UP_ROUND, 0)[:2], sink)

    def run_round(self, index: int, tracer: Tracer | None) -> RoundStats:
        if tracer is not None and not self._instrumented_store:
            layers.instrument_store(tracer, self.server.service.store)
            self._instrumented_store = True
        sinks: list[list] = [[] for _ in range(SERVE_CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(self.requests(index, c), sinks[c]))
            for c in range(SERVE_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = RoundStats(seconds=time.perf_counter() - start)
        for sink in sinks:
            for answer in sink:
                stats.attempted += 1
                stats.latency.setdefault(answer["kind"], []).append(answer["latency"])
                payload = answer["payload"]
                if isinstance(payload, dict) and isinstance(payload.get("digest"), str):
                    key = (payload["digest"], bool(payload.get("cached")))
                    self._latency_by_key[key] = answer["latency"]
                self.answers.append(answer)
        return stats

    def enough(self, total: RoundStats, rounds: int, seconds: float) -> bool:
        return (
            super().enough(total, rounds, seconds)
            and len(total.latency.get("cold", ())) >= SERVE_MIN_COLD
            and len(total.latency.get("hit", ())) >= SERVE_MIN_HITS
        )

    def breakdown(self, total: RoundStats) -> dict[str, float]:
        cold = sorted(total.latency.get("cold", ()))
        hit = sorted(total.latency.get("hit", ()))
        return {
            "e2e.cold_p50_ms": 1e3 * statistics.median(cold),
            "e2e.cold_p95_ms": 1e3 * _quantile(cold, 0.95),
            "e2e.hit_p50_ms": 1e3 * statistics.median(hit),
            "e2e.hit_p95_ms": 1e3 * _quantile(hit, 0.95),
        }

    def client_latency(self) -> dict:
        return dict(self._latency_by_key)

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.store_root, ignore_errors=True)

    def check_answers(self, total: RoundStats) -> None:
        """Check every answer, after shutting the server down so its store is flushed."""
        from repro.baselines.registry import get_baseline
        from repro.core.allocator import ResourceAllocator
        from repro.scenarios import build_scenario_spec
        from repro.store import open_store

        self.server.close()
        store = open_store(self.store_root)
        cold_by_digest: dict[str, dict] = {}
        failed: list[int] = []
        sample_pool: list[int] = []
        for position, answer in enumerate(self.answers):
            body, payload = answer["body"], answer["payload"]
            label = f"{answer['kind']} {json.dumps(body['scenario'], sort_keys=True)}"
            problems = checks.check_response(answer["status"], payload)
            if not problems:
                digest = payload["digest"]
                cached = bool(payload.get("cached"))
                metrics = payload["metrics"]
                if answer["kind"] == "hit":
                    if not cached:
                        problems.append("a repeat was not answered from the store")
                    elif digest not in cold_by_digest:
                        problems.append("a hit has no earlier cold answer")
                    else:
                        problems += checks.check_same_metrics(
                            "hit vs cold", metrics, cold_by_digest[digest]
                        )
                else:
                    if cached:
                        problems.append("a first request was answered from the store")
                    cold_by_digest[digest] = metrics
                    weight = float(body.get("energy_weight", 0.5))
                    problems += checks.check_objective_identity(metrics, weight)
                    if answer["kind"] != "baseline":
                        problems += self._check_stored(store, digest, metrics, body)
                    sample_pool.append(position)
            if problems:
                failed.append(position)
                total.problems.extend(f"{label}: {p}" for p in problems[:2])
        rng = np.random.default_rng((self.seed, 4))
        sample = rng.choice(
            sample_pool, size=min(SERVE_DIRECT_SAMPLE, len(sample_pool)), replace=False
        )
        allocator = ResourceAllocator()
        for position in sorted(int(p) for p in sample):
            answer = self.answers[position]
            body = answer["body"]
            system = build_scenario_spec(body["scenario"])
            problem = _problem(system, float(body.get("energy_weight", 0.5)), body.get("deadline_s"))
            if body.get("solver_kind") == "baseline":
                direct = get_baseline(body["baseline"])(problem, **body.get("baseline_kwargs", {}))
            else:
                direct = allocator.solve(problem)
            problems = checks.check_same_metrics(
                "served vs direct solve", answer["payload"]["metrics"], dict(direct.summary())
            )
            if problems and position not in failed:
                failed.append(position)
                total.problems.extend(f"{answer['kind']}: {p}" for p in problems[:2])
        total.failed += len(failed)

    def _check_stored(self, store: Any, digest: str, metrics: dict, body: dict) -> list[str]:
        from repro.scenarios import build_scenario_spec

        entry = store.get_entry(digest)
        if entry is None:
            return ["the solved answer is not in the store"]
        stored_metrics, state = entry
        problems = checks.check_same_metrics("stored vs served", dict(stored_metrics), metrics)
        if state is None:
            return problems + ["the stored answer has no allocation"]
        system = build_scenario_spec(body["scenario"])
        weight = float(body["energy_weight"])
        deadline = body.get("deadline_s")
        problems += checks.check_allocation(
            system, state["power_w"], state["bandwidth_hz"], state["frequency_hz"],
            metrics, weight, deadline,
        )
        if deadline is None and weight > 0.0 and not problems:
            problems += checks.check_beats_static(system, metrics["objective"], weight)
        return problems


def _quantile(sorted_values: list[float], q: float) -> float:
    position = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[position]


# -- fl -----------------------------------------------------------------------

FL_DEVICES = 30
FL_ROUNDS = 40
FL_CLASSES = 4


def fl_config(seed: int, index: int) -> Any:
    """The round-loop configuration of the ``index``-th training run."""
    from repro.fl.roundloop import RoundLoopConfig

    run_seed = int(np.random.default_rng((seed, 5, index)).integers(0, 2**31 - 1))
    return RoundLoopConfig(
        scenario={"family": "paper", "num_devices": FL_DEVICES, "seed": run_seed},
        rounds=FL_ROUNDS,
        selection="deadline-k",
        seed=run_seed,
        num_classes=FL_CLASSES,
        churn={"mode": "poisson", "arrive_rate": 0.3, "depart_rate": 0.1,
               "initial_absent_fraction": 0.2},
        battery={"capacity_j": 0.05},
        estimate_profiles=True,
    )


class FL(Workload):
    """Closed-loop training with churn, drain and estimated profiles."""

    trace_rounds = 3

    def warm_up(self) -> None:
        from dataclasses import replace

        from repro.fl.roundloop import FLRoundLoop

        FLRoundLoop(replace(fl_config(self.seed, WARM_UP_ROUND), rounds=2)).run()

    def run_round(self, index: int, tracer: Tracer | None) -> RoundStats:
        from repro.fl.churn import resolve_churn
        from repro.fl.roundloop import FLRoundLoop

        config = fl_config(self.seed, index)
        stats = RoundStats(attempted=FL_ROUNDS)
        start = time.perf_counter()
        try:
            with _request(tracer, ("fl-run", index)):
                report: Any = FLRoundLoop(config).run()
        except Exception as exc:  # noqa: BLE001
            report = exc
        stats.seconds = time.perf_counter() - start
        label = f"fl run seed {config.seed}"
        if isinstance(report, Exception):
            stats.failed = FL_ROUNDS
            stats.problems.extend(f"{label}: {p}" for p in _error(report))
            return stats
        churn = resolve_churn(config.churn, num_devices=FL_DEVICES, rounds=FL_ROUNDS, seed=config.seed)
        problems = checks.check_fl_records(
            report.records, churn.initial_present, churn.events_for_round, FL_CLASSES
        )
        missing = max(FL_ROUNDS - len(report.records), 0)
        if missing:
            stats.problems.append(f"{label}: {missing} of {FL_ROUNDS} rounds missing from the report")
        stats.failed = min(FL_ROUNDS, len(problems) + missing)
        for r, found in sorted(problems.items())[:3]:
            stats.problems.extend(f"{label} round {r}: {p}" for p in found[:2])
        return stats


def _request(tracer: Tracer | None, request_id: Any) -> Any:
    return tracer.request(request_id) if tracer is not None else nullcontext()


WORKLOADS: dict[str, type[Workload]] = {
    "sweep": Sweep,
    "regimes": Regimes,
    "serve": Serve,
    "fl": FL,
}
