"""Which entry points the traced run wraps, and the per-layer figures.

Every target is named at the attribute its caller resolves at call time
(``module:attr`` or ``module:Class.attr``), so the wrapper sees the same
calls the program makes.  A target a later change removes or renames is
skipped by :meth:`Tracer.wrap`; its metrics then stay absent from the
output (listed under ``missing`` in the span dump) instead of reading 0.
"""

from __future__ import annotations

import itertools
import statistics
from typing import Any, Iterable

from tracing import Tracer

#: The per-layer metrics of ``BENCHMARK.json``: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("scenarios.builds", "count", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("allocator.solves", "count", "lower"),
    ("allocator.outer_iterations", "count", "lower"),
    ("allocator.solve_s", "s", "lower"),
    ("allocator.solve_self_s", "s", "lower"),
    ("allocator.batch_lanes", "count", "lower"),
    ("allocator.batch_s", "s", "lower"),
    ("allocator.batch_self_s", "s", "lower"),
    ("sp1.calls", "count", "lower"),
    ("sp1.s", "s", "lower"),
    ("sum_of_ratios.calls", "count", "lower"),
    ("sum_of_ratios.iterations", "count", "lower"),
    ("sum_of_ratios.cap_hits", "count", "lower"),
    ("sum_of_ratios.s", "s", "lower"),
    ("sp2.kkt_calls", "count", "lower"),
    ("sp2.kkt_s", "s", "lower"),
    ("sp2.kkt_yield", "ratio", "higher"),
    ("sp2.rows_lanes", "count", "lower"),
    ("sp2.rows_s", "s", "lower"),
    ("sp2.fallback_calls", "count", "lower"),
    ("sp2.fallback_s", "s", "lower"),
    ("sp2.incumbent_calls", "count", "lower"),
    ("lambert.calls", "count", "lower"),
    ("lambert.elements", "count", "lower"),
    ("lambert.s", "s", "lower"),
    ("runner.execute_batch_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.get_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("serve.parse_s", "s", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.lanes_per_batch", "lanes", "higher"),
    ("fl.rounds", "count", "lower"),
    ("fl.allocate_s", "s", "lower"),
    ("fl.train_s", "s", "lower"),
    ("fl.select_s", "s", "lower"),
    ("fl.estimate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("e2e.drops_per_s", "1/s", "higher"),
    ("e2e.batch_drops_per_s", "1/s", "higher"),
    ("e2e.cold_p50_ms", "ms", "lower"),
    ("e2e.cold_p95_ms", "ms", "lower"),
    ("e2e.hit_p50_ms", "ms", "lower"),
    ("e2e.hit_p95_ms", "ms", "lower"),
)

def _is_exception(value: Any) -> bool:
    return isinstance(value, BaseException)


def _observe_solve(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("allocator.outer_iterations", result.iterations)


def _observe_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    problems = args[1] if len(args) > 1 else kwargs["problems"]
    tracer.count("allocator.batch_lanes", len(problems))
    for lane in result:
        if not _is_exception(lane):
            tracer.count("allocator.outer_iterations", lane.iterations)


def _observe_sp1_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sp1.calls", len(result))


def _observe_sp1(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sp1.calls")


def _count_sum_of_ratios(tracer: Tracer, result: Any) -> None:
    tracer.count("sum_of_ratios.calls")
    tracer.count("sum_of_ratios.iterations", result.iterations)
    if not result.converged:
        tracer.count("sum_of_ratios.cap_hits")
    # Each Algorithm-1 iteration records which SP2 path produced its point.
    methods = [record.note for record in result.history]
    tracer.count("sp2.incumbent_calls", methods.count("incumbent"))


def _observe_sum_of_ratios(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _count_sum_of_ratios(tracer, result)


def _observe_sum_of_ratios_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    for lane in result:
        if not _is_exception(lane):
            _count_sum_of_ratios(tracer, lane)


def _observe_kkt(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result.feasible:
        tracer.count("sp2.kkt_accepted")


def _observe_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sp2.rows_lanes", len(result))
    tracer.count(
        "sp2.rows_accepted",
        sum(1 for lane in result if not _is_exception(lane) and lane.feasible),
    )


def _observe_lambert(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("lambert.elements", getattr(result, "size", 1))


def _observe_batches(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("serve.batches")
    tracer.count("serve.batch_lanes", len(result))


def _observe_handle(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    status, payload = result
    if isinstance(payload, dict):
        tracer.notes[tracer.current_request] = (payload.get("digest"), payload.get("cached"))


#: (span name, entry point, observe hook).  A metric is reported only when
#: at least one entry point of its span could be wrapped.
_TARGETS: tuple[tuple[str, str, Any], ...] = (
    ("scenarios", "repro.scenarios.spec:ScenarioSpec.build", None),
    ("allocator.solve", "repro.core.allocator:ResourceAllocator.solve", _observe_solve),
    ("allocator.batch", "repro.core.allocator:ResourceAllocator.solve_batch", _observe_batch),
    ("sp1", "repro.core.allocator:solve_subproblem1", _observe_sp1),
    ("sp1", "repro.core.allocator:solve_subproblem1_rows", _observe_sp1_rows),
    (
        "sum_of_ratios",
        "repro.core.sum_of_ratios:SumOfRatiosSolver.solve",
        _observe_sum_of_ratios,
    ),
    (
        "sum_of_ratios",
        "repro.core.allocator:solve_sum_of_ratios_rows",
        _observe_sum_of_ratios_rows,
    ),
    ("sp2.kkt", "repro.core.sum_of_ratios:solve_sp2_v2", _observe_kkt),
    ("sp2.rows", "repro.core.sum_of_ratios:solve_sp2_v2_rows", _observe_rows),
    ("sp2.fallback", "repro.core.sum_of_ratios:solve_sp2_v2_numeric", None),
    ("lambert", "repro.core.subproblem2:lambert_solve_vector", _observe_lambert),
    ("lambert", "repro.core.subproblem2:lambert_solve_rows", _observe_lambert),
    ("lambert", "repro.core.subproblem2:solve_x_log_x", _observe_lambert),
    ("lambert", "repro.core.subproblem2:solve_x_log_x_rows", _observe_lambert),
    ("runner", "repro.serve.coalescer:execute_batch", _observe_batches),
    ("serve.parse", "repro.serve.server:parse_request", None),
    ("serve.handle", "repro.serve.server:AllocationService.solve", _observe_handle),
    ("fl.allocate", "repro.fl.roundloop:FLRoundLoop._solve_round", None),
    ("fl.select", "repro.fl.roundloop:select_clients", None),
    ("fl.train", "repro.fl.roundloop:FedAvgServer.run_round", None),
    ("fl.estimate", "repro.fl.roundloop:ProfileEstimator.observe_round", None),
    ("fl.estimate", "repro.fl.roundloop:ProfileEstimator.estimated_system", None),
    ("fl.estimate", "repro.fl.roundloop:ProfileEstimator.error_report", None),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the program has."""
    request_ids = itertools.count()
    for name, target, observe in _TARGETS:
        request = (lambda: next(request_ids)) if name == "serve.handle" else None
        tracer.wrap(target, name, observe, request)


def instrument_store(tracer: Tracer, store: Any) -> None:
    """Wrap the live result store of a service (gets and puts)."""

    def observe_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            tracer.count("store.hits")

    tracer.wrap_instance(store, "get_entry", "store.get", observe_get)
    tracer.wrap_instance(store, "put", "store.put")


def _median_ms(values: Iterable[float]) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer_metrics(
    tracer: Tracer, client_latency: dict[tuple[str, bool], float] | None = None
) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``client_latency`` maps ``(digest, cached)`` of each served request to
    the latency its client saw; with it, ``serve.transport_ms`` is the
    median over cache hits of that latency minus the request's time
    inside ``AllocationService.solve``.
    """
    spans = tracer.by_name()
    counts = tracer.counts
    own = tracer.self_times()
    # Layers none of whose entry points exist any more: their metrics stay
    # absent.  Layers the workload simply does not use read 0.
    broken = {name for name, _, _ in _TARGETS} - tracer.wrapped
    broken |= {
        span
        for span, attr in (("store.get", ".get_entry"), ("store.put", ".put"))
        if any(target.endswith(attr) for target in tracer.missing)
    }

    def total(name: str) -> float:
        return sum(s.duration for s in spans.get(name, ()))

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[s.span_id] for s in spans.get(name, ()))

    out: dict[str, float] = {}

    def put(layer: str, name: str, value: float) -> None:
        if layer not in broken:
            out[name] = value

    put("scenarios", "scenarios.builds", calls("scenarios"))
    put("scenarios", "scenarios.build_s", total("scenarios"))
    put("allocator.solve", "allocator.solves", calls("allocator.solve"))
    if {"allocator.solve", "allocator.batch"} - broken:
        out["allocator.outer_iterations"] = counts["allocator.outer_iterations"]
    put("allocator.solve", "allocator.solve_s", total("allocator.solve"))
    put("allocator.solve", "allocator.solve_self_s", self_total("allocator.solve"))
    put("allocator.batch", "allocator.batch_lanes", counts["allocator.batch_lanes"])
    put("allocator.batch", "allocator.batch_s", total("allocator.batch"))
    put("allocator.batch", "allocator.batch_self_s", self_total("allocator.batch"))
    put("sp1", "sp1.calls", counts["sp1.calls"])
    put("sp1", "sp1.s", total("sp1"))
    put("sum_of_ratios", "sum_of_ratios.calls", counts["sum_of_ratios.calls"])
    put("sum_of_ratios", "sum_of_ratios.iterations", counts["sum_of_ratios.iterations"])
    put("sum_of_ratios", "sum_of_ratios.cap_hits", counts["sum_of_ratios.cap_hits"])
    put("sum_of_ratios", "sum_of_ratios.s", total("sum_of_ratios"))
    put("sum_of_ratios", "sp2.incumbent_calls", counts["sp2.incumbent_calls"])
    put("sp2.kkt", "sp2.kkt_calls", calls("sp2.kkt"))
    put("sp2.kkt", "sp2.kkt_s", total("sp2.kkt"))
    attempts = calls("sp2.kkt") + counts["sp2.rows_lanes"]
    accepted = counts["sp2.kkt_accepted"] + counts["sp2.rows_accepted"]
    if {"sp2.kkt", "sp2.rows"} - broken:
        out["sp2.kkt_yield"] = accepted / attempts if attempts else 0.0
    put("sp2.rows", "sp2.rows_lanes", counts["sp2.rows_lanes"])
    put("sp2.rows", "sp2.rows_s", total("sp2.rows"))
    put("sp2.fallback", "sp2.fallback_calls", calls("sp2.fallback"))
    put("sp2.fallback", "sp2.fallback_s", total("sp2.fallback"))
    put("lambert", "lambert.calls", calls("lambert"))
    put("lambert", "lambert.elements", counts["lambert.elements"])
    put("lambert", "lambert.s", total("lambert"))
    put("runner", "runner.execute_batch_s", total("runner"))
    put("runner", "serve.batches", counts["serve.batches"])
    batches = counts["serve.batches"]
    put("runner", "serve.lanes_per_batch", counts["serve.batch_lanes"] / batches if batches else 0.0)
    put("store.get", "store.gets", calls("store.get"))
    put("store.get", "store.hits", counts["store.hits"])
    put("store.get", "store.get_s", total("store.get"))
    put("store.put", "store.puts", calls("store.put"))
    put("store.put", "store.put_s", total("store.put"))
    put("serve.parse", "serve.parse_s", total("serve.parse"))
    handle = {
        tracer.notes.get(s.request): s.duration for s in spans.get("serve.handle", ())
    }
    hit_handle = [d for key, d in handle.items() if key is not None and key[1]]
    put("serve.handle", "serve.handle_ms", _median_ms(hit_handle))
    transport = [
        latency - handle[key]
        for key, latency in (client_latency or {}).items()
        if key[1] and key in handle
    ]
    put("serve.handle", "serve.transport_ms", _median_ms(transport))
    put("fl.train", "fl.rounds", calls("fl.train"))
    put("fl.allocate", "fl.allocate_s", total("fl.allocate"))
    put("fl.train", "fl.train_s", total("fl.train"))
    put("fl.select", "fl.select_s", total("fl.select"))
    put("fl.estimate", "fl.estimate_s", total("fl.estimate"))
    return out
