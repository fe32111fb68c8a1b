"""The benchmark's own tests: every check rejects a deliberately wrong output.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    from repro.core.allocator import ResourceAllocator
    from repro.core.problem import JointProblem, ProblemWeights
    from repro.scenarios import build_scenario_spec

    system = build_scenario_spec({"family": "paper", "num_devices": 12, "seed": 3})
    problem = JointProblem(system, ProblemWeights.from_energy_weight(0.5))
    return system, ResourceAllocator().solve(problem)


def _reported(result):
    return {
        "objective": result.objective,
        "energy_j": result.energy_j,
        "completion_time_s": result.completion_time_s,
    }


def _check(system, result, *, bandwidth_scale=1.0, reported=None):
    a = result.allocation
    return checks.check_allocation(
        system,
        a.power_w,
        a.bandwidth_hz * bandwidth_scale,
        a.frequency_hz,
        reported or _reported(result),
        0.5,
    )


def test_a_correct_solve_passes_every_check(solved):
    system, result = solved
    assert checks.check_result(system, result, 0.5, None) == []
    assert checks.check_same_result(result, result) == []


def test_bandwidth_sum_over_budget_is_rejected(solved):
    system, result = solved
    scale = 1.01 * system.total_bandwidth_hz / float(np.sum(result.allocation.bandwidth_hz))
    problems = _check(system, result, bandwidth_scale=scale)
    assert any("exceeds the budget" in p for p in problems)


def test_energy_off_by_one_percent_is_rejected(solved):
    system, result = solved
    reported = dict(_reported(result), energy_j=result.energy_j * 1.01)
    problems = _check(system, result, reported=reported)
    assert any("reported energy_j" in p for p in problems)


def test_power_outside_its_box_is_rejected(solved):
    system, result = solved
    a = result.allocation
    problems = checks.check_allocation(
        system, system.max_power_w * 1.01, a.bandwidth_hz, a.frequency_hz, _reported(result), 0.5
    )
    assert any("transmit power" in p for p in problems)


def test_missed_deadline_is_rejected(solved):
    system, result = solved
    a = result.allocation
    problems = checks.check_allocation(
        system, a.power_w, a.bandwidth_hz, a.frequency_hz, _reported(result), 0.5,
        deadline_s=0.5 * result.completion_time_s,
    )
    assert any("misses" in p for p in problems)


def test_losing_to_the_static_allocation_is_rejected(solved):
    system, _ = solved
    static = checks.static_objective(system, 0.5)
    assert checks.check_beats_static(system, static * 1.0001, 0.5)
    assert checks.check_beats_static(system, static * 0.5, 0.5) == []


def test_batched_lane_that_differs_by_one_ulp_is_rejected(solved):
    _, result = solved
    a = result.allocation
    nudged = dataclasses.replace(
        result,
        allocation=dataclasses.replace(
            a, bandwidth_hz=np.nextafter(a.bandwidth_hz, np.inf)
        ),
    )
    assert checks.check_same_result(result, nudged)


def test_serve_answer_that_differs_from_the_direct_solve_is_rejected(solved):
    _, result = solved
    direct = dict(result.summary())
    served = json.loads(json.dumps(direct))
    assert checks.check_same_metrics("served vs direct", served, direct) == []
    served["objective"] = float(np.nextafter(served["objective"], np.inf))
    assert checks.check_same_metrics("served vs direct", served, direct)


def test_serve_error_status_is_rejected():
    assert checks.check_response(500, {"error": "boom"})
    assert checks.check_response(200, {"digest": "d", "metrics": {}}) == []


def _fl_report():
    from repro.fl.churn import resolve_churn
    from repro.fl.roundloop import FLRoundLoop, RoundLoopConfig

    config = RoundLoopConfig(
        scenario={"family": "paper", "num_devices": 10, "seed": 1},
        rounds=6,
        selection="deadline-k",
        seed=1,
        churn={"mode": "poisson", "arrive_rate": 0.3, "depart_rate": 0.3,
               "initial_absent_fraction": 0.3},
    )
    report = FLRoundLoop(config).run()
    churn = resolve_churn(config.churn, num_devices=10, rounds=6, seed=1)
    return report.records, churn


def test_fl_client_selected_while_absent_is_rejected():
    records, churn = _fl_report()
    assert checks.check_fl_records(records, churn.initial_present, churn.events_for_round, 4) == {}
    absent = sorted(set(range(10)) - set(churn.initial_present))
    assert absent, "the schedule must hold someone back at round 1"
    first = records[0]
    tampered = [dataclasses.replace(first, selected=tuple(sorted({*first.selected, absent[0]})))]
    problems = checks.check_fl_records(
        tampered + list(records[1:]), churn.initial_present, churn.events_for_round, 4
    )
    assert any("absent clients" in p for p in problems[first.round_index])


def test_fl_energy_that_is_not_a_running_sum_is_rejected():
    records, churn = _fl_report()
    last = records[-1]
    tampered = list(records[:-1]) + [
        dataclasses.replace(last, consumed_energy_j=last.consumed_energy_j * 1.01)
    ]
    problems = checks.check_fl_records(tampered, churn.initial_present, churn.events_for_round, 4)
    assert any("running sum" in p for p in problems[last.round_index])


def test_tracer_skips_missing_entry_points_and_derives_self_times():
    tracer = Tracer()
    assert not tracer.wrap("repro.core.allocator:no_such_entry_point", "gone")
    assert tracer.missing == ["repro.core.allocator:no_such_entry_point"]
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.span_id
    assert own[outer.span_id] == pytest.approx(outer.duration - inner.duration)
    metrics = layers.per_layer_metrics(tracer)
    assert "sp2.fallback_calls" not in metrics  # nothing was instrumented


def test_tracer_restores_what_it_wrapped():
    import repro.core.sum_of_ratios as sor

    original = sor.solve_sp2_v2
    tracer = Tracer()
    layers.instrument(tracer)
    assert sor.solve_sp2_v2 is not original
    tracer.restore()
    assert sor.solve_sp2_v2 is original
    assert tracer.missing == []


def test_benchmark_json_lists_the_emitted_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(layers.PER_LAYER)
