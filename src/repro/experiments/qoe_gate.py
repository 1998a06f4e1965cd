"""QoE regression gate: ``repro-vod qoe-check``.

Runs the two observed reference workloads — the Figure 4 LAN failover
and a short chaos sweep — with the QoE/SLO observers attached, folds
them into a small set of user-facing numbers (failover p50/p99, glitch
and stall totals, mean QoE score) plus the telemetry observer's
wall-clock overhead, writes everything to ``BENCH_qoe.json``, and
compares against the checked-in baseline
(``benchmarks/BENCH_qoe_baseline.json``).

The QoE metrics are deterministic under the fixed gate seeds, so the
10 % tolerance only has to absorb cross-platform float jitter; a real
regression (an extra glitch, a slower failover) trips it immediately.
Observer overhead is *not* deterministic, so it is judged against a
fixed ceiling rather than a baseline ratio.  It is measured the way
``tests/telemetry/test_overhead.py`` measures the disabled path: CPU
time (``process_time``) of plain and observed runs of the same seed,
in alternating order after an untimed warm-up, and the median of the
per-pair overheads is reported with its interquartile spread.

Regenerate the baseline after an intentional behaviour change with
``repro-vod qoe-check --update-baseline``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.telemetry.slo import quantile

#: Fixed workload: the Figure 4 scenario seed is baked into the spec;
#: chaos trials use GATE_CHAOS_SEED + i.
GATE_CHAOS_SEED = 1000
GATE_CHAOS_PLANS = 3
GATE_CHAOS_DURATION_S = 60.0

#: Plain/observed pairs timed for the overhead figure.
OVERHEAD_PAIRS = 7
#: Ceiling on the median observer overhead, in percent.  With routed
#: dispatch the median measured 12.4 % (interquartile 5.2-20.5 %, 7
#: pairs) and 14.3 % (10.3-21.1 %, 15 pairs) on a 2-core Linux
#: container, where the pre-routing bus measured 32 % and fails it.
#: The margin of about 16 points has been measured on that container
#: only, not on the CI runner; check it against a CI run's
#: ``BENCH_qoe.json`` before tightening further.
OVERHEAD_CEILING_PCT = 30.0

#: Default artifact locations.
DEFAULT_BASELINE = os.path.join("benchmarks", "BENCH_qoe_baseline.json")
DEFAULT_OUT = os.path.join("artifacts", "BENCH_qoe.json")

#: Judged metrics: name -> (higher_is_worse, absolute slack).  The
#: slack keeps near-zero baselines from failing on noise a user could
#: never perceive (e.g. a 0.43 s failover drifting to 0.44 s).
JUDGED_METRICS: Dict[str, Tuple[bool, float]] = {
    "failover_p50_s": (True, 0.05),
    "failover_p99_s": (True, 0.05),
    "glitch_total": (True, 0.5),
    "stall_s_total": (True, 0.25),
    "qoe_mean_score": (False, 1.0),
}


def measure(
    chaos_seed: int = GATE_CHAOS_SEED,
    plans: int = GATE_CHAOS_PLANS,
    chaos_duration_s: float = GATE_CHAOS_DURATION_S,
) -> Dict:
    """Run the gate workloads and return the measurement record."""
    from repro.experiments.scenarios import LAN_SCENARIO
    from repro.faulting.chaos import run_chaos_trial

    overhead, observed = measure_overhead()

    failovers: List[float] = list(observed.failovers)
    cards = list(observed.qoe.values())
    for index in range(plans):
        trial = run_chaos_trial(
            seed=chaos_seed + index,
            duration_s=chaos_duration_s,
            observe=True,
        )
        failovers.extend(trial.failovers)
        cards.extend(trial.qoe.values())

    glitch_total = sum(card.stall_count for card in cards)
    stall_s_total = sum(card.stall_s for card in cards)
    scores = [card.score() for card in cards]
    return {
        "schema": 1,
        "workload": {
            "figure4_seed": LAN_SCENARIO.seed,
            "chaos_seed": chaos_seed,
            "chaos_plans": plans,
            "chaos_duration_s": chaos_duration_s,
        },
        "metrics": {
            "failover_count": len(failovers),
            "failover_p50_s": quantile(failovers, 0.50) if failovers else 0.0,
            "failover_p99_s": quantile(failovers, 0.99) if failovers else 0.0,
            "glitch_total": glitch_total,
            "stall_s_total": stall_s_total,
            "qoe_mean_score": (
                sum(scores) / len(scores) if scores else 0.0
            ),
            "clients_scored": len(cards),
        },
        "overhead_pct": overhead["median"],
        "overhead_iqr_pct": [overhead["q1"], overhead["q3"]],
        "overhead_pairs": overhead["pairs"],
        "overhead_ceiling_pct": OVERHEAD_CEILING_PCT,
        # Informational (not judged): proof the overhead number above
        # was measured with the flight recorder live and capturing.
        "flight": {
            "incidents": len(observed.incidents),
            "occupancy": (observed.flight or {}).get("occupancy", 0),
            "estimated_bytes": (
                (observed.flight or {}).get("estimated_bytes", 0)
            ),
        },
    }


def measure_overhead():
    """The observers' CPU overhead on the Figure 4 LAN scenario.

    Each pair runs the scenario plain (bus inactive end to end) and
    observed (QoE + SLO subscribers, cause propagation, span accounting
    and the flight recorder) on the same seed; the order alternates
    pair by pair so neither side always pays for warming up.  Returns
    ``({"median", "q1", "q3", "pairs"}, an observed ScenarioResult)``
    with the overheads in percent.
    """
    from repro.experiments.scenarios import LAN_SCENARIO, run_scenario

    def timed(observe: bool):
        start = time.process_time()
        result = run_scenario(LAN_SCENARIO, observe=observe, flight=observe)
        return time.process_time() - start, result

    timed(False)  # warm-up, untimed
    overheads = []
    observed = None
    for index in range(OVERHEAD_PAIRS):
        if index % 2:
            observed_s, observed = timed(True)
            plain_s, _ = timed(False)
        else:
            plain_s, _ = timed(False)
            observed_s, observed = timed(True)
        overheads.append(100.0 * (observed_s / plain_s - 1.0))
    return {
        "median": quantile(overheads, 0.50),
        "q1": quantile(overheads, 0.25),
        "q3": quantile(overheads, 0.75),
        "pairs": OVERHEAD_PAIRS,
    }, observed


def compare(
    current: Dict, baseline: Dict, tolerance: float = 0.10
) -> Tuple[List[str], bool]:
    """Judge ``current`` against ``baseline``; (report lines, ok)."""
    lines: List[str] = []
    ok = True
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name, (higher_is_worse, slack) in JUDGED_METRICS.items():
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        if base is None or cur is None:
            lines.append(f"  ? {name:<18} missing from "
                         f"{'baseline' if base is None else 'measurement'}")
            continue
        base = float(base)
        cur = float(cur)
        margin = max(tolerance * abs(base), slack)
        if higher_is_worse:
            bad = cur > base + margin
        else:
            bad = cur < base - margin
        mark = "FAIL" if bad else "ok"
        lines.append(
            f"  {mark:<4} {name:<18} {cur:10.4f} vs baseline "
            f"{base:10.4f} (margin {margin:.4f})"
        )
        ok = ok and not bad
    ceiling = float(
        baseline.get(
            "overhead_ceiling_pct",
            current.get("overhead_ceiling_pct", OVERHEAD_CEILING_PCT),
        )
    )
    overhead = float(current.get("overhead_pct", 0.0))
    bad = overhead > ceiling
    lines.append(
        f"  {'FAIL' if bad else 'ok':<4} {'overhead_pct':<18} "
        f"{overhead:10.4f} vs ceiling  {ceiling:10.4f}"
    )
    ok = ok and not bad
    return lines, ok


def run_gate(
    out_path: str = DEFAULT_OUT,
    baseline_path: str = DEFAULT_BASELINE,
    update_baseline: bool = False,
    tolerance: float = 0.10,
    plans: int = GATE_CHAOS_PLANS,
    chaos_duration_s: float = GATE_CHAOS_DURATION_S,
) -> Tuple[str, bool]:
    """Measure, write ``out_path``, compare; (report text, passed)."""
    current = measure(plans=plans, chaos_duration_s=chaos_duration_s)
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(current, handle, indent=1)
    lines = [f"QoE gate measurements written to {out_path}"]
    if update_baseline:
        directory = os.path.dirname(baseline_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(baseline_path, "w") as handle:
            json.dump(current, handle, indent=1)
        lines.append(f"baseline updated at {baseline_path}")
        return "\n".join(lines), True
    baseline = _load(baseline_path)
    if baseline is None:
        lines.append(
            f"no baseline at {baseline_path}; run with --update-baseline "
            "to create one"
        )
        return "\n".join(lines), False
    verdicts, ok = compare(current, baseline, tolerance=tolerance)
    lines.append(f"comparison vs {baseline_path} "
                 f"(tolerance {tolerance:.0%}):")
    lines.extend(verdicts)
    lines.append("QoE gate PASSED" if ok else "QoE gate FAILED")
    return "\n".join(lines), ok


def _load(path: str) -> Optional[Dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
