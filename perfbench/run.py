"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-lan-wan --seed 1 \\
        --seconds 25 --trace 0

The seed expands into a fixed list of worlds (see ``worlds.py``);
``--seconds`` sizes that list so the untraced run measures about that
much CPU.  Each world runs in this one process with an invariant
checker and a crash-victim probe installed.  The run prints a
readable report and, as its last line, one JSON object::

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

``attempted``/``failed`` count viewer sessions.  A session fails when
it got a busy signal, was never served a frame, was a crash victim not
resumed by the end of its world, or an invariant violation names it.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
first unit of worlds untraced and then again under the layer tracer
(``layertrace.py``) and reports per-layer metrics instead, writing the
spans under ``.perfbench/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits
in; without them the run exits with a non-zero status before printing
a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Tail percentiles tried above the median, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)

#: Units of the exact counters that are not plain counts.
COUNTER_UNITS = {
    "client.stall_s": "s",
    "net.delivery_ratio": "ratio",
    "sim.events_per_sim_s": "1/s",
}

#: Layer self times must sum to the traced CPU time within this share.
SELF_SUM_TOLERANCE = 0.05


def import_program():
    """Put the checkout's ``src`` first on the path and import repro."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def nearest_rank(ordered, q: float) -> float:
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def failover_tail(latencies):
    """``(value, label)``: the highest ladder percentile with at least ten
    samples beyond it, or the maximum when not even p90 has ten."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return nearest_rank(ordered, pct / 100.0), f"p{pct:g}"
    return ordered[-1], "max"


def digest(outcomes) -> str:
    blob = json.dumps([o.digest_record() for o in outcomes], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sum_counters(outcomes):
    total = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            total[name] = total.get(name, 0) + value
    events = sum(o.events for o in outcomes)
    sim_s = sum(o.sim_s for o in outcomes)
    total["sim.events"] = events
    total["sim.events_per_sim_s"] = events / sim_s if sim_s else 0.0
    total["sim.pending_peak"] = max(o.pending_peak for o in outcomes)
    sent = total["net.packets_sent"]
    total["net.delivery_ratio"] = total["net.packets_delivered"] / sent if sent else 0.0
    total["client.frames_skipped"] = sum(o.skipped for o in outcomes)
    total["client.frames_late"] = sum(o.late for o in outcomes)
    total["client.stall_s"] = sum(o.stall_s for o in outcomes)
    return total


def run_units(worlds_mod, units, observe, speed):
    """Run every world of every unit; returns ``[[Outcome, ..], ..]``."""
    return [[worlds_mod.run_world(w, observe, speed) for w in unit] for unit in units]


def service_summary(outcomes):
    """The simulated end-to-end outcome (identical for a fixed seed)."""
    failovers = [x for o in outcomes for x in o.failovers]
    tail, tail_label = failover_tail(failovers) if failovers else (0.0, "none")
    qoe = sorted(s for o in outcomes for s in o.qoe_scores)
    breaches = [o.slo_breaches for o in outcomes if o.slo_breaches is not None]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "frames_displayed": sum(o.displayed for o in outcomes),
        "frames_skipped": sum(o.skipped for o in outcomes),
        "frames_late": sum(o.late for o in outcomes),
        "stall_s": sum(o.stall_s for o in outcomes),
        "failover_p50_s": statistics.median(failovers) if failovers else 0.0,
        "failover_tail_s": tail,
        "failover_tail_label": tail_label,
        "failover_samples": len(failovers),
        "qoe_mean": statistics.fmean(qoe) if qoe else None,
        "qoe_p10": nearest_rank(qoe, 0.10) if qoe else None,
        "slo_breaches": sum(breaches) if breaches else None,
        "attempted": attempted,
        "failed": failed,
        "sessions_failed_frac": failed / attempted if attempted else 0.0,
    }


def print_report(title, rows):
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value)
        )
        print(f"  {name:<34} {shown:>16} {unit}")


def measure(args, worlds_mod):
    """The untraced run: every unit, end-to-end metrics."""
    workload = worlds_mod.WORKLOADS[args.workload]
    n_units = max(1, round(args.seconds / workload.unit_s))
    units = worlds_mod.make_units(args.workload, args.seed, n_units)
    speed = HostSpeed()
    results = run_units(worlds_mod, units, workload.observe, speed)
    outcomes = [o for unit in results for o in unit]
    cpu_s = statistics.median(
        sum(o.run_cpu_s * o.speed_factor for o in unit) for unit in results
    )
    setup_s = statistics.median(
        sum(o.setup_cpu_s * o.setup_factor for o in unit) for unit in results
    )
    raw_cpu_s = statistics.median(sum(o.run_cpu_s for o in unit) for unit in results)
    factors = sorted(o.speed_factor for o in outcomes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    service = service_summary(outcomes)
    counters = sum_counters(outcomes)
    problems = [p for o in outcomes for p in o.problems]
    violations = [v for o in outcomes for v in o.violations]

    print(f"workload {args.workload} seed {args.seed}: {n_units} unit(s), "
          f"{len(outcomes)} world(s), world seeds from "
          f"{units[0][0].seed}, digest {digest(outcomes)}")
    print("  per-unit raw CPU (s): " + " ".join(
        f"{sum(o.run_cpu_s for o in unit):.3f}" for unit in results))
    print_report("end-to-end", [
        ("cpu_s (median per unit)", cpu_s, "s"),
        ("  raw, before rescaling", raw_cpu_s, "s"),
        ("  host speed factors (min..max)",
         f"{factors[0]:.3f}..{factors[-1]:.3f}", ""),
        ("setup_s (median per unit)", setup_s, "s"),
        ("peak_rss_mb", rss_mb, "MiB"),
        ("frames_displayed", service["frames_displayed"], "frames"),
        ("frames_skipped", service["frames_skipped"], "frames"),
        ("frames_late", service["frames_late"], "frames"),
        ("stall_s", service["stall_s"], "s"),
        ("failover_p50_s", service["failover_p50_s"], "s"),
        (f"failover_tail_s ({service['failover_tail_label']}, "
         f"n={service['failover_samples']})", service["failover_tail_s"], "s"),
        ("qoe_mean", service["qoe_mean"], "score"),
        ("qoe_p10", service["qoe_p10"], "score"),
        ("slo_breaches", service["slo_breaches"], "count"),
        ("sessions_failed_frac", service["sessions_failed_frac"], "ratio"),
        ("sessions attempted / failed",
         f"{service['attempted']} / {service['failed']}", "sessions"),
    ])
    print_report("exact counters", [(k, v, "") for k, v in sorted(counters.items())])
    for line in violations:
        print(f"  invariant violation: {line}")
    for line in problems:
        print(f"  check failed: {line}")
    metrics = {
        "cpu_s": (cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "frames_displayed": (service["frames_displayed"], "frames"),
        "failover_p50_s": (service["failover_p50_s"], "s"),
        "failover_tail_s": (service["failover_tail_s"], "s"),
    }
    return not problems, service["attempted"], service["failed"], metrics


def measure_traced(args, worlds_mod):
    """The traced run: the first unit untraced, then under the tracer."""
    from layertrace import LAYERS, LayerTracer

    observe = worlds_mod.WORKLOADS[args.workload].observe
    unit = worlds_mod.make_units(args.workload, args.seed, 1)[0]
    # No probing here: the probe would run under the tracer too, and the
    # overhead is a ratio of raw CPU times taken moments apart.
    speed = HostSpeed(share=0.0)
    plain = run_units(worlds_mod, [unit], observe, speed)[0]
    tracer = LayerTracer()
    cpu0 = time.process_time()
    tracer.start()
    try:
        traced = run_units(worlds_mod, [unit], observe, speed)[0]
    finally:
        tracer.stop()
    traced_cpu = time.process_time() - cpu0
    plain_cpu = sum(o.run_cpu_s + o.setup_cpu_s for o in plain)
    overhead = sum(o.run_cpu_s + o.setup_cpu_s for o in traced) / plain_cpu
    self_sum = tracer.elapsed_ns / 1e9
    coverage = self_sum / traced_cpu
    table = tracer.layer_table()
    counters = sum_counters(traced)
    service = service_summary(traced)
    problems = [p for o in plain + traced for p in o.problems]
    if digest(plain) != digest(traced):
        problems.append("the traced run's simulated outcome differs from the untraced run")
    if sum_counters(plain) != counters:
        problems.append("the traced run's exact counters differ from the untraced run")
    if abs(coverage - 1.0) > SELF_SUM_TOLERANCE:
        problems.append(
            f"layer self times sum to {self_sum:.3f} s against {traced_cpu:.3f} s "
            f"of traced CPU (tolerance {SELF_SUM_TOLERANCE:.0%})"
        )
    spans_path = os.path.join(
        ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.bin"
    )
    written = tracer.write_spans(
        spans_path, meta={"workload": args.workload, "seed": args.seed}
    )

    print(f"workload {args.workload} seed {args.seed} traced: "
          f"{len(unit)} world(s) from seed {unit[0].seed}, digest {digest(traced)}")
    print(f"  untraced CPU {plain_cpu:.3f} s, traced CPU {plain_cpu * overhead:.3f} s, "
          f"overhead x{overhead:.2f}")
    print(f"  layer self times sum to {self_sum:.3f} s "
          f"({coverage:.1%} of traced CPU, tolerance {SELF_SUM_TOLERANCE:.0%})")
    print(f"  {tracer.events} kernel events, {tracer.spans_total} spans, "
          f"{len(tracer.span_id)} kept in {os.path.relpath(spans_path, ROOT)} "
          f"({written} bytes)")
    print(f"  {'layer':<10} {'calls':>10} {'self_s':>10} {'share':>8}")
    for name, row in table.items():
        print(f"  {name:<10} {row['calls']:>10} {row['self_s']:>10.3f} "
              f"{row['self_share']:>8.1%}")
    print_report("exact counters (traced unit)",
                 [(k, v, "") for k, v in sorted(counters.items())])
    for line in problems:
        print(f"  check failed: {line}")

    metrics = {}
    for name in LAYERS:
        row = table[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.self_share"] = (row["self_share"], "ratio")
    metrics["other.self_share"] = (table["other"]["self_share"], "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.self_sum_ratio"] = (coverage, "ratio")
    for name, value in sorted(counters.items()):
        metrics[name] = (value, COUNTER_UNITS.get(name, "count"))
    return not problems, service["attempted"], service["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import worlds as worlds_mod

    if args.workload not in worlds_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(worlds_mod.WORKLOADS)}")
    run = measure_traced if args.trace else measure
    correct, attempted, failed, metrics = run(args, worlds_mod)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
