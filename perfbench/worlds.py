"""The benchmark's workloads: seeded worlds, how to run one, what to read.

A *world* is one complete simulated service: a topology, a deployment,
its viewers and a fault schedule.  A workload seed expands into a fixed
list of worlds (:func:`make_units`); running a world goes only through
the program's public entry points (``prepare_scenario`` and the
kernel's ``run_until`` for the paper and storm worlds,
``build_scale_rig`` for the fleet) with an :class:`InvariantChecker`
and a crash-victim probe attached.  :func:`run_world` returns the
world's simulated outcome, its exact counters and its set-up and run
CPU times.

Viewers arrive on a fixed simulated-time schedule decided before the
run starts (an open loop): the paper worlds' single viewer at t=0, the
storm's Poisson arrivals, and the fleet's connect window.  Nothing the
system does changes when the next viewer arrives.
"""

from __future__ import annotations

import gc
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.matrix import POPULATION_ADMISSION
from repro.experiments.scale import build_scale_rig, make_crash_most_loaded
from repro.experiments.scenarios import (
    LAN_SCENARIO,
    WAN_SCENARIO,
    ScenarioSpec,
    WorkloadSpec,
    prepare_scenario,
)
from repro.faulting import InvariantChecker
from repro.sim.gcgate import paused_gc

from hostspeed import HostSpeed

#: Simulated seconds per kernel slice; ``pending_count()`` is sampled
#: at every slice boundary.
SLICE_S = 1.0

#: The storm: 64 full viewers on the LAN, Poisson arrivals from t=2 s
#: at 2/s (the first 64 of them), the vcr-storm behaviour script, the
#: scenario matrix's population admission policy, and the matrix's
#: population fault timing (crash the serving server at 30 s, a new
#: server at 45 s, 70 s run).
STORM_SPEC = ScenarioSpec(
    name="vcr-storm-64",
    network="lan",
    movie_duration_s=70.0,
    run_duration_s=70.0,
    schedule=((30.0, "crash-serving"), (45.0, "server-up")),
    workload=WorkloadSpec(
        kind="poisson",
        n_viewers=64,
        at_s=2.0,
        peak_rate_per_s=2.0,
        window_s=40.0,
        profile="vcr-storm",
    ),
    admission=POPULATION_ADMISSION,
    n_client_hosts=65,
)

#: The ROADMAP's flyweight reference point: 20 000 rows behind edge
#: concentrators, three head-ends, the most-loaded one crashed at 5 s
#: of a 10 s run.
FLEET_VIEWERS = 20_000
FLEET_SERVERS = 3
FLEET_DURATION_S = 10.0
FLEET_CRASH_S = 5.0


@dataclass(frozen=True)
class Workload:
    """A named workload: which worlds make one unit, what a unit costs.

    Why each workload exists is recorded in ``BENCHMARK.json``."""

    name: str
    kinds: Tuple[str, ...]  # world kinds in one unit
    unit_s: float  # rough seconds one untraced unit takes, for sizing
    observe: bool  # attach the QoE/SLO observers and flight recorder


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-lan-wan", ("lan", "wan"), 3.4, observe=True),
        Workload("vcr-storm-64", ("vcr",), 8.5, observe=False),
        Workload("fleet-flyweight-20k", ("fleet",), 7.0, observe=False),
    )
}


@dataclass(frozen=True)
class World:
    """One generated world: its kind and its simulator seed."""

    kind: str
    seed: int

    @property
    def spec(self) -> Optional[ScenarioSpec]:
        if self.kind == "lan":
            return LAN_SCENARIO
        if self.kind == "wan":
            return WAN_SCENARIO
        if self.kind == "vcr":
            return STORM_SPEC
        return None

    def arrival_times(self) -> List[float]:
        """The open-loop schedule of population arrivals (storm only)."""
        spec = self.spec
        if spec is None or spec.workload is None:
            return []
        return spec.workload.arrival_times(self.seed)


def base_seed(workload: str, seed: int) -> int:
    """The first world seed of ``workload`` under benchmark ``seed``.

    Content-addressed like the scenario matrix's cell seeds, so a
    workload's worlds never depend on which other workloads exist."""
    return zlib.crc32(f"{workload}:{seed}".encode()) % 1_000_000


def make_units(workload: str, seed: int, n_units: int) -> List[List[World]]:
    """``n_units`` units of worlds; unit ``i`` uses world seed base+i."""
    spec = WORKLOADS[workload]
    first = base_seed(workload, seed)
    return [
        [World(kind, first + index) for kind in spec.kinds]
        for index in range(n_units)
    ]


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class FailoverProbe:
    """Crash-victim accounting from the servers' lifecycle callbacks.

    A victim is a viewer a server was serving when it crashed; its
    failover latency runs from the crash to its next session start on a
    running server other than the crashed one."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.pending: Dict[object, Tuple[float, str]] = {}
        self.latencies: List[float] = []
        self.takeovers = 0
        self.crashes = 0

    def on_server_crash(self, server, clients) -> None:
        self.crashes += 1
        for client in clients:
            self.pending.setdefault(client, (self.sim.now, server.name))

    def on_session_start(self, server, record, takeover: bool) -> None:
        if takeover:
            self.takeovers += 1
        hit = self.pending.get(record.client)
        if hit is None or not server.running or server.name == hit[1]:
            return
        del self.pending[record.client]
        self.latencies.append(self.sim.now - hit[0])


@dataclass
class Outcome:
    """Everything one world run produced."""

    world: World
    # Raw process CPU of set-up and run, and the factors that rescale
    # them to the reference host speed (see hostspeed.py).
    setup_cpu_s: float = 0.0
    run_cpu_s: float = 0.0
    setup_factor: float = 1.0
    speed_factor: float = 1.0
    events: int = 0
    sim_s: float = 0.0
    pending_peak: int = 0
    # (viewer, displayed, skipped, late), sorted by viewer name.
    viewers: List[Tuple[str, int, int, int]] = field(default_factory=list)
    failovers: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stall_s: float = 0.0
    qoe_scores: List[float] = field(default_factory=list)
    slo_breaches: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def displayed(self) -> int:
        return sum(v[1] for v in self.viewers)

    @property
    def skipped(self) -> int:
        return sum(v[2] for v in self.viewers)

    @property
    def late(self) -> int:
        return sum(v[3] for v in self.viewers)

    def digest_record(self) -> list:
        """The simulated outcome in canonical form (for the digest)."""
        return [
            self.world.kind,
            self.world.seed,
            self.viewers,
            [repr(x) for x in self.failovers],
        ]


def _drive(sim, until: float, outcome: Outcome, speed: HostSpeed) -> None:
    """Run the kernel to ``until`` in slices, sampling the queue depth
    and probing the host speed after each slice."""
    clock = time.process_time
    while sim.now < until:
        started = clock()
        outcome.events += sim.run_until(min(sim.now + SLICE_S, until))
        outcome.pending_peak = max(outcome.pending_peak, sim.pending_count())
        speed.add_work(clock() - started)
    outcome.sim_s = sim.now


def _deployment_counters(deployment, counters: Dict[str, float]) -> None:
    sent = delivered = dropped = 0
    for link in deployment.network.links():
        stats = link.stats()
        sent += stats.sent_packets
        delivered += stats.delivered_packets
        dropped += stats.drop_total()
    counters["net.packets_sent"] = sent
    counters["net.packets_delivered"] = delivered
    counters["net.dropped"] = dropped
    domain = deployment.domain
    endpoints = {id(s.endpoint): s.endpoint for s in deployment.servers.values()}
    for node in domain.daemon_nodes():
        endpoint = domain.endpoint(node)
        endpoints[id(endpoint)] = endpoint
    counters["gcs.control_packets"] = sum(
        e.control_packets_sent for e in endpoints.values()
    )
    counters["gcs.control_bytes"] = sum(
        e.control_bytes_sent for e in endpoints.values()
    )
    servers = deployment.servers.values()
    counters["server.video_frames_sent"] = sum(s.video_frames_sent for s in servers)
    counters["server.state_sync_bytes"] = sum(
        s.state_sync_bytes_sent for s in servers
    )


def _client_counters(clients, now: float, counters: Dict[str, float]) -> float:
    """Sum the full clients' counters; returns their total stall time."""
    names = (
        "flow_messages",
        "emergencies_sent",
        "overflow_discards",
        "duplicates",
        "reconnects",
    )
    totals = dict.fromkeys(names, 0)
    stall = 0.0
    for client in clients:
        for name in names:
            totals[name] += getattr(client.stats, name)
        client.decoder.end_stall(now)
        stall += client.decoder.stats.stall_time_s
    for name in names:
        counters[f"client.{name}"] = totals[name]
    return stall


# ----------------------------------------------------------------------
# Running worlds
# ----------------------------------------------------------------------
def run_world(world: World, observe: bool, speed: HostSpeed) -> Outcome:
    """Build and run one world; CPU times cover set-up and the run."""
    gc.collect()
    mark = speed.mark()
    if world.kind == "fleet":
        outcome = _run_fleet(world, speed)
    else:
        outcome = _run_scenario(world, observe, speed)
    outcome.speed_factor = speed.factor_since(mark)
    return outcome


def _probe_after(speed: HostSpeed, cpu_s: float) -> float:
    """Probe right after ``cpu_s`` of work; returns the factor for it."""
    mark = speed.mark()
    speed.add_work(cpu_s)
    return speed.factor_since(mark)


def _timed_run(outcome: Outcome, speed: HostSpeed, section) -> None:
    """Time ``section()`` as the world's run, excluding probe chunks."""
    probe_before, work_before = speed.probe_s, speed.work_s
    started = time.process_time()
    section()
    elapsed = time.process_time() - started
    outcome.run_cpu_s = elapsed - (speed.probe_s - probe_before)
    # Probe after the part of the section no slice accounted for.
    speed.add_work(outcome.run_cpu_s - (speed.work_s - work_before))


def _run_scenario(world: World, observe: bool, speed: HostSpeed) -> Outcome:
    spec = world.spec
    outcome = Outcome(world)
    started = time.process_time()
    live = prepare_scenario(spec, seed=world.seed, observe=observe, flight=observe)
    deployment = live.result.deployment
    checker = InvariantChecker(deployment).install()
    probe = FailoverProbe(live.sim)
    deployment.add_server_observer(probe)
    outcome.setup_cpu_s = time.process_time() - started
    outcome.setup_factor = _probe_after(speed, outcome.setup_cpu_s)

    def section() -> None:
        with live:
            _drive(live.sim, spec.run_duration_s, outcome, speed)
            live.finish()

    _timed_run(outcome, speed, section)
    checker.stop()
    sim = live.sim
    result = live.result
    violations = checker.final_check()
    outcome.violations = [str(v) for v in violations]
    bad_clients = {v.client for v in violations}

    clients = sorted(deployment.clients.values(), key=lambda c: c.name)
    counters = outcome.counters
    outcome.stall_s = _client_counters(clients, sim.now, counters)
    _deployment_counters(deployment, counters)
    counters["server.takeovers"] = probe.takeovers
    counters["telemetry.emitted"] = sim.telemetry.emitted
    driver = result.driver
    busy = driver.skipped_arrivals if driver is not None else 0
    counters["workloads.arrivals"] = (len(driver.clients) + busy) if driver else 0
    counters["workloads.busy_signals"] = busy
    counters["faulting.faults_fired"] = len(result.injector.fired)
    counters["faulting.invariant_violations"] = len(violations)

    outcome.viewers = [
        (c.name, c.displayed_total, c.skipped_total, c.stats.late_frames)
        for c in clients
    ]
    outcome.failovers = list(probe.latencies)
    unresumed = set()
    for process in probe.pending:
        client = next((c for c in clients if c.process == process), None)
        if client is not None and not (client.finished or client.video_socket.closed):
            unresumed.add(client.name)
    outcome.attempted = len(clients) + busy
    outcome.failed = busy + sum(
        1
        for c in clients
        if c.displayed_total == 0
        or c.name in unresumed
        or c.name in bad_clients
        or None in bad_clients
    )
    if live.qoe_collector is not None:
        outcome.qoe_scores = sorted(card.score() for card in result.qoe.values())
        outcome.slo_breaches = live.slo_monitor.total_breaches
    if not result.injector.crash_times:
        outcome.problems.append(f"{world}: the scheduled crash never fired")
    if probe.crashes and not probe.latencies and not unresumed:
        outcome.problems.append(f"{world}: a crash left no victim to measure")
    return outcome


def _run_fleet(world: World, speed: HostSpeed) -> Outcome:
    outcome = Outcome(world)
    started = time.process_time()
    sim, deployment, pool, observer = build_scale_rig(
        FLEET_VIEWERS,
        1.0,
        n_servers=FLEET_SERVERS,
        seed=world.seed,
        movie_duration_s=FLEET_DURATION_S + 60.0,
        mode="flyweight",
    )
    sim.call_at(FLEET_CRASH_S, make_crash_most_loaded(deployment, observer))
    checker = InvariantChecker(deployment).install()
    probe = FailoverProbe(sim)
    deployment.add_server_observer(probe)
    outcome.setup_cpu_s = time.process_time() - started
    outcome.setup_factor = _probe_after(speed, outcome.setup_cpu_s)

    def section() -> None:
        # The scale rig's own measured sections run with the collector
        # paused (see repro.sim.gcgate); the benchmark times it the same
        # way, including the collection on exit.
        with paused_gc():
            _drive(sim, FLEET_DURATION_S, outcome, speed)

    _timed_run(outcome, speed, section)
    checker.stop()
    violations = checker.final_check()
    outcome.violations = [str(v) for v in violations]

    counters = outcome.counters
    _client_counters((), sim.now, counters)  # rows have no client objects
    _deployment_counters(deployment, counters)
    counters["server.takeovers"] = probe.takeovers
    counters["telemetry.emitted"] = sim.telemetry.emitted
    counters["workloads.arrivals"] = 0
    counters["workloads.busy_signals"] = 0
    counters["faulting.faults_fired"] = probe.crashes
    counters["faulting.invariant_violations"] = len(violations)

    positions = pool.positions()
    outcome.viewers = sorted(
        (name, max(0, offset - 1), 0, 0) for name, offset in positions.items()
    )
    outcome.failovers = list(probe.latencies)
    unresumed = sum(
        1 for process in probe.pending if not pool.finished[pool.row_of(process)]
    )
    never_started = sum(1 for started_row in pool.started if not started_row)
    outcome.attempted = len(pool)
    outcome.failed = unresumed + never_started
    if violations:
        outcome.failed = outcome.attempted
    if probe.crashes != 1 or not probe.latencies:
        outcome.problems.append(f"{world}: the crash produced no takeovers")
    return outcome
