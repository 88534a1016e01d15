"""The reactive control loop under load: stack, workloads, checks and metrics.

One run builds the paper's prototype stack (a k=4 fat tree under
``YancController`` with the topology, router and ARP daemons, as in
``examples/reactive_routing.py``), waits for discovery, warms the hosts up, and
then drives one workload through the loop of §3–§3.5: a switch miss becomes a
packet-in, the driver publishes it to ``events/``, the router commits a flow
directory, and the driver turns it into a flow-mod.

The load is an open loop in simulated time: flows start on their schedule
whatever the controller does.  Everything runs in one thread.  The simulation
advances in short ``Simulator.run_until`` segments, with the reference kernel
timed between them, and every wall time is reported in reference-normalised
seconds (see :class:`Timer` and :mod:`refkernel`).  Segmenting changes nothing
in the simulation.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import refkernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"the yanc sources are missing: no package at {SRC / 'repro'}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import TrafficMatrix, TrafficReplay, YancController, build_fat_tree  # noqa: E402
from repro.apps import ArpResponder, RouterDaemon, TopologyDaemon  # noqa: E402
from repro.apps.base import PacketInApp  # noqa: E402
from repro.apps.topology import read_topology  # noqa: E402
from repro.dataplane.traffic import TrafficFlow  # noqa: E402
from repro.vfs.cred import ROOT as ROOT_CRED  # noqa: E402

#: Fat-tree arity: 20 switches, 16 hosts, 48 links.
FAT_TREE_K = 4
#: Longest stretch of simulated time one timed segment covers.
SLICE_S = 0.01
#: Most simulator events in one timed segment.
SEGMENT_EVENTS = 8
#: Segment seconds between two samples of the reference kernel.
KERNEL_EVERY_S = 0.02
#: Simulated seconds run after the last scheduled send, so the last flows
#: finish their round trip before the checks.
DRAIN_S = 0.05
#: Set-ups per run, each on a fresh stack; ``setup_s`` is timed over all.
SETUPS = 5
#: Of those stacks, how many run the measured phases.
REPS = 3
#: Simulated-time limit for discovery to match the ground truth.
DISCOVERY_LIMIT_S = 5.0
#: Warm-up datagrams use this port, below every workload flow's port.
WARMUP_PORT = 9
#: Held out from tuning: later performance claims must also hold on it.
HELD_OUT_SEED = 9001
#: Fewest flows a full-size run offers, so at least ten latency samples lie
#: beyond p95.
MIN_FLOWS = 200


class Subscriber(PacketInApp):
    """A passive §3.5 subscriber: reads every packet-in and discards it."""

    app_name = "sub"


@dataclass(frozen=True)
class Workload:
    """One named load.  ``*_per_s`` sizes scale with ``--seconds``."""

    name: str
    #: Passive subscribers added to the stack.
    subscribers: int
    #: Flows offered per second of ``--seconds`` (sizes the run).
    flows_per_s: float
    #: Flows started per simulated second (the open-loop rate).
    offered_flows_per_sim_s: float
    #: Hotspot flows installed, then forwarded over; otherwise uniform flows.
    hotspot: bool = False
    #: Forwarded datagrams per second of ``--seconds`` (hotspot only).
    datagrams_per_s: float = 0.0
    #: Simulated seconds between datagrams of one flow when forwarding.
    datagram_interval: float = 0.05


WORKLOADS = {
    w.name: w
    for w in (
        # Every flow is one reactive path install: the write side of the loop
        # (create_flow, commit, flow-mod) dominates.  250 flows per simulated
        # second outnumber LLDP packet-ins about two to one and still span
        # the driver's first stats poll.
        Workload(name="flow_setup", subscribers=0, flows_per_s=55.0, offered_flows_per_sim_s=250.0),
        # Publish, the backpressure probe, notify and read_events grow with
        # the subscribers while flow installs stay fixed: the read side of
        # the same VFS.
        Workload(name="packet_in_fanout", subscribers=8, flows_per_s=22.0, offered_flows_per_sim_s=200.0),
        # The bypass workload: paths exist, so switch lookup, frame parsing
        # and stats writes dominate the forwarding phase.
        Workload(
            name="steady_forwarding",
            subscribers=0,
            flows_per_s=0.0,
            offered_flows_per_sim_s=500.0,
            hotspot=True,
            datagrams_per_s=2400.0,
            datagram_interval=0.025,
        ),
    )
}


@dataclass(frozen=True)
class Size:
    """How much load one run offers."""

    flows: int
    datagrams_per_flow: int = 0  # forwarding phase only


def size_for(workload: Workload, seconds: float) -> Size:
    """The size of one repetition for ``--seconds`` over :data:`REPS` of them.

    Never fewer than :data:`MIN_FLOWS` flows.
    """
    flows = max(MIN_FLOWS, round(workload.flows_per_s * seconds / REPS))
    per_flow = 0
    if workload.datagrams_per_s:
        per_flow = max(1, round(workload.datagrams_per_s * seconds / REPS / flows))
    return Size(flows=flows, datagrams_per_flow=per_flow)


# -- slicing and timing --------------------------------------------------------------


class Timer:
    """Runs simulated time in segments and times each one.

    A segment is one :meth:`call` of work outside the simulator, or one
    ``run_until`` of at most :data:`SLICE_S` simulated seconds and about
    :data:`SEGMENT_EVENTS` events.  Segment boundaries depend only on the
    simulation, so repetitions cut identical work at identical points.
    The reference kernel is sampled whenever :data:`KERNEL_EVERY_S` of
    segment time has passed since the last sample; each segment is scaled
    by the first sample taken after it.  ``slice_s=None`` runs each span in
    one ``run_until`` and samples nothing (the unsliced reference of the
    determinism test).  A ``tracer`` records spans inside segments only.
    """

    def __init__(self, slice_s: float | None = SLICE_S, tracer=None) -> None:
        self.slice_s = slice_s
        self.tracer = tracer
        self.walls: list[float] = []
        #: The kernel sample that scales each segment (one per wall).
        self.kernels: list[float] = []
        #: Every kernel sample taken, in order.
        self.samples: list[float] = []
        self._unsampled = 0.0

    def run(self, sim, duration: float) -> None:
        """Advance ``sim`` by ``duration`` simulated seconds."""
        start_at = sim.now
        end_at = start_at + duration
        steps = 1 if self.slice_s is None else max(1, math.ceil(duration / self.slice_s - 1e-9))
        for index in range(1, steps + 1):
            deadline = end_at if index == steps else start_at + index * self.slice_s
            while self.call(self._advance, sim, deadline):
                pass

    def _advance(self, sim, deadline: float) -> bool:
        """Run events up to ``deadline``, at most about SEGMENT_EVENTS of them.

        Returns True when events before ``deadline`` remain.  Bursts of
        events at one simulated instant (an LLDP round) would otherwise be
        one long segment that time slices cannot cut.
        """
        if self.slice_s is None:
            sim.run_until(deadline)
            return False
        try:
            sim.run_until(deadline, max_events=SEGMENT_EVENTS)
        except RuntimeError as exc:
            if not str(exc).startswith("simulation exceeded"):
                raise
            return True
        return False

    def call(self, fn, *args):
        """Run one timed segment."""
        if self.tracer is not None:
            self.tracer.active = True
        began = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - began
            if self.tracer is not None:
                self.tracer.active = False
            self.walls.append(wall)
            self._unsampled += wall
            if self.slice_s is not None and self._unsampled >= KERNEL_EVERY_S:
                self._sample()

    def _sample(self) -> None:
        kernel = refkernel.sample()
        self.samples.append(kernel)
        self.kernels.extend([kernel] * (len(self.walls) - len(self.kernels)))
        self._unsampled = 0.0

    def segments(self) -> list[float]:
        """Each segment's reference-normalised seconds (raw when unsliced)."""
        if self.slice_s is None:
            return list(self.walls)
        if len(self.kernels) < len(self.walls):
            self._sample()
        return [wall * refkernel.NOMINAL_S / kernel for wall, kernel in zip(self.walls, self.kernels)]


def fastest(timers: list[Timer]) -> float:
    """Normalised seconds of repeated work, each segment at its fastest repetition.

    Every repetition runs the same deterministic work cut at the same
    simulated instants, so segment ``i`` costs the same in each.  The host
    flips between fast and slow states within seconds; the kernel sample
    after a segment scales out the state it ran in, and the minimum over
    repetitions drops the segments the scaling missed.
    """
    if len({len(t.walls) for t in timers}) != 1:
        raise RuntimeError("repetitions were not sliced identically")
    return sum(min(segment) for segment in zip(*(t.segments() for t in timers)))


# -- the stack -----------------------------------------------------------------------


class SetupError(RuntimeError):
    """The stack did not reach the state a run starts from."""


class _StampedList(list):
    """A host's ``udp_received`` that also records each receipt's sim time."""

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        self.times: list[float] = []

    def append(self, item) -> None:
        self.times.append(self.sim.now)
        super().append(item)


class Stack:
    """The controller, its daemons and the fat tree, discovered and warm."""

    def __init__(self, workload: Workload, timer: Timer) -> None:
        self.net = timer.call(build_fat_tree, FAT_TREE_K)
        self.ctl = timer.call(lambda: YancController(self.net).start())
        self.sim = self.ctl.sim

        def spawn_apps():
            host = self.ctl.host
            TopologyDaemon(host.process(), self.sim).start()
            self.router = RouterDaemon(host.process(), self.sim).start()
            ArpResponder(host.process(), self.sim).start()
            for i in range(workload.subscribers):
                Subscriber(host.process(name=f"sub{i}"), self.sim, name=f"sub{i}").start()
            self.admin = self.ctl.client(cred=ROOT_CRED, name="bench")

        timer.call(spawn_apps)
        self.driver = self.ctl.drivers[0]
        self.hosts = [self.net.hosts[name] for name in sorted(self.net.hosts)]
        self._discover(timer)
        self._warm_up(timer)

    def _discover(self, timer: Timer) -> None:
        truth = self.ctl.expected_topology()
        while timer.call(read_topology, self.admin) != truth:
            if self.sim.now > DISCOVERY_LIMIT_S:
                raise SetupError("discovery did not match expected_topology()")
            timer.run(self.sim, 0.05)

    def _warm_up(self, timer: Timer) -> None:
        """Pre-seed ARP and let every host send once, so routes need no flood."""
        for host in self.hosts:
            for other in self.hosts:
                if other is not host:
                    host.arp_table[other.ip] = other.mac
        for index, host in enumerate(self.hosts):
            peer = self.hosts[(index + 1) % len(self.hosts)]
            host.send_udp(peer.ip, WARMUP_PORT, WARMUP_PORT, b"warm-up")
        timer.run(self.sim, 0.1)
        if len(self.router.host_locations) != len(self.hosts):
            raise SetupError(f"router learned {len(self.router.host_locations)}/{len(self.hosts)} hosts")
        for host in self.hosts:
            if not any(udp.dst_port == WARMUP_PORT for _ip, udp in host.udp_received):
                raise SetupError(f"warm-up datagram to {host.name} was not delivered")
            host.udp_received = _StampedList(self.sim)

    # -- observation -------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every counter the metrics are built from, at this instant."""
        values = Counter(self.ctl.host.vfs.counters.snapshot().values)
        for proc in self.ctl.host.procs.processes():
            values.update(proc.sc.meter.counters.snapshot().values)  # syscalls are metered per process
        dcache = self.ctl.host.vfs.root_ns.dcache
        values.update(
            {
                "sim.events": self.sim.dispatched,
                "drivers.packet_ins": self.driver.packet_ins_handled,
                "drivers.flow_mods": self.driver.flow_mods_sent,
                "drivers.dropped_events": sum(b.dropped_events for b in self.driver.bindings.values()),
                "drivers.subscribers": max(len(b.event_apps) for b in self.driver.bindings.values()),
                "apps.paths": self.router.paths_installed,
                "apps.floods": self.router.floods,
                "dcache.path_hits": dcache.path_hits,
                "dcache.path_misses": dcache.path_misses,
            }
        )
        return dict(values)

    def table_errors(self) -> list[str]:
        """§3.4: committed flow directories and switch tables agree one to one."""
        errors = []
        for switch in self.net.switches.values():
            fs_name = self.ctl.fs_name_of(switch.name)
            committed: dict[tuple, list[str]] = {}
            for name in self.admin.flows(fs_name):
                spec = self.admin.read_flow(fs_name, name)
                if spec.version > 0:
                    committed.setdefault((spec.match, spec.priority), []).append(name)
            installed = Counter((entry.match, entry.priority) for entry in switch.table.entries())
            for key, names in committed.items():
                if len(names) != 1 or installed.get(key) != 1:
                    errors.append(f"{fs_name}: flows {sorted(names)} match {installed.get(key, 0)} table entries")
            for key, copies in installed.items():
                if key not in committed:
                    errors.append(f"{fs_name}: {copies} table entries with no committed flow: {key[0]}")
        return errors


# -- the measured phase --------------------------------------------------------------


@dataclass
class Phase:
    """One stretch of scheduled traffic: what it delivered and how long it took.

    Scores come from one repetition (every repetition delivers the same);
    ``timers`` holds one :class:`Timer` per repetition.
    """

    name: str
    flows: list[TrafficFlow]
    datagrams_offered: int
    datagrams_delivered: int = 0
    flows_set_up: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    timers: list[Timer] = field(default_factory=list)

    def outcome(self) -> tuple:
        return (self.datagrams_delivered, self.flows_set_up, tuple(self.latencies_ms))


def _replay(stack: Stack, matrix: TrafficMatrix, name: str, timer: Timer) -> Phase:
    """Start ``matrix`` now, run it and its drain, and score deliveries."""
    start = stack.sim.now
    TrafficReplay(stack.net, matrix).start()
    last = max(flow.start + (flow.packets - 1) * flow.interval for flow in matrix.flows)
    timer.run(stack.sim, last + DRAIN_S)
    phase = Phase(name=name, flows=matrix.flows, datagrams_offered=matrix.packets_offered, timers=[timer])
    for flow in matrix.flows:
        received = stack.net.hosts[flow.dst].udp_received
        times = [t for t, (_ip, udp) in zip(received.times, received) if udp.dst_port == flow.dst_port and t >= start]
        phase.datagrams_delivered += min(len(times), flow.packets)
        if times:
            phase.flows_set_up += 1
            phase.latencies_ms.append((times[0] - start - flow.start) * 1000.0)
    return phase


def plan(workload: Workload, seed: int, size: Size, host_names: list[str]) -> list[tuple[str, TrafficMatrix]]:
    """The seeded traffic of one run, as named phases in order."""
    spread = size.flows / workload.offered_flows_per_sim_s
    if not workload.hotspot:
        matrix = TrafficMatrix.uniform_random(host_names, num_flows=size.flows, packets_per_flow=1, seed=seed, spread=spread)
        return [("flows", matrix)]
    rng = random.Random(seed)
    hot = rng.choice(host_names)
    install = TrafficMatrix.hotspot(host_names, hot, num_flows=size.flows, packets_per_flow=1, seed=seed, spread=spread)
    forward = TrafficMatrix(
        [
            TrafficFlow(
                src=flow.src,
                dst=flow.dst,
                packets=size.datagrams_per_flow,
                start=rng.uniform(0.0, workload.datagram_interval),
                interval=workload.datagram_interval,
                dst_port=flow.dst_port,
            )
            for flow in install.flows
        ]
    )
    return [("install", install), ("forward", forward)]


#: Phases whose flows are new, timed for ``flow_setups_per_s``.
SETUP_PHASES = ("flows", "install")
#: Phases whose datagrams are timed for ``delivered_pps``.
DELIVERY_PHASES = ("flows", "forward")


# -- a whole run ---------------------------------------------------------------------


@dataclass
class RunResult:
    """Everything one run measured, before it is turned into metrics."""

    setup_timers: list[Timer]
    phases: list[Phase]
    counts: dict[str, int]  # measured-phase counter deltas
    problems: list[str]
    rss_mb: float

    def phase(self, *names: str) -> list[Phase]:
        return [p for p in self.phases if p.name in names]

    @property
    def flows_offered(self) -> int:
        return sum(len(p.flows) for p in self.phase(*SETUP_PHASES))

    @property
    def flows_set_up(self) -> int:
        return sum(p.flows_set_up for p in self.phase(*SETUP_PHASES))

    @property
    def latencies_ms(self) -> list[float]:
        return [x for p in self.phase(*SETUP_PHASES) for x in p.latencies_ms]

    @property
    def datagrams_offered(self) -> int:
        return sum(p.datagrams_offered for p in self.phases)

    @property
    def datagrams_lost(self) -> int:
        return sum(p.datagrams_offered - p.datagrams_delivered for p in self.phases)

    @property
    def delivered(self) -> int:
        return sum(p.datagrams_delivered for p in self.phase(*DELIVERY_PHASES))


def run(
    workload_name: str,
    seed: int,
    size: Size,
    *,
    setups: int = SETUPS,
    reps: int = REPS,
    slice_s: float | None = SLICE_S,
    tracer=None,
) -> RunResult:
    """Set up ``setups`` fresh stacks and drive the workload on the first ``reps``.

    With ``tracer`` (an installed :class:`spans.Tracer`), spans are recorded
    inside the measured phases' timed segments only.
    """
    workload = WORKLOADS[workload_name]
    setup_timers: list[Timer] = []
    runs: list[tuple[list[Phase], dict[str, int]]] = []
    problems: list[str] = []
    for index in range(max(setups, reps)):
        stack = None
        gc.collect()  # free the previous stack outside the timed segments
        timer = Timer(slice_s)
        stack = Stack(workload, timer)
        setup_timers.append(timer)
        if index >= reps:
            continue
        before = stack.counts()
        phases = [
            _replay(stack, matrix, name, Timer(slice_s, tracer))
            for name, matrix in plan(workload, seed, size, [h.name for h in stack.hosts])
        ]
        after = stack.counts()
        counts = {name: after[name] - before.get(name, 0) for name in after}
        counts["drivers.subscribers"] = after["drivers.subscribers"]
        runs.append((phases, counts))
        if index == reps - 1:
            problems.extend(stack.table_errors())
    phases, counts = runs[0]
    for index, (other_phases, other_counts) in enumerate(runs[1:], start=1):
        if [p.outcome() for p in other_phases] != [p.outcome() for p in phases] or other_counts != counts:
            problems.append(f"repetition {index} diverged from repetition 0")
        for phase, other in zip(phases, other_phases):
            phase.timers.extend(other.timers)
    return RunResult(
        setup_timers=setup_timers,
        phases=phases,
        counts=counts,
        problems=problems,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


# -- metrics -------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def phase_seconds(phases: list[Phase]) -> float:
    """Normalised seconds the phases took (see :func:`fastest`)."""
    return sum(fastest(p.timers) for p in phases)


def end_to_end(result: RunResult) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of an untraced run: name -> (value, unit).

    The latency metrics are left out when no flow delivered its first
    datagram (the run then fails its checks anyway).
    """
    lat = result.latencies_ms
    metrics = {
        "setup_s": (fastest(result.setup_timers), "s"),
        "flow_setups_per_s": (result.flows_set_up / phase_seconds(result.phase(*SETUP_PHASES)), "1/s"),
        "delivered_pps": (result.delivered / phase_seconds(result.phase(*DELIVERY_PHASES)), "1/s"),
        "loss_ratio": (result.datagrams_lost / result.datagrams_offered, "1"),
        "rss_mb": (result.rss_mb, "MB"),
    }
    if lat:
        metrics["flow_setup_sim_ms_mean"] = (statistics.fmean(lat), "ms")
        metrics["flow_setup_sim_ms_p50"] = (percentile(lat, 50), "ms")
        metrics["flow_setup_sim_ms_p95"] = (percentile(lat, 95), "ms")
    return metrics


def host_metrics(result: RunResult) -> dict[str, tuple[float, str]]:
    """Kernel time and raw mean-repetition rates: host drift made visible."""

    def mean_wall(phases: list[Phase]) -> float:
        return statistics.fmean(sum(sum(t.walls) for t in timers) for timers in zip(*(p.timers for p in phases)))

    kernels = [k for p in result.phases for t in p.timers for k in t.samples]
    return {
        "host.ref_ms": (statistics.median(kernels) * 1000.0, "ms"),
        "host.raw_flow_setups_per_s": (result.flows_set_up / mean_wall(result.phase(*SETUP_PHASES)), "1/s"),
        "host.raw_delivered_pps": (result.delivered / mean_wall(result.phase(*DELIVERY_PHASES)), "1/s"),
    }


def failures(result: RunResult) -> list[str]:
    """Output checks; any entry fails the run."""
    problems = list(result.problems)
    if result.datagrams_lost:
        problems.append(f"{result.datagrams_lost}/{result.datagrams_offered} datagrams not delivered")
    if result.flows_set_up != result.flows_offered:
        problems.append(f"{result.flows_offered - result.flows_set_up} flows never delivered their first datagram")
    if result.counts.get("drivers.dropped_events"):
        problems.append(f"driver dropped {result.counts['drivers.dropped_events']} packet-in events")
    return problems
