"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``src/repro`` layer on
the control loop (class methods, and module functions at every import site)
for the length of a ``with`` block, and records one span per call while
:attr:`Tracer.active` is set.  Spans stay in memory as flat arrays and are
written out once, at the end.  A layer's self time is its spans' durations
minus the parts their child spans cover; time inside the measured segments
that no span covers is reported as unattributed, never folded into a layer.

Off-loop modules (``libyanc``, ``distfs``, ``views``, ``middlebox``,
``analysis``) are not wrapped and get no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import loop  # first: puts the program under test on sys.path
from repro.apps.arp import ArpResponder
from repro.apps.base import PacketInApp
from repro.apps.router import RouterDaemon
from repro.apps.topology import TopologyDaemon
from repro.controlchannel.channel import ControlConnection
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.host import HostSim
from repro.dataplane.link import Link
from repro.dataplane.switch import SwitchSim
from repro.drivers.openflow_driver import OpenFlowDriver
from repro.netpkt import packet
from repro.openflow import of10, of13
from repro.openflow.agent import SwitchAgent
from repro.proc.process import Process
from repro.sim.clock import Simulator
from repro.vfs.syscalls import Syscalls
from repro.vfs.uring import IoUring
from repro.yancfs.client import YancClient

LAYERS = ("sim", "proc", "dataplane", "netpkt", "openflow", "controlchannel", "drivers", "vfs", "yancfs", "apps")

#: (layer, class, method names, key prefix).  Keys name what a span timed.
_METHODS = (
    ("sim", Simulator, ("step",), "sim"),
    ("proc", Process, ("on_readable",), "proc"),
    ("proc", Syscalls, ("epoll_wait",), "proc"),
    ("dataplane", SwitchSim, ("ingress", "packet_out", "install_flow"), "dataplane"),
    ("dataplane", FlowTable, ("lookup",), "dataplane"),
    ("dataplane", Link, ("transmit",), "dataplane"),
    ("dataplane", HostSim, ("handle_frame",), "dataplane.host"),
    ("openflow", SwitchAgent, ("_on_data", "packet_in", "flow_removed", "port_status"), "openflow.agent"),
    ("controlchannel", ControlConnection, ("send", "_deliver"), "controlchannel"),
    ("drivers", OpenFlowDriver, ("on_event",), "drivers"),
    ("vfs", IoUring, ("submit",), "vfs.uring"),
    ("yancfs", YancClient, ("create_flow", "read_flow", "write_packet_in_batched", "read_events", "packet_out"), "yancfs"),
    ("apps", RouterDaemon, ("handle_packet_in",), "apps.router"),
    ("apps", TopologyDaemon, ("handle_packet_in",), "apps.topology"),
    ("apps", ArpResponder, ("handle_packet_in",), "apps.arp"),
    ("apps", PacketInApp, ("handle_packet_in",), "apps.subscriber"),
)

#: Outcome counters: (class, method) -> result -> counter name ("" = none).
_OUTCOMES = {
    (FlowTable, "lookup"): lambda entry: "dataplane.lookup_miss" if entry is None else "",
    (YancClient, "read_events"): lambda events: "yancfs.read_events_empty" if not events else "",
}

#: (layer, module, function names, key prefix), patched at every import site.
_FUNCTIONS = (
    ("netpkt", packet, ("parse_frame", "build_frame"), "netpkt"),
    ("openflow", of10, ("encode", "decode"), "openflow.of10"),
    ("openflow", of13, ("encode", "decode"), "openflow.of13"),
)


@dataclass
class Trace:
    """What one traced stretch recorded, reduced to per-layer figures."""

    wall_s: float  # raw seconds inside the traced slices
    layer_self_s: dict[str, float]
    calls: dict[str, int]  # key -> spans (plus outcome counters)
    inclusive_s: dict[str, float]  # key -> summed span durations
    spans: int

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - sum(self.layer_self_s.values())

    def mean_us(self, *keys: str, scale: float = 1.0) -> float | None:
        """Mean inclusive microseconds per span over ``keys`` (None: no spans)."""
        n = sum(self.calls.get(k, 0) for k in keys)
        if not n:
            return None
        return sum(self.inclusive_s.get(k, 0.0) for k in keys) * scale * 1e6 / n


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.active = False
        self._keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self._key_layer = array("b")
        self._key = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._current = -1
        self.outcomes: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------------

    def _key_id(self, layer: str, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = len(self._keys)
            self._keys.append(key)
            self._key_ids[key] = kid
            self._key_layer.append(LAYERS.index(layer))
        return kid

    def _wrap(self, fn, layer: str, key: str, *, keyed_by=None, outcome=None):
        tracer = self
        fixed = self._key_id(layer, key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            kid = fixed if keyed_by is None else tracer._key_id(layer, f"{key}.{keyed_by(args)}")
            index = len(tracer._key)
            parent = tracer._current
            tracer._key.append(kid)
            tracer._parent.append(parent)
            tracer._end.append(0.0)
            tracer._current = index
            tracer._start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[index] = time.perf_counter()
                tracer._current = parent
            if outcome is not None:
                name = outcome(result)
                if name:
                    tracer.outcomes[name] = tracer.outcomes.get(name, 0) + 1
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        for layer, cls, names, prefix in _METHODS:
            for name in names:
                wrapped = self._wrap(
                    cls.__dict__[name], layer, f"{prefix}.{name.lstrip('_')}", outcome=_OUTCOMES.get((cls, name))
                )
                self._patch(cls, name, wrapped)
        public = [n for n, v in vars(Syscalls).items() if callable(v) and not n.startswith("_") and n != "epoll_wait"]
        for name in public:
            self._patch(Syscalls, name, self._wrap(Syscalls.__dict__[name], "vfs", f"vfs.{name}"))
        driver_msg = self._wrap(
            OpenFlowDriver.__dict__["handle_message"], "drivers", "drivers.handle_message", keyed_by=lambda a: type(a[2]).__name__
        )
        self._patch(OpenFlowDriver, "handle_message", driver_msg)
        for layer, module, names, prefix in _FUNCTIONS:
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(original, layer, f"{prefix}.{name}")
                for site in list(sys.modules.values()):
                    if getattr(site, "__name__", "").startswith("repro") and getattr(site, name, None) is original:
                        self._patch(site, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.active = False

    # -- reduction ----------------------------------------------------------------------

    def reduce(self, wall_s: float) -> Trace:
        """Self time per layer and per-key totals over every recorded span."""
        n = len(self._key)
        child = [0.0] * n
        start, end, parent = self._start, self._end, self._parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        for i in range(n):
            kid = self._key[i]
            key = self._keys[kid]
            duration = end[i] - start[i]
            layer_self[LAYERS[self._key_layer[kid]]] += duration - child[i]
            calls[key] = calls.get(key, 0) + 1
            inclusive[key] = inclusive.get(key, 0.0) + duration
        calls.update(self.outcomes)
        return Trace(wall_s=wall_s, layer_self_s=layer_self, calls=calls, inclusive_s=inclusive, spans=n)

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "layers": LAYERS,
            "keys": self._keys,
            "key_layer": list(self._key_layer),
            "spans": len(self._key),
            "arrays": ["key:H", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self._key, self._parent, self._start, self._end):
                arr.tofile(out)


# -- the traced run and its per-layer metrics -----------------------------------------

#: The per-layer metrics BENCHMARK.json lists, in its order.
PER_LAYER = (
    "sim.events", "sim.events_per_s", "sim.self_share",
    "proc.dispatches", "proc.notify_per_dispatch", "proc.self_share",
    "dataplane.frames", "dataplane.miss_ratio", "dataplane.us_per_frame", "dataplane.self_share",
    "netpkt.parses", "netpkt.us_per_parse", "netpkt.self_share",
    "openflow.msgs", "openflow.bytes", "openflow.us_per_msg", "openflow.self_share",
    "controlchannel.msgs", "controlchannel.self_share",
    "drivers.packet_ins", "drivers.packet_ins_per_s", "drivers.packet_in_us", "drivers.flow_mods",
    "drivers.flow_mods_per_setup", "drivers.stats_us", "drivers.event_drop_ratio", "drivers.self_share",
    "vfs.syscalls", "vfs.syscalls_per_packet_in", "vfs.ctxsw", "vfs.sqes_per_submit", "vfs.notify_events",
    "vfs.dcache_hit_ratio", "vfs.bytes_copied", "vfs.open_us", "vfs.self_share",
    "yancfs.create_flow_us", "yancfs.read_flow_us", "yancfs.publish_us", "yancfs.read_events_us",
    "yancfs.empty_read_ratio", "yancfs.self_share",
    "apps.router_us", "apps.paths_per_flow", "apps.floods", "apps.self_share",
    "trace.overhead_ratio", "trace.unattributed_share",
    "host.ref_ms", "host.raw_flow_setups_per_s", "host.raw_delivered_pps",
)  # fmt: skip


def traced_run(workload: str, seed: int, size, out_dir: Path):
    """One traced repetition: (RunResult, Trace); spans are written to ``out_dir``."""
    with Tracer() as tracer:
        result = loop.run(workload, seed, size, reps=1, tracer=tracer)
    trace = tracer.reduce(sum(sum(t.walls) for p in result.phases for t in p.timers))
    tracer.write(out_dir / f"{workload}-seed{seed}.spans")
    return result, trace


def behaviour_changes(untraced, traced) -> list[str]:
    """Differences in counts or outcomes between an untraced and a traced run."""
    problems = []
    for name in sorted(set(untraced.counts) | set(traced.counts)):
        if untraced.counts.get(name) != traced.counts.get(name):
            problems.append(f"tracing changed {name}: {untraced.counts.get(name)} -> {traced.counts.get(name)}")
    if [p.outcome() for p in untraced.phases] != [p.outcome() for p in traced.phases]:
        problems.append("tracing changed what the workload delivered")
    return problems


def layer_metrics(untraced, traced, trace: Trace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts and rates from the untraced run, times from the traced one.

    Traced durations are scaled by the traced run's own normalisation
    (its normalised seconds over its raw seconds), the same per-segment
    kernel scaling the end-to-end metrics use.  A metric with no samples
    on this workload is left out.
    """
    counts = untraced.counts
    scale = sum(sum(t.segments()) for p in traced.phases for t in p.timers) / trace.wall_s
    measured_s = loop.phase_seconds(untraced.phases)
    flows = untraced.flows_set_up
    packet_ins = counts["drivers.packet_ins"]
    calls = trace.calls

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    def share(layer: str) -> float:
        return trace.layer_self_s[layer] / trace.wall_s

    def self_us(layer: str, per: int) -> float | None:
        return ratio(trace.layer_self_s[layer] * scale * 1e6, per)

    def mean_us(*keys: str) -> float | None:
        return trace.mean_us(*keys, scale=scale)

    frames = calls.get("dataplane.ingress", 0)
    raw = {
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_s": (counts["sim.events"] / measured_s, "1/s"),
        "proc.dispatches": (counts.get("proc.dispatches", 0), "count"),
        "proc.notify_per_dispatch": (ratio(counts.get("notify.events", 0), counts.get("proc.dispatches", 0)), "1"),
        "dataplane.frames": (frames, "count"),
        "dataplane.miss_ratio": (ratio(calls.get("dataplane.lookup_miss", 0), calls.get("dataplane.lookup", 0)), "1"),
        "dataplane.us_per_frame": (self_us("dataplane", frames), "us"),
        "netpkt.parses": (calls.get("netpkt.parse_frame", 0), "count"),
        "netpkt.us_per_parse": (mean_us("netpkt.parse_frame"), "us"),
        "openflow.msgs": (counts.get("openflow.tx", 0), "count"),
        "openflow.bytes": (counts.get("openflow.tx_bytes", 0), "B"),
        "openflow.us_per_msg": (self_us("openflow", counts.get("openflow.tx", 0)), "us"),
        "controlchannel.msgs": (calls.get("controlchannel.send", 0), "count"),
        "drivers.packet_ins": (packet_ins, "count"),
        "drivers.packet_ins_per_s": (packet_ins / measured_s, "1/s"),
        "drivers.packet_in_us": (mean_us("drivers.handle_message.PacketIn"), "us"),
        "drivers.flow_mods": (counts["drivers.flow_mods"], "count"),
        "drivers.flow_mods_per_setup": (ratio(counts["drivers.flow_mods"], flows), "1"),
        "drivers.stats_us": (
            mean_us("drivers.handle_message.FlowStatsReply", "drivers.handle_message.PortStatsReply"),
            "us",
        ),
        "drivers.event_drop_ratio": (
            ratio(counts["drivers.dropped_events"], packet_ins * counts["drivers.subscribers"]),
            "1",
        ),
        "vfs.syscalls": (counts.get("syscall.total", 0), "count"),
        "vfs.syscalls_per_packet_in": (ratio(counts.get("syscall.total", 0), packet_ins), "1"),
        "vfs.ctxsw": (counts.get("ctxsw", 0), "count"),
        "vfs.sqes_per_submit": (ratio(counts.get("uring.sqe", 0), calls.get("vfs.uring.submit", 0)), "1"),
        "vfs.notify_events": (counts.get("notify.events", 0), "count"),
        "vfs.dcache_hit_ratio": (
            ratio(counts["dcache.path_hits"], counts["dcache.path_hits"] + counts["dcache.path_misses"]),
            "1",
        ),
        "vfs.bytes_copied": (counts.get("bytes.copied", 0), "B"),
        "vfs.open_us": (mean_us("vfs.open"), "us"),
        "yancfs.create_flow_us": (mean_us("yancfs.create_flow"), "us"),
        "yancfs.read_flow_us": (mean_us("yancfs.read_flow"), "us"),
        "yancfs.publish_us": (mean_us("yancfs.write_packet_in_batched"), "us"),
        "yancfs.read_events_us": (mean_us("yancfs.read_events"), "us"),
        "yancfs.empty_read_ratio": (
            ratio(calls.get("yancfs.read_events_empty", 0), calls.get("yancfs.read_events", 0)),
            "1",
        ),
        "apps.router_us": (mean_us("apps.router.handle_packet_in"), "us"),
        "apps.paths_per_flow": (ratio(counts["apps.paths"], flows), "1"),
        "apps.floods": (counts["apps.floods"], "count"),
        "trace.overhead_ratio": (scale * trace.wall_s / measured_s, "1"),
        "trace.unattributed_share": (trace.unattributed_s / trace.wall_s, "1"),
    }
    for layer in LAYERS:
        raw[f"{layer}.self_share"] = (share(layer), "1")
    raw.update(loop.host_metrics(untraced))
    return {name: raw[name] for name in PER_LAYER if raw[name][0] is not None}
