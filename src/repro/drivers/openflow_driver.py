"""OpenFlow device drivers: the bridge between yancfs and switches.

A driver (paper section 4.1) is "a thin component which speaks the
programming protocol supported by a collection of switches".  Each
:class:`OpenFlowDriver` instance speaks exactly one protocol version over
per-switch control channels, and interacts with the rest of the system
*only through the file system*:

* committed flow directories (version increments) become flow-mods;
* flow directory removal becomes a strict delete;
* ``config.port_down`` writes become port-mods;
* packet-ins become event directories in every subscribed app buffer;
* flow-removed/port-status messages and periodic stats polls update the
  corresponding files.

Because all driver state that matters lives in the tree, a switch can be
detached from an OpenFlow 1.0 driver and attached to a 1.3 driver live:
the new driver re-reads the committed flows and re-asserts them (paper:
"nodes in such a system can therefore be gradually upgraded, live, to
newer protocols").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controlchannel import ControlConnection, connect
from repro.dataplane.match import Match
from repro.dataplane.switch import SwitchSim
from repro.openflow import messages as m
from repro.openflow.agent import SwitchAgent
from repro.openflow.codec import codec_for, negotiate, peek_version
from repro.openflow.of10 import VERSION as OF10_VERSION
from repro.openflow.of10 import CodecError
from repro.openflow.of13 import VERSION as OF13_VERSION
from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import YancClient

_FLOW_WATCH_MASK = EventMask.IN_MODIFY | EventMask.IN_CLOSE_WRITE
_DIR_WATCH_MASK = (
    EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO
)

#: Maximum packet-in directories allowed to pile up in one app buffer
#: before the driver starts dropping (the "private buffer" backpressure).
MAX_PENDING_EVENTS = 256


@dataclass
class _FlowState:
    """What the driver believes is installed for one flow directory."""

    name: str
    version: int = 0
    match: Match | None = None
    priority: int = 0x8000


@dataclass
class SwitchBinding:
    """One driver <-> switch session."""

    driver: "OpenFlowDriver"
    switch: SwitchSim
    conn: ControlConnection
    agent: SwitchAgent
    fs_name: str = ""
    dpid: int = 0
    version: int | None = None
    ready: bool = False
    flows: dict[str, _FlowState] = field(default_factory=dict)
    event_apps: list[str] = field(default_factory=list)
    _suppressed: set[str] = field(default_factory=set)
    _rx: bytes = b""
    _xid: int = 0
    _event_seq: int = 0
    dropped_events: int = 0
    framing_errors: int = 0

    # -- wire ------------------------------------------------------------------

    def send(self, msg: m.Message) -> None:
        """Encode and transmit under the session's (or driver's) version."""
        if msg.xid == 0:
            self._xid += 1
            msg.xid = self._xid
        version = self.version if self.version is not None else self.driver.version
        self.conn.send(codec_for(version).encode(msg))

    def on_data(self, data: bytes) -> None:
        """Reassemble and dispatch incoming wire messages."""
        self._rx += data
        while len(self._rx) >= 8:
            length = int.from_bytes(self._rx[2:4], "big")
            if length < 8:
                # A length below the header's own size can never be skipped
                # past: the stream has lost its framing.  Count the
                # rejection once and drop the buffer.
                self.framing_errors += 1
                self._rx = b""
                return
            if len(self._rx) < length:
                return
            try:
                msg, self._rx = codec_for(peek_version(self._rx)).decode(self._rx)
            except CodecError:
                self._rx = self._rx[length:]
                continue
            self.driver.handle_message(self, msg)

    def close(self) -> None:
        """Tear the session down (file-system state is left intact)."""
        self.agent.detach()
        self.conn.close()


class OpenFlowDriver(Process):
    """One driver process for one protocol version.

    The run loop (epoll over the driver's watches), watch bookkeeping,
    periodic tasks, and crash containment are inherited from
    :class:`~repro.proc.process.Process`; a driver is live — running, as
    a process — from construction.
    """

    def __init__(
        self,
        sc: "Syscalls | Process",
        sim: Simulator,
        *,
        version: int = OF10_VERSION,
        name: str = "",
        root: str = "/net",
        channel_latency: float = 5e-4,
        stats_interval: float = 1.0,
    ) -> None:
        if version not in (OF10_VERSION, OF13_VERSION):
            raise ValueError(f"unsupported driver version {version:#x}")
        driver_name = name or f"of{'10' if version == OF10_VERSION else '13'}-driver"
        super().__init__(sc, sim, name=driver_name)
        self.version = version
        self.name = driver_name
        self.yc = YancClient(self.sc, root)
        self.channel_latency = channel_latency
        self.stats_interval = stats_interval
        self.bindings: dict[int, SwitchBinding] = {}
        self._uring = None  # lazy: created on the first batched fan-out
        self._stats_task = None
        self._root_watch_added = False
        self.flow_mods_sent = 0
        self.packet_ins_handled = 0
        self.start()

    # -- lifecycle ---------------------------------------------------------------

    def attach_switch(self, switch: SwitchSim) -> SwitchBinding:
        """Open a session to ``switch`` and (on features) populate the tree."""
        driver_end, agent_end = connect(
            self.sim,
            latency=self.channel_latency,
            counters=self.sc.vfs.counters,
            names=(f"{self.name}->{switch.name}", f"{switch.name}->{self.name}"),
        )
        agent = SwitchAgent(switch, agent_end)
        binding = SwitchBinding(driver=self, switch=switch, conn=driver_end, agent=agent)
        driver_end.on_data = binding.on_data
        agent.start()
        binding.send(m.Hello(version=self.version))
        binding.send(m.FeaturesRequest())
        self.bindings[switch.dpid] = binding
        if self._stats_task is None and self.stats_interval > 0:
            self._stats_task = self.every(self.stats_interval, self._poll_stats)
        return binding

    def detach_switch(self, dpid: int) -> None:
        """Close the session; the switch's subtree stays for the next driver."""
        binding = self.bindings.pop(dpid, None)
        if binding is None:
            return
        binding.close()
        for wd, ctx in list(self._watch_ctx.items()):
            if len(ctx) > 1 and ctx[1] == dpid:
                del self._watch_ctx[wd]
                self.ino.rm_watch(wd)

    def stop(self) -> None:
        """Detach every switch, stop periodic work, and exit."""
        for dpid in list(self.bindings):
            self.detach_switch(dpid)
        self._stats_task = None
        self._root_watch_added = False
        super().stop()

    # -- event dispatch -----------------------------------------------------------

    def on_event(self, ctx: tuple, event) -> None:
        kind = ctx[0]
        if kind == "switches_root":
            self._on_root_event(event)
        elif kind == "flows":
            self._on_flows_dir_event(ctx[1], event)
        elif kind == "flow":
            self._on_flow_event(ctx[1], ctx[2], event)
        elif kind == "port":
            self._on_port_event(ctx[1], ctx[2], event)
        elif kind == "events":
            self._on_events_dir_event(ctx[1], event)
        elif kind == "pktout":
            self._on_packet_out_event(ctx[1], event)

    # -- FS -> wire --------------------------------------------------------------------

    def _on_root_event(self, event) -> None:
        if event.mask & EventMask.IN_MOVED_TO and event.name:
            # A switch directory was renamed; adopt the new name.
            for binding in self.bindings.values():
                if binding.ready and not self.sc.exists(self.yc.switch_path(binding.fs_name)):
                    try:
                        if self.yc.switch_dpid(event.name) == binding.dpid:
                            binding.fs_name = event.name
                    except FsError:
                        continue

    def _on_flows_dir_event(self, dpid: int, event) -> None:
        binding = self.bindings.get(dpid)
        if binding is None or event.name is None:
            return
        if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            path = self.yc.flow_path(binding.fs_name, event.name)
            self.watch(path, _FLOW_WATCH_MASK, ("flow", dpid, event.name))
            binding.flows.setdefault(event.name, _FlowState(name=event.name))
            # A moved-in flow may already be committed.
            self._sync_flow(binding, event.name)
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            if event.name in binding._suppressed:
                binding._suppressed.discard(event.name)
                binding.flows.pop(event.name, None)
                return
            state = binding.flows.pop(event.name, None)
            if state is not None and state.match is not None:
                binding.send(
                    m.FlowMod(match=state.match, command=m.FlowModCommand.DELETE_STRICT, priority=state.priority)
                )
                self.flow_mods_sent += 1

    def _on_flow_event(self, dpid: int, flow_name: str, event) -> None:
        # IN_CLOSE_WRITE covers the echo-style file path; IN_MODIFY also
        # catches direct store writes (the libyanc fastpath), which never
        # open file handles.
        if event.name != "version":
            return
        binding = self.bindings.get(dpid)
        if binding is not None:
            self._sync_flow(binding, flow_name)

    def _sync_flow(self, binding: SwitchBinding, flow_name: str) -> None:
        try:
            spec = self.yc.read_flow(binding.fs_name, flow_name)
        except FsError:
            return
        state = binding.flows.setdefault(flow_name, _FlowState(name=flow_name))
        if spec.version <= state.version:
            return
        if state.match is not None and (state.match != spec.match or state.priority != spec.priority):
            binding.send(
                m.FlowMod(match=state.match, command=m.FlowModCommand.DELETE_STRICT, priority=state.priority)
            )
            self.flow_mods_sent += 1
        binding.send(
            m.FlowMod(
                match=spec.match,
                command=m.FlowModCommand.ADD,
                actions=list(spec.actions),
                priority=spec.priority,
                idle_timeout=int(spec.idle_timeout),
                hard_timeout=int(spec.hard_timeout),
                cookie=spec.cookie,
                send_flow_rem=True,
            )
        )
        self.flow_mods_sent += 1
        state.version = spec.version
        state.match = spec.match
        state.priority = spec.priority

    def _on_port_event(self, dpid: int, port_name: str, event) -> None:
        if event.name != "config.port_down" or not event.mask & EventMask.IN_CLOSE_WRITE:
            return
        binding = self.bindings.get(dpid)
        if binding is None:
            return
        try:
            down = self.yc.port_is_down(binding.fs_name, port_name)
            port_no = int(port_name.rsplit("_", 1)[-1])
        except (FsError, ValueError):
            return
        binding.send(m.PortMod(port_no=port_no, down=down))

    def _on_events_dir_event(self, dpid: int, event) -> None:
        binding = self.bindings.get(dpid)
        if binding is None or event.name is None:
            return
        if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            if event.name not in binding.event_apps:
                binding.event_apps.append(event.name)
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            if event.name in binding.event_apps:
                binding.event_apps.remove(event.name)

    def _on_packet_out_event(self, dpid: int, event) -> None:
        """Consume one packet_out spool entry (see PacketOutDir docs).

        The spool filename encodes where the frame goes: tokens separated
        by dots — a port number / ``flood`` / ``all``, optionally ``inN``
        (the logical in-port) and ``bN`` (release buffered packet N).
        """
        if event.name is None or not event.mask & EventMask.IN_CLOSE_WRITE:
            return
        binding = self.bindings.get(dpid)
        if binding is None:
            return
        from repro.dataplane.actions import ALL as PORT_ALL
        from repro.dataplane.actions import FLOOD as PORT_FLOOD
        from repro.dataplane.actions import Output

        path = f"{self.yc.switch_path(binding.fs_name)}/packet_out/{event.name}"
        try:
            data = self.sc.read_bytes(path)
            self.sc.unlink(path)
        except FsError:
            return
        buffer_id = m.NO_BUFFER
        in_port = 0
        ports: list[int] = []
        for token in event.name.split("."):
            if token == "flood":
                ports.append(PORT_FLOOD)
            elif token == "all":
                ports.append(PORT_ALL)
            elif token.startswith("in") and token[2:].isdigit():
                in_port = int(token[2:])
            elif token.startswith("b") and token[1:].isdigit():
                buffer_id = int(token[1:])
            elif token.startswith("p") and token[1:].isdigit():
                ports.append(int(token[1:]))
        if not ports:
            return  # unroutable spool entry: discarded
        binding.send(
            m.PacketOut(
                buffer_id=buffer_id,
                in_port=in_port,
                actions=[Output(port) for port in ports],
                data=data,
            )
        )

    # -- wire -> FS ---------------------------------------------------------------------

    def handle_message(self, binding: SwitchBinding, msg: m.Message) -> None:
        """Dispatch one message arriving from a switch agent."""
        if isinstance(msg, m.Hello):
            binding.version = negotiate(self.version, msg.version)
        elif isinstance(msg, m.FeaturesReply):
            self._on_features(binding, msg)
        elif isinstance(msg, m.PortDescReply):
            for port in msg.ports:
                self._ensure_port(binding, port)
        elif isinstance(msg, m.PacketIn):
            self._on_packet_in(binding, msg)
        elif isinstance(msg, m.FlowRemoved):
            self._on_flow_removed(binding, msg)
        elif isinstance(msg, m.PortStatus):
            self._on_port_status(binding, msg)
        elif isinstance(msg, m.PortStatsReply):
            self._on_port_stats(binding, msg)
        elif isinstance(msg, m.FlowStatsReply):
            self._on_flow_stats(binding, msg)
        elif isinstance(msg, m.EchoRequest):
            binding.send(m.EchoReply(payload=msg.payload, xid=msg.xid))

    def _on_features(self, binding: SwitchBinding, msg: m.FeaturesReply) -> None:
        binding.dpid = msg.dpid
        binding.fs_name = self._find_existing_switch(msg.dpid) or f"sw{msg.dpid}"
        path = self.yc.switch_path(binding.fs_name)
        adopted = self.sc.exists(path)
        if not adopted:
            self.yc.create_switch(binding.fs_name, dpid=msg.dpid)
        self.sc.write_text(f"{path}/num_buffers", str(msg.n_buffers))
        self.sc.write_text(f"{path}/capabilities", f"{msg.capabilities:#x}")
        self.sc.write_text(f"{path}/actions", "output,set_dl,set_nw,set_tp,vlan")
        if not self._root_watch_added:
            self.watch(f"{self.yc.root}/switches", _DIR_WATCH_MASK, ("switches_root",))
            self._root_watch_added = True
        self.watch(f"{path}/flows", _DIR_WATCH_MASK, ("flows", msg.dpid))
        self.watch(f"{path}/events", _DIR_WATCH_MASK, ("events", msg.dpid))
        self.watch(f"{path}/packet_out", _DIR_WATCH_MASK | EventMask.IN_CLOSE_WRITE, ("pktout", msg.dpid))
        for port in msg.ports:
            self._ensure_port(binding, port)
        if binding.version == OF13_VERSION:
            binding.send(m.PortDescRequest())
        binding.ready = True
        if adopted:
            self._adopt_existing_state(binding)

    def _find_existing_switch(self, dpid: int) -> str | None:
        try:
            names = self.yc.switches()
        except FsError:
            return None
        for name in names:
            try:
                if self.yc.switch_dpid(name) == dpid:
                    return name
            except (FsError, ValueError):
                continue
        return None

    def _adopt_existing_state(self, binding: SwitchBinding) -> None:
        """Live upgrade: re-assert committed flows, re-learn app buffers."""
        for flow_name in self.yc.flows(binding.fs_name):
            self.watch(
                self.yc.flow_path(binding.fs_name, flow_name),
                _FLOW_WATCH_MASK,
                ("flow", binding.dpid, flow_name),
            )
            binding.flows.setdefault(flow_name, _FlowState(name=flow_name))
            self._sync_flow(binding, flow_name)
        try:
            apps = self.sc.listdir(f"{self.yc.switch_path(binding.fs_name)}/events")
        except FsError:
            apps = []
        binding.event_apps = list(apps)
        for port_name in self.yc.ports(binding.fs_name):
            self.watch(
                self.yc.port_path(binding.fs_name, port_name),
                _FLOW_WATCH_MASK,
                ("port", binding.dpid, port_name),
            )

    def _ensure_port(self, binding: SwitchBinding, port: m.PortDesc) -> None:
        name = f"port_{port.port_no}"
        path = self.yc.port_path(binding.fs_name, name)
        if not self.sc.exists(path):
            self.yc.create_port(binding.fs_name, port.port_no)
            self.watch(path, _FLOW_WATCH_MASK, ("port", binding.dpid, name))
        from repro.netpkt.addr import MacAddress

        self.sc.write_text(f"{path}/hw_addr", str(MacAddress(port.hw_addr)))
        self.sc.write_text(f"{path}/name", port.name)
        self.sc.write_text(f"{path}/config.port_status", "down" if port.link_down else "up")

    def _ring(self):
        """The driver's submission ring (one per driver, like its epoll fd)."""
        if self._uring is None:
            self._uring = self.sc.io_uring_setup(entries=1024)
        return self._uring

    def _on_packet_in(self, binding: SwitchBinding, msg: m.PacketIn) -> None:
        """Concurrently feed the packet-in to every subscribed app (§3.5).

        Two batched crossings regardless of fan-out: one ``io_uring_enter``
        lists every app buffer (the backpressure probe that used to be a
        listdir *per app*), one publishes to every buffer with room (the
        maildir assemble-and-rename that used to be 17 syscalls per app).
        """
        self.packet_ins_handled += 1
        binding._event_seq += 1
        reason = "no_match" if msg.reason is m.PacketInReasonWire.NO_MATCH else "action"
        apps = list(binding.event_apps)
        if not apps:
            return
        ring = self._ring()
        for app in apps:
            if ring.sq_pending >= ring.entries:
                ring.submit()
            ring.prep("listdir", self.yc.events_path(binding.fs_name, app), user_data=app)
        ring.submit()
        targets = []
        for cqe in ring.completions():
            if not cqe.ok:
                continue  # buffer vanished: the app unsubscribed mid-flight
            if len(cqe.result) >= MAX_PENDING_EVENTS:
                binding.dropped_events += 1
                continue
            targets.append(cqe.user_data)
        if not targets:
            return
        self.yc.write_packet_in_batched(
            binding.fs_name,
            targets,
            binding._event_seq,
            in_port=msg.in_port,
            reason=reason,
            buffer_id=msg.buffer_id,
            total_len=msg.total_len,
            data=msg.data,
            uring=ring,
        )

    def _on_flow_removed(self, binding: SwitchBinding, msg: m.FlowRemoved) -> None:
        if msg.reason is m.FlowRemovedReasonWire.DELETE:
            return  # we initiated it; the FS is already authoritative
        for name, state in list(binding.flows.items()):
            if state.match == msg.match and state.priority == msg.priority:
                binding._suppressed.add(name)
                try:
                    self.yc.delete_flow(binding.fs_name, name)
                except FsError:
                    binding._suppressed.discard(name)
                binding.flows.pop(name, None)
                return

    def _on_port_status(self, binding: SwitchBinding, msg: m.PortStatus) -> None:
        if not binding.ready:
            return
        name = f"port_{msg.port.port_no}"
        path = self.yc.port_path(binding.fs_name, name)
        if msg.reason is m.PortStatusReason.DELETE:
            if self.sc.exists(path):
                self.sc.rmdir(path)
            return
        if not self.sc.exists(path):
            self._ensure_port(binding, msg.port)
        self.sc.write_text(f"{path}/config.port_status", "down" if msg.port.link_down else "up")

    def _poll_stats(self) -> None:
        for binding in self.bindings.values():
            if binding.ready:
                binding.send(m.PortStatsRequest())
                binding.send(m.FlowStatsRequest())

    def _on_port_stats(self, binding: SwitchBinding, msg: m.PortStatsReply) -> None:
        writes = []
        for entry in msg.entries:
            base = f"{self.yc.port_path(binding.fs_name, entry.port_no)}/counters"
            if not self.sc.exists(base):
                continue
            writes.append((f"{base}/rx_packets", str(entry.rx_packets)))
            writes.append((f"{base}/tx_packets", str(entry.tx_packets)))
            writes.append((f"{base}/rx_bytes", str(entry.rx_bytes)))
            writes.append((f"{base}/tx_bytes", str(entry.tx_bytes)))
            writes.append((f"{base}/tx_dropped", str(entry.tx_dropped)))
        self._batch_writes(writes)

    def _on_flow_stats(self, binding: SwitchBinding, msg: m.FlowStatsReply) -> None:
        by_key = {(state.match, state.priority): name for name, state in binding.flows.items()}
        writes = []
        for entry in msg.entries:
            name = by_key.get((entry.match, entry.priority))
            if name is None:
                continue
            base = f"{self.yc.flow_path(binding.fs_name, name)}/counters"
            if not self.sc.exists(base):
                continue
            writes.append((f"{base}/packet_count", str(entry.packet_count)))
            writes.append((f"{base}/byte_count", str(entry.byte_count)))
        self._batch_writes(writes)

    def _batch_writes(self, writes: list[tuple[str, str]]) -> None:
        """Flush a periodic stats sweep in one crossing instead of N."""
        if not writes:
            return
        ring = self._ring()
        for path, text in writes:
            if ring.sq_pending + 3 > ring.entries:
                ring.submit()
            ring.prep_write_file(path, text.encode())
        ring.submit()
        ring.completions()  # reap: stats writes are fire-and-forget
