"""The switch-side agent: negotiation and message handling."""

import threading

import pytest

from repro.controlchannel import connect
from repro.dataplane import FlowEntry, Match, Network, Output
from repro.openflow import SwitchAgent, codec_for, messages as m, negotiate, peek_version
from repro.openflow.of10 import VERSION as OF10
from repro.openflow.of13 import VERSION as OF13
from repro.openflow.of10 import CodecError
from repro.sim import Simulator


class DriverStub:
    """Minimal driver end: collects decoded messages."""

    def __init__(self, sim, version=OF10):
        self.version = version
        self.received = []
        self._rx = b""

    def bind(self, conn):
        self.conn = conn
        conn.on_data = self._on_data

    def _on_data(self, data):
        self._rx += data
        while len(self._rx) >= 8:
            length = int.from_bytes(self._rx[2:4], "big")
            if len(self._rx) < length:
                return
            msg, self._rx = codec_for(peek_version(self._rx)).decode(self._rx)
            self.received.append(msg)

    def send(self, msg):
        self.conn.send(codec_for(self.version).encode(msg))

    def of(self, msg_type):
        return [r for r in self.received if isinstance(r, msg_type)]


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim)
    switch = net.add_switch("s")
    switch.add_port(1)
    switch.add_port(2)
    driver_end, agent_end = connect(sim)
    agent = SwitchAgent(switch, agent_end)
    stub = DriverStub(sim)
    stub.bind(driver_end)
    agent.start()
    stub.send(m.Hello(version=stub.version))
    sim.run_for(0.01)
    return sim, net, switch, agent, stub


def test_negotiate_function():
    assert negotiate(OF13, OF10) == OF10
    assert negotiate(OF10, OF13) == OF10
    assert negotiate(OF13, OF13) == OF13
    with pytest.raises(CodecError):
        negotiate(OF13, 0x02)  # OF 1.1: no codec


def test_hello_negotiates_version(rig):
    _sim, _net, _switch, agent, _stub = rig
    assert agent.version == OF10


def test_features_request_reply(rig):
    sim, _net, switch, _agent, stub = rig
    stub.send(m.FeaturesRequest())
    sim.run_for(0.01)
    replies = stub.of(m.FeaturesReply)
    assert len(replies) == 1
    assert replies[0].dpid == switch.dpid
    assert [p.port_no for p in replies[0].ports] == [1, 2]


def test_echo_mirrors_payload(rig):
    sim, _net, _switch, _agent, stub = rig
    stub.send(m.EchoRequest(payload=b"liveness", xid=55))
    sim.run_for(0.01)
    reply = stub.of(m.EchoReply)[0]
    assert reply.payload == b"liveness"
    assert reply.xid == 55


def test_barrier_reply_echoes_xid(rig):
    sim, _net, _switch, _agent, stub = rig
    stub.send(m.BarrierRequest(xid=9))
    sim.run_for(0.01)
    assert stub.of(m.BarrierReply)[0].xid == 9


def test_flow_mod_add_installs(rig):
    sim, _net, switch, _agent, stub = rig
    stub.send(m.FlowMod(match=Match(dl_type=0x800), actions=[Output(2)], priority=11, idle_timeout=6))
    sim.run_for(0.01)
    entries = switch.table.entries()
    assert len(entries) == 1
    assert entries[0].priority == 11
    assert entries[0].idle_timeout == 6.0


def test_flow_mod_delete_strict(rig):
    sim, _net, switch, _agent, stub = rig
    stub.send(m.FlowMod(match=Match(tp_dst=22), actions=[Output(1)], priority=5))
    sim.run_for(0.01)
    stub.send(m.FlowMod(match=Match(tp_dst=22), command=m.FlowModCommand.DELETE_STRICT, priority=6))
    sim.run_for(0.01)
    assert len(switch.table) == 1  # wrong priority: nothing deleted
    stub.send(m.FlowMod(match=Match(tp_dst=22), command=m.FlowModCommand.DELETE_STRICT, priority=5))
    sim.run_for(0.01)
    assert len(switch.table) == 0


def test_flow_mod_modify(rig):
    sim, _net, switch, _agent, stub = rig
    stub.send(m.FlowMod(match=Match(tp_dst=22), actions=[Output(1)], priority=5))
    sim.run_for(0.01)
    stub.send(m.FlowMod(match=Match(), command=m.FlowModCommand.MODIFY, actions=[Output(7)]))
    sim.run_for(0.01)
    assert switch.table.entries()[0].actions == [Output(7)]


def test_packet_in_forwarded_to_driver(rig):
    sim, net, switch, _agent, stub = rig
    host = net.add_host()
    net.attach_host(host, switch)  # port 3
    host.send_udp("10.0.0.99", 1, 2, b"hi")
    sim.run_for(0.01)
    packet_ins = stub.of(m.PacketIn)
    assert len(packet_ins) == 1
    assert packet_ins[0].in_port == 3


def test_port_mod_brings_port_down(rig):
    sim, _net, switch, _agent, stub = rig
    stub.send(m.PortMod(port_no=1, down=True))
    sim.run_for(0.01)
    assert not switch.ports[1].admin_up
    status = stub.of(m.PortStatus)
    assert any(p.port.port_no == 1 and p.port.config_down for p in status)


def test_port_stats_reply(rig):
    sim, _net, switch, _agent, stub = rig
    switch.ports[1].rx_packets = 42
    stub.send(m.PortStatsRequest(port_no=1))
    sim.run_for(0.01)
    entries = stub.of(m.PortStatsReply)[0].entries
    assert len(entries) == 1
    assert entries[0].rx_packets == 42


def test_flow_stats_reply_filters_by_match(rig):
    sim, _net, switch, _agent, stub = rig
    switch.install_flow(FlowEntry(match=Match(tp_dst=22, nw_proto=6, dl_type=0x800), actions=[Output(1)], priority=5))
    switch.install_flow(FlowEntry(match=Match(dl_type=0x806), actions=[Output(2)], priority=5))
    stub.send(m.FlowStatsRequest(match=Match(dl_type=0x800)))
    sim.run_for(0.01)
    entries = stub.of(m.FlowStatsReply)[0].entries
    assert len(entries) == 1
    assert entries[0].match.tp_dst == 22


def test_aggregate_stats(rig):
    sim, _net, switch, _agent, stub = rig
    entry = switch.install_flow(FlowEntry(match=Match(), actions=[Output(1)], priority=1))
    entry.hit(0.0, 100)
    stub.send(m.AggregateStatsRequest())
    sim.run_for(0.01)
    reply = stub.of(m.AggregateStatsReply)[0]
    assert (reply.flow_count, reply.packet_count, reply.byte_count) == (1, 1, 100)


def test_of13_session_uses_of13_bytes():
    sim = Simulator()
    net = Network(sim)
    switch = net.add_switch("s")
    driver_end, agent_end = connect(sim)
    agent = SwitchAgent(switch, agent_end)
    stub = DriverStub(sim, version=OF13)
    stub.bind(driver_end)
    agent.start()
    stub.send(m.Hello(version=OF13))
    stub.send(m.FeaturesRequest())
    stub.send(m.PortDescRequest())
    sim.run_for(0.01)
    assert agent.version == OF13
    assert stub.of(m.FeaturesReply)[0].ports == []  # 1.3: via port-desc
    assert isinstance(stub.of(m.PortDescReply)[0], m.PortDescReply)


def test_agent_detach_stops_forwarding(rig):
    sim, net, switch, agent, stub = rig
    agent.detach()
    host = net.add_host()
    net.attach_host(host, switch)
    host.send_udp("10.0.0.99", 1, 2, b"hi")
    sim.run_for(0.01)
    assert stub.of(m.PacketIn) == []


def test_garbage_bytes_produce_error_reply(rig):
    sim, _net, _switch, agent, stub = rig
    stub.conn.send(b"\x01\xff\x00\x0cXXXXXXXX")  # bad type, len 12
    sim.run_for(0.01)
    assert agent.errors_sent == 1
    assert stub.of(m.ErrorMsg)


def _returns_within(fn, seconds=5.0):
    """Run ``fn`` on a daemon thread; False if it is still spinning."""
    worker = threading.Thread(target=fn, daemon=True)
    worker.start()
    worker.join(seconds)
    return not worker.is_alive()


def test_zero_length_header_rejected_once(rig):
    """A length field below the header size can never be skipped past:
    the agent rejects it once (BAD_REQUEST / BAD_LEN), drops the buffer
    and keeps serving the session instead of spinning."""
    sim, _net, _switch, agent, stub = rig
    stub.conn.send(bytes.fromhex("0100000000000000"))
    assert _returns_within(lambda: sim.run_for(0.01))
    assert agent.errors_sent == 1
    assert [(e.err_type, e.err_code) for e in stub.of(m.ErrorMsg)] == [(1, 6)]
    stub.send(m.EchoRequest(payload=b"ok", xid=7))
    sim.run_for(0.01)
    assert [e.payload for e in stub.of(m.EchoReply)] == [b"ok"]
