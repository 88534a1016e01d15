"""The OpenFlow driver: FS <-> switch synchronization."""

import threading

import pytest

from repro.dataplane import FLOOD, Match, Output, build_linear
from repro.drivers import OF10_VERSION, OF13_VERSION
from repro.runtime import YancController


@pytest.fixture
def ctl():
    return YancController(build_linear(2)).start()


def test_switch_dirs_created_on_attach(ctl):
    yc = ctl.client()
    assert yc.switches() == ["sw1", "sw2"]
    assert yc.switch_dpid("sw1") == 1


def test_ports_mirrored_with_attributes(ctl):
    yc = ctl.client()
    assert yc.ports("sw1") == ["port_1", "port_2"]
    sc = ctl.host.root_sc
    assert sc.read_text("/net/switches/sw1/ports/port_1/name").strip() == "sw1-eth1"
    assert sc.read_text("/net/switches/sw1/ports/port_1/config.port_status").strip() == "up"


def test_committed_flow_reaches_switch(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=7)
    ctl.run(0.2)
    entries = ctl.net.switches["sw1"].table.entries()
    assert len(entries) == 1
    assert entries[0].priority == 7


def test_uncommitted_flow_stays_off_hardware(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], commit=False)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 0
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1


def test_same_version_not_resent(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    sent_before = ctl.drivers[0].flow_mods_sent
    # touch an attribute without committing
    ctl.host.root_sc.write_text("/net/switches/sw1/flows/f/priority", "9")
    ctl.run(0.2)
    assert ctl.drivers[0].flow_mods_sent == sent_before
    # ... until the commit lands, at which point the update goes out
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    assert ctl.drivers[0].flow_mods_sent > sent_before
    assert ctl.net.switches["sw1"].table.entries()[0].priority == 9


def test_recommit_after_edit_replaces_entry(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    ctl.run(0.2)
    ctl.host.root_sc.write_text("/net/switches/sw1/flows/f/priority", "9")
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    entries = ctl.net.switches["sw1"].table.entries()
    assert len(entries) == 1
    assert entries[0].priority == 9


def test_flow_dir_delete_removes_hardware_entry(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    yc.delete_flow("sw1", "f")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 0


def test_idle_timeout_removes_fs_dir(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], idle_timeout=1.0)
    ctl.run(0.3)
    assert yc.flows("sw1") == ["f"]
    ctl.run(3.0)  # expiry sweep fires flow-removed; driver prunes the dir
    assert yc.flows("sw1") == []
    assert len(ctl.net.switches["sw1"].table) == 0


def test_port_down_file_drives_port_mod(ctl):
    yc = ctl.client()
    yc.set_port_down("sw1", 1, True)
    ctl.run(0.2)
    assert not ctl.net.switches["sw1"].ports[1].admin_up
    yc.set_port_down("sw1", 1, False)
    ctl.run(0.2)
    assert ctl.net.switches["sw1"].ports[1].admin_up


def test_counters_sync_into_fs(ctl):
    yc = ctl.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    ctl.run(0.2)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.ping(h2.ip)
    ctl.run(2.5)  # traffic + stats poll
    counters = yc.flow_counters("sw1", "flood")
    assert counters["packet_count"] > 0
    port_counters = yc.port_counters("sw1", 1)
    assert port_counters["tx_packets"] > 0


def test_packet_out_spool_consumed(ctl):
    yc = ctl.client()
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, MacAddress
    raw = Ethernet(dst=ctl.net.hosts["h1"].mac, src=MacAddress(0x42), eth_type=ETH_TYPE_IPV4, payload=b"x" * 30).pack()
    yc.packet_out("sw1", [2], raw, tag="test")
    ctl.run(0.2)
    sc = ctl.host.root_sc
    assert sc.listdir("/net/switches/sw1/packet_out") == []
    assert ctl.net.hosts["h1"].rx_frames == 1


def test_unroutable_spool_entry_discarded(ctl):
    sc = ctl.host.root_sc
    sc.write_bytes("/net/switches/sw1/packet_out/nonsense.tag.1", b"data")
    ctl.run(0.2)
    assert sc.listdir("/net/switches/sw1/packet_out") == []


def test_packet_in_fans_out_to_all_buffers(ctl):
    yc = ctl.client()
    yc.subscribe_events("sw1", "alpha")
    yc.subscribe_events("sw1", "beta")
    ctl.run(0.1)
    ctl.net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    ctl.run(0.2)
    assert len(yc.read_events("sw1", "alpha")) == 1
    assert len(yc.read_events("sw1", "beta")) == 1


def test_event_buffer_backpressure(ctl):
    from repro.drivers import MAX_PENDING_EVENTS

    yc = ctl.client()
    yc.subscribe_events("sw1", "slow")
    ctl.run(0.1)
    host = ctl.net.hosts["h1"]
    for index in range(MAX_PENDING_EVENTS + 20):
        host.send_udp("10.0.0.99", 1, index % 65536, bytes([index % 256]))
    ctl.run(2.0)
    binding = ctl.drivers[0].bindings[1]
    pending = len(ctl.host.root_sc.listdir("/net/switches/sw1/events/slow"))
    assert pending <= MAX_PENDING_EVENTS
    assert binding.dropped_events > 0


def test_live_upgrade_of10_to_of13(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "keep", Match(dl_type=0x800), [Output(2)], priority=4)
    ctl.run(0.2)
    of13 = ctl.add_driver(version=OF13_VERSION)
    sw1 = ctl.net.switches["sw1"]
    ctl.drivers[0].detach_switch(sw1.dpid)
    of13.attach_switch(sw1)
    ctl.run(0.2)
    binding = of13.bindings[sw1.dpid]
    assert binding.version == OF13_VERSION
    assert binding.fs_name == "sw1"  # adopted, not recreated
    assert len(sw1.table) == 1  # re-asserted from the tree
    # new commits flow through the new driver
    yc.create_flow("sw1", "after", Match(dl_type=0x806), [Output(2)], priority=4)
    ctl.run(0.2)
    assert len(sw1.table) == 2


def test_switch_rename_followed_by_driver(ctl):
    yc = ctl.client()
    sc = ctl.host.root_sc
    sc.rename("/net/switches/sw1", "/net/switches/leftmost")
    ctl.run(0.2)
    yc.create_flow("leftmost", "f", Match(dl_type=0x800), [Output(2)], priority=3)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1
    assert ctl.drivers[0].bindings[1].fs_name == "leftmost"


def test_detach_leaves_fs_state(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    ctl.drivers[0].detach_switch(1)
    assert yc.flows("sw1") == ["f"]  # tree survives the session


def test_driver_stop_detaches_all(ctl):
    ctl.drivers[0].stop()
    assert ctl.drivers[0].bindings == {}


def test_invalid_version_rejected():
    from repro.drivers import OpenFlowDriver
    from repro.sim import Simulator
    from repro.vfs import Syscalls, VirtualFileSystem

    vfs = VirtualFileSystem()
    with pytest.raises(ValueError):
        OpenFlowDriver(Syscalls(vfs), Simulator(), version=0x02)


def test_zero_length_header_rejected_once(ctl):
    """A length field below the header size can never be skipped past:
    the driver counts one framing error and drops the buffer instead of
    spinning, and the session keeps installing flows."""
    binding = ctl.drivers[0].bindings[1]
    worker = threading.Thread(target=binding.on_data, args=(bytes.fromhex("0100000000000000"),), daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive()
    assert binding.framing_errors == 1
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=7)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table.entries()) == 1
