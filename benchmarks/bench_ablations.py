"""Ablations — the design choices DESIGN.md calls out, measured.

A1. inotify wakeups vs periodic polling for commit detection (§5.2's
    "comes free" vs what the alternative would cost).
A2. version-commit granularity: batch N attribute edits under one commit
    vs committing after every edit (§3.4's atomic-update rationale).
A3. switch packet buffering: miss_send_len punts + buffer release vs
    shipping full frames both ways.
A4. device-poll interval (§7.1): control responsiveness vs RPC load.
"""

from conftest import print_table

from repro.dataplane import Match, Output, build_linear
from repro.perf import SyscallMeter
from repro.runtime import ControllerHost, YancController
from repro.sim import Simulator
from repro.vfs import EventMask
from repro.vfs.cred import ROOT

N_COMMITS = 20


def test_a1_notify_vs_polling(benchmark):
    """Detecting N commits: event-driven reads only what changed; a
    poller pays a full scan per period whether anything changed or not."""
    # -- event-driven watcher
    host = ControllerHost(Simulator())
    host.client(cred=ROOT).create_switch("sw1")  # switch creation is a driver right
    client = host.client()
    watcher_meter = SyscallMeter()
    watcher = host.root_sc.spawn(meter=watcher_meter)
    ino = watcher.inotify_init()
    watcher.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
    for index in range(N_COMMITS):
        client.create_flow("sw1", f"f{index}", Match(dl_vlan=index), [Output(1)], priority=5)
    detected = len([e for e in watcher.inotify_read(ino) if e.mask & EventMask.IN_CREATE])
    notify_cost = watcher_meter.syscalls
    assert detected == N_COMMITS

    # -- polling scanner: 50 scan rounds to observe the same 20 commits
    host2 = ControllerHost(Simulator())
    host2.client(cred=ROOT).create_switch("sw1")
    client2 = host2.client()
    poller_meter = SyscallMeter()
    poller = host2.root_sc.spawn(meter=poller_meter)
    seen: set[str] = set()
    poll_rounds = 50
    per_round = max(1, N_COMMITS // poll_rounds)
    created = 0
    for _round in range(poll_rounds):
        for _ in range(per_round):
            if created < N_COMMITS:
                client2.create_flow("sw1", f"f{created}", Match(dl_vlan=created), [Output(1)], priority=5)
                created += 1
        for name in poller.listdir("/net/switches/sw1/flows"):
            if name not in seen:
                seen.add(name)
                poller.read_text(f"/net/switches/sw1/flows/{name}/version")
    polling_cost = poller_meter.syscalls
    assert len(seen) == N_COMMITS
    print_table(
        f"A1: observer syscalls to detect {N_COMMITS} commits",
        ["strategy", "syscalls", "per commit"],
        [
            ("inotify", notify_cost, f"{notify_cost / N_COMMITS:.1f}"),
            (f"poll x{poll_rounds}", polling_cost, f"{polling_cost / N_COMMITS:.1f}"),
        ],
    )
    assert notify_cost < polling_cost / 3
    benchmark(lambda: watcher.inotify_read(ino))


def test_a2_commit_batching(benchmark):
    """One version bump for a 5-field flow vs a bump after every field:
    the driver sends one flow-mod instead of five (and never installs a
    half-written entry)."""
    rows = []
    for batched in (True, False):
        ctl = YancController(build_linear(1)).start()
        yc = ctl.client()
        sent_before = ctl.drivers[0].flow_mods_sent
        path = yc.flow_path("sw1", "f")
        yc.sc.mkdir(path)  # staged by the app that commits it
        fields = [
            ("match.dl_type", "0x800"),
            ("match.nw_proto", "6"),
            ("match.tp_dst", "22"),
            ("action.out", "2"),
            ("priority", "40"),
        ]
        for name, value in fields:
            yc.sc.write_text(f"{path}/{name}", value)
            if not batched:
                yc.commit_flow("sw1", "f")
                ctl.run(0.05)
        if batched:
            yc.commit_flow("sw1", "f")
            ctl.run(0.05)
        ctl.run(0.2)
        mods = ctl.drivers[0].flow_mods_sent - sent_before
        rows.append(("batched (1 commit)" if batched else "commit per edit", mods, len(ctl.net.switches["sw1"].table)))
    print_table("A2: flow-mods sent for one 5-field flow", ["strategy", "flow-mods", "hw entries"], rows)
    assert rows[0][1] == 1
    assert rows[1][1] > rows[0][1]
    ctl = YancController(build_linear(1)).start()
    yc = ctl.client()
    counter = iter(range(10**6))
    benchmark(lambda: yc.create_flow("sw1", f"b{next(counter)}", Match(dl_vlan=3), [Output(1)], priority=5))


def test_a3_buffered_vs_full_punts(benchmark):
    """miss_send_len truncation + buffer release vs full frames both ways:
    the buffered design moves far fewer bytes over the control channel."""
    rows = []
    payload = bytes(1400)
    for buffered in (True, False):
        ctl = YancController(build_linear(2)).start()
        switch = ctl.net.switches["sw1"]
        if not buffered:
            switch.num_buffers = 0  # forces full-frame punts
        yc = ctl.client()
        yc.subscribe_events("sw1", "app")
        ctl.run(0.1)
        bytes_before = ctl.host.vfs.counters.get("openflow.tx_bytes")
        host = ctl.net.hosts["h1"]
        from repro.netpkt import MacAddress, ip as _ip

        host.arp_table[_ip("10.0.0.99")] = MacAddress(0x99)  # skip ARP: punt the big frames
        for index in range(10):
            host.send_udp("10.0.0.99", 1, index + 1, payload)
        ctl.run(0.5)
        moved = ctl.host.vfs.counters.get("openflow.tx_bytes") - bytes_before
        events = yc.read_events("sw1", "app")
        rows.append(("buffered (miss_send_len=128)" if buffered else "full-frame punts", moved, len(events)))
    print_table("A3: control-channel bytes for 10 punted 1400B frames", ["mode", "wire bytes", "events"], rows)
    assert rows[0][1] < rows[1][1]
    ctl = YancController(build_linear(2)).start()
    benchmark(lambda: ctl.run(0.01))


def test_a4_device_poll_interval(benchmark):
    """§7.1 devices: shorter polls react faster but burn more RPCs."""
    from repro.distfs import DeviceRuntime, FileServer

    rows = []
    for interval in (0.05, 0.2, 0.8):
        net = build_linear(1)
        master = ControllerHost(net.sim)
        server = FileServer(master.root_sc.spawn(), "/net")
        device = DeviceRuntime(list(net.switches.values())[0], master, server=server, poll_interval=interval).start()
        net.run(1.0)
        yc = master.client()
        calls_before = device.channel.calls
        start = net.sim.now
        yc.create_flow("sw1", "probe", Match(dl_vlan=1), [Output(1)], priority=5)
        while len(net.switches["sw1"].table) == 0 and net.sim.now < start + 10:
            net.run(0.01)
        latency = net.sim.now - start
        net.run(2.0)
        rps = (device.channel.calls - calls_before) / (net.sim.now - start)
        rows.append((f"{interval * 1e3:.0f} ms", f"{latency * 1e3:.0f} ms", f"{rps:.0f}/s"))
    print_table("A4: device poll interval trade-off", ["interval", "apply latency", "RPC rate"], rows)
    latencies = [float(row[1].split()[0]) for row in rows]
    rates = [float(row[2].rstrip("/s")) for row in rows]
    assert latencies[0] < latencies[-1]
    assert rates[0] > rates[-1]
    net = build_linear(1)
    master = ControllerHost(net.sim)
    device = DeviceRuntime(list(net.switches.values())[0], master).start()
    benchmark(device.poll)
