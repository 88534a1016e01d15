"""E1 — §8.1: the file interface's syscall / context-switch cost.

Paper claim: "Each fine-grained access to the file system is done through
a system call ... Complex operations such as writing flow entries to
thousands of nodes will result in tens of thousands of context switches."

Reproduced shape:

* syscalls per flow install is a constant greater than 10;
* context switches grow linearly in fleet size;
* at 1000 switches, one fleet-wide flow push costs > 10,000 context
  switches — the paper's "tens of thousands".
"""

from conftest import print_table

from repro.dataplane import Match, Output
from repro.perf import FUSE_COST_MODEL, SyscallMeter
from repro.runtime import ControllerHost
from repro.sim import Simulator
from repro.vfs.cred import ROOT
from repro.yancfs import YancClient

FLEET_SIZES = (10, 100, 500, 1000, 2000)


def _host_with_switches(count: int) -> ControllerHost:
    host = ControllerHost(Simulator())
    client = host.client(cred=ROOT)  # switch creation is a driver right
    for index in range(count):
        client.create_switch(f"sw{index + 1}")
    return host


def _install_everywhere(client: YancClient, switches: list[str], tag: str) -> None:
    for switch in switches:
        client.create_flow(switch, f"f_{tag}", Match(dl_type=0x0800, nw_proto=6, tp_dst=22), [Output(1)], priority=40)


def test_syscalls_per_flow_install_constant(benchmark):
    host = _host_with_switches(1)
    meter = SyscallMeter()
    client = host.client(meter=meter)
    counter = iter(range(10**6))

    def install():
        client.create_flow("sw1", f"flow{next(counter)}", Match(dl_type=0x0800, tp_dst=22, nw_proto=6), [Output(1)], priority=40)

    benchmark(install)
    per_flow = meter.syscalls / max(1, meter.counters.get("syscall.mkdir"))
    print(f"\nsyscalls per flow install: {per_flow:.1f}")
    assert per_flow > 10  # mkdir + per-file open/write/close + commit


def test_context_switches_scale_with_fleet(benchmark):
    rows = []
    for size in FLEET_SIZES:
        host = _host_with_switches(size)
        meter = SyscallMeter()
        client = host.client(meter=meter)
        _install_everywhere(client, client.switches(), "sweep")
        simulated = FUSE_COST_MODEL.syscall_time(meter.syscalls)
        ns = client.sc.ns
        ns.dcache.publish(host.vfs.counters)
        dcache_hits = host.vfs.counters.get("dcache.hits") + host.vfs.counters.get("dcache.path_hits")
        rows.append((size, meter.syscalls, meter.context_switches, dcache_hits, f"{simulated * 1000:.2f} ms"))
    print_table(
        "E1: fleet-wide flow push, file path (per-switch flow entry)",
        ["switches", "syscalls", "ctx switches", "dcache hits", "simulated time"],
        rows,
    )
    by_size = {row[0]: row for row in rows}
    # the paper's headline: thousands of nodes => tens of thousands of switches
    assert by_size[1000][2] > 10_000
    # linearity: 10x the fleet ~ 10x the context switches (within 20%)
    ratio = by_size[1000][2] / by_size[100][2]
    assert 8 <= ratio <= 12
    # and a timed reference point for the 10-switch case
    host = _host_with_switches(10)
    client = host.client()
    counter = iter(range(10**6))
    benchmark(lambda: _install_everywhere(client, [f"sw{i+1}" for i in range(10)], f"b{next(counter)}"))


def test_read_side_also_pays_per_access(benchmark):
    """stat()/read() sweeps over the tree cost linearly too."""
    host = _host_with_switches(100)
    client = host.client()
    _install_everywhere(client, client.switches(), "r")
    meter = SyscallMeter()
    reader = host.client(meter=meter)

    def scan():
        total = 0
        for switch in reader.switches():
            for flow in reader.flows(switch):
                total += reader.read_flow(switch, flow).priority
        return total

    benchmark(scan)
    print(f"\nfull-tree flow scan of 100 switches: {meter.syscalls} syscalls, {meter.context_switches} ctxsw")
    assert meter.syscalls > 100 * 5
