"""E7 — §5.2: fsnotify-based monitoring "comes free".

Paper design: applications monitor the tree with inotify/fanotify; "use of
the *notify systems comes free, requiring no additional lines of code to
the yanc file system."

Reproduced shape: event delivery is cheap and O(watchers-on-that-inode);
unrelated watches cost nothing; a realistic driver-style watch set over a
large tree sustains high event throughput.
"""

from conftest import print_table

from repro.runtime import ControllerHost
from repro.sim import Simulator
from repro.vfs import EventMask
from repro.vfs.cred import ROOT


def test_delivery_throughput_single_watch(benchmark):
    host = ControllerHost(Simulator())
    sc = host.root_sc
    sc.mkdir("/net/switches/sw1")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
    counter = iter(range(10**7))

    def create_and_drain():
        sc.mkdir(f"/net/switches/sw1/flows/f{next(counter)}")
        return ino.read()

    events = benchmark(create_and_drain)
    assert len(events) == 1


def test_cost_scales_with_interested_watchers_only(benchmark):
    rows = []
    for watchers in (1, 8, 64, 256):
        host = ControllerHost(Simulator())
        sc = host.root_sc
        sc.mkdir("/net/switches/sw1")
        instances = []
        for _ in range(watchers):
            ino = sc.inotify_init()
            sc.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
            instances.append(ino)
        before = host.vfs.counters.get("notify.events")
        for index in range(50):
            sc.mkdir(f"/net/switches/sw1/flows/f{index}")
        delivered = host.vfs.counters.get("notify.events") - before
        rows.append((watchers, 50, delivered))
        assert delivered == watchers * 50
    print_table("E7: deliveries for 50 creates vs watcher count", ["watchers", "creates", "deliveries"], rows)
    host = ControllerHost(Simulator())
    sc = host.root_sc
    sc.mkdir("/net/switches/sw1")
    counter = iter(range(10**7))
    benchmark(lambda: sc.mkdir(f"/net/switches/sw1/flows/g{next(counter)}"))


def test_unrelated_watches_cost_nothing(benchmark):
    """A watch on sw2 must not slow (or see) sw1 traffic."""
    host = ControllerHost(Simulator())
    sc = host.root_sc
    sc.mkdir("/net/switches/sw1")
    sc.mkdir("/net/switches/sw2")
    bystander = sc.inotify_init()
    sc.inotify_add_watch(bystander, "/net/switches/sw2/flows", EventMask.IN_CREATE)
    for index in range(100):
        sc.mkdir(f"/net/switches/sw1/flows/f{index}")
    assert bystander.read() == []
    counter = iter(range(10**7))
    benchmark(lambda: sc.mkdir(f"/net/switches/sw1/flows/h{next(counter)}"))


def test_driver_style_watchset_over_large_tree(benchmark):
    """A watch per flows/ dir across 100 switches: commits are still
    delivered selectively and promptly."""
    host = ControllerHost(Simulator())
    sc = host.root_sc
    admin = host.client(cred=ROOT)  # switch creation is a driver right
    client = host.client()
    ino = sc.inotify_init()
    wd_to_switch = {}
    for index in range(100):
        name = f"sw{index + 1}"
        admin.create_switch(name)
        wd = sc.inotify_add_watch(ino, f"/net/switches/{name}/flows", EventMask.IN_CREATE)
        wd_to_switch[wd] = name
    from repro.dataplane import Match, Output

    client.create_flow("sw42", "target", Match(dl_vlan=42), [Output(1)], priority=5)
    events = ino.read()
    assert len(events) == 1
    assert wd_to_switch[events[0].wd] == "sw42"
    counter = iter(range(10**7))
    benchmark(lambda: client.create_flow("sw7", f"b{next(counter)}", Match(dl_vlan=7), [Output(1)], priority=5))
    print(f"\nwatch set: 100 dirs; one commit -> exactly 1 delivery")
