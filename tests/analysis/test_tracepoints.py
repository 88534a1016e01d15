"""The tracepoint layer under the runtime checkers (repro.vfs.trace).

yancsan, yancrace, yancsec and the yanccrash recorder are subscribers of
one layer; composing them must not change what any of them sees, and a
fully detached layer must cost nothing.
"""

from __future__ import annotations

import functools
import importlib

import pytest

from repro.analysis.race import RaceDetector
from repro.analysis.sanitizer import Sanitizer
from repro.analysis.yanccrash.explorer import explore
from repro.analysis.yanccrash.recorder import CrashRecorder
from repro.analysis.yancsec.monitor import SecurityMonitor
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.libyanc.fastpath import LibYanc
from repro.proc import ProcessTable
from repro.sim import Simulator
from repro.vfs import trace
from repro.vfs.errors import FileNotFound, InvalidArgument
from repro.vfs.memfs import MemFs
from repro.vfs.syscalls import O_CREAT, O_RDONLY, O_WRONLY, Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs

CHECKERS = {
    "yancsan": Sanitizer,
    "yancrace": RaceDetector,
    "yancsec": SecurityMonitor,
    "yanccrash": CrashRecorder,
}

#: The violation each checker must report on :func:`_workload`.
SEEDED = {
    "yancsan": {"fd-leak", "flow-commit"},
    "yancrace": {"race", "torn-commit"},
    "yancsec": {"root-app"},
    "yanccrash": {"spec-after-commit"},
}


@pytest.fixture(autouse=True)
def alone():
    """Run with no other subscriber attached (YANCSAN=1 and friends install
    session-wide checkers); put them back afterwards."""
    others = trace.subscribers()
    for sub in others:
        sub.uninstall()
    yield
    for sub in trace.subscribers():
        sub.uninstall()
    for sub in others:
        sub.install()


def _workload() -> None:
    """Every choke-point family, plus one seeded violation per checker."""
    sim = Simulator()
    vfs = VirtualFileSystem(clock=lambda: sim.now)
    root = Syscalls(vfs)
    fs = mount_yancfs(root, "/net")
    client = YancClient(root)
    client.create_switch("s1")
    client.create_flow("s1", "f1", Match(in_port=3), [Output(1)], priority=9)
    client.create_flows_batched("s1", [("f2", Match(in_port=4), [Output(2)])])
    fast = LibYanc(fs)
    fast.stage_flow("s1", "f3", Match(in_port=5), [Output(1)])
    fast.stage_flow("s1", "f4", Match(in_port=6), [Output(2)], priority=7)
    fast.flush()
    # A committed flow's spec rewritten without a version increment.
    root.write_text("/net/switches/s1/flows/f1/match.in_port", "4")
    # A descriptor never closed.
    root.makedirs("/var/spool")
    root.open("/var/spool/leak", O_WRONLY | O_CREAT)
    # Two processes writing one file in one simulator window.
    table = ProcessTable(root, sim)
    a = table.spawn(name="a").start()
    b = table.spawn(name="b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/var/spool/shared", "x"))
    b.schedule(0.1, lambda: b.sc.write_text("/var/spool/shared", "y"))
    sim.run()
    # An app-role context running as uid 0.
    app = Syscalls(vfs)
    app.role = "app"
    app.listdir("/net")


def _observe(checker) -> list:
    """What one checker reports about the workload, in comparable form."""
    if isinstance(checker, CrashRecorder):
        vfs_ids: dict[int, int] = {}
        return [
            (op.op, op.args, vfs_ids.setdefault(op.vfs, len(vfs_ids)), op.batch, op.window, op.site)
            for op in checker.ops
        ]
    return [str(finding) for finding in checker.check()]


def _kinds(checker) -> set[str]:
    if isinstance(checker, CrashRecorder):
        return {v.kind for v in explore(checker.ops).violations}
    return {finding.kind for finding in checker.check()}


def _run(names) -> dict:
    instances = {name: CHECKERS[name]() for name in names}
    if "yancsec" in instances:
        instances["yancsec"].register_root("/net")
    for checker in instances.values():
        checker.install()
    try:
        _workload()
    finally:
        for checker in instances.values():
            checker.uninstall()
    return instances


def test_composed_checkers_see_what_each_sees_alone():
    together = _run(CHECKERS)
    for name in CHECKERS:
        solo = _run([name])[name]
        assert _observe(together[name]) == _observe(solo), name
        assert _observe(solo), f"{name} observed nothing; the comparison would be vacuous"


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_seeded_violation_fires_under_the_other_three(name):
    together = _run(CHECKERS)
    assert SEEDED[name] <= _kinds(together[name])


class Spy(trace.Subscriber):
    """Hooks every tracepoint and counts the events it is sent."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str, tuple]] = []

    def tracepoints(self) -> dict[str, trace.Hook]:
        hooks = {}
        for where, methods in trace.POINTS.items():
            for method in methods:
                point = f"{where.partition(':')[2]}.{method}"
                hooks[point] = trace.Hook(functools.partial(self._enter, point), functools.partial(self._exit, point))
        return hooks

    def _enter(self, point, _target, args):
        self.events.append(("enter", point, args))

    def _exit(self, point, _target, args, result, error, _token):
        self.events.append(("exit", point, (result, type(error).__name__ if error else None)))
        return result  # a task point hands its task back


def _traced_methods() -> list[str]:
    traced = []
    for where, methods in trace.POINTS.items():
        module, _, owner = where.partition(":")
        cls = getattr(importlib.import_module(module), owner)
        traced += [f"{owner}.{m}" for m in methods if hasattr(vars(cls)[m], "__wrapped__")]
    return traced


def test_detached_layer_reaches_no_subscriber_code():
    spy = Spy().install()
    checkers = [cls().install() for cls in CHECKERS.values()]
    assert _traced_methods()
    for checker in checkers:
        checker.uninstall()
    spy.uninstall()
    assert trace.subscribers() == []
    assert _traced_methods() == []  # every original method is back
    _workload()
    assert spy.events == []
    assert all(checker.check() == [] for checker in checkers if not isinstance(checker, CrashRecorder))
    assert checkers[-1].ops == []


def test_hooks_get_declared_arguments_and_outcomes():
    sc = Syscalls(VirtualFileSystem())
    sc.mkdir("/m")
    tmp = MemFs()
    spy = Spy().install()
    try:
        fd = sc.open("/f", flags=O_WRONLY | O_CREAT)
        sc.close(fd)
        sc.mount("/m", tmp, source="tmp")
        with pytest.raises(FileNotFound):
            sc.open("/missing")
    finally:
        spy.uninstall()
    syscalls = [e for e in spy.events if e[1].startswith("Syscalls.")]
    # Keyword arguments fold into position; defaults are filled in.
    assert syscalls[0] == ("enter", "Syscalls.open", ("/f", O_WRONLY | O_CREAT, 0o644))
    assert syscalls[1] == ("exit", "Syscalls.open", (fd, None))
    assert ("enter", "Syscalls.mount", ("/m", tmp, "tmp")) in syscalls
    assert syscalls[-2] == ("enter", "Syscalls.open", ("/missing", O_RDONLY, 0o644))
    assert syscalls[-1] == ("exit", "Syscalls.open", (None, "FileNotFound"))


def test_unknown_tracepoint_is_rejected():
    class Typo(trace.Subscriber):
        def tracepoints(self):
            return {"Syscalls.opne": trace.Hook()}

    with pytest.raises(InvalidArgument, match="no tracepoint named"):
        Typo().install()
    assert trace.subscribers() == []
