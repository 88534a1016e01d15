"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import checkers
from repro.runtime import YancController
from repro.sim import Simulator
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs


@pytest.fixture(autouse=True)
def runtime_checks():
    """With YANCSAN=1, YANCRACE=1 or YANCSEC=1, run every test under that
    runtime checker (sanitizer, happens-before race detector, reference
    monitor) and fail it on any finding."""
    installed = checkers.install_from_env()
    for _label, checker in installed:
        checker.reset()
    yield
    report = []
    for label, checker in installed:
        findings = checker.check()
        checker.reset()
        if findings:
            report.append(f"{label} findings:\n" + "\n".join(str(f) for f in findings))
    assert not report, "\n".join(report)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def vfs(sim: Simulator) -> VirtualFileSystem:
    return VirtualFileSystem(clock=lambda: sim.now)


@pytest.fixture
def sc(vfs: VirtualFileSystem) -> Syscalls:
    return Syscalls(vfs)


@pytest.fixture
def yanc_sc(sc: Syscalls) -> Syscalls:
    """A root process with a fresh yancfs mounted at /net."""
    mount_yancfs(sc)
    return sc


@pytest.fixture
def yc(yanc_sc: Syscalls) -> YancClient:
    return YancClient(yanc_sc)


@pytest.fixture
def linear_controller() -> YancController:
    """A started controller over a 3-switch line (1 host per switch)."""
    from repro.dataplane.topology import build_linear

    net = build_linear(3, hosts_per_switch=1)
    return YancController(net).start()
