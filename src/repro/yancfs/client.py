"""High-level helpers over the yanc file tree.

Everything here is plain file I/O through a :class:`~repro.vfs.Syscalls`
facade — the helpers exist so applications, drivers, and tests compose the
same ``echo value > file`` sequences without repeating path arithmetic.
Every helper call costs exactly the system calls it issues; nothing
bypasses the file system (that is :mod:`repro.libyanc`'s job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dataplane.actions import Action, parse_action
from repro.dataplane.match import Match
from repro.vfs.errors import FileNotFound
from repro.vfs.path import clean
from repro.vfs.syscalls import O_WRONLY, Syscalls
from repro.yancfs.schema import YancFs

if TYPE_CHECKING:
    from repro.vfs.uring import IoUring


def mount_yancfs(sc: Syscalls, path: str = "/net", *, recover: bool = True) -> YancFs:
    """Create a yanc file system and mount it at ``path`` (default /net).

    Unless ``recover=False``, the mount runs the :func:`~repro.yancfs.recovery.fsck`
    sweep over the freshly mounted tree: stale dot-temps and half-staged
    (version-0) flow directories left by a crashed publisher are removed
    before any reader sees the namespace.  A brand-new mount is empty,
    so on the common path this costs a handful of ``scandir`` calls.
    """
    from repro.yancfs.recovery import fsck

    fs = YancFs(clock=sc.vfs.clock)
    if not sc.exists(path):
        sc.makedirs(path)
    sc.mount(path, fs, source="yanc")
    if recover:
        fsck(sc, path)
    return fs


def flow_spec_files(
    match: Match,
    actions: list[Action],
    *,
    priority: int | None = None,
    idle_timeout: float | None = None,
    hard_timeout: float | None = None,
) -> dict[str, str]:
    """The spec files of one flow directory, in write order (§3.4).

    Match fields first, then one ``action.<kind>[.<n>]`` per action (the
    suffix keeps their order), then whichever of ``priority``, ``timeout``
    and ``hard_timeout`` are given.  ``version`` is not a spec file: it is
    the commit.
    """
    files = dict(match.to_files())
    for index, action in enumerate(actions):
        filename, content = action.to_file()
        if index:
            filename = f"{filename}.{index}"
        files[filename] = content
    for filename, value in (("priority", priority), ("timeout", idle_timeout), ("hard_timeout", hard_timeout)):
        if value is not None:
            files[filename] = str(value)
    return files


@dataclass(frozen=True)
class FlowSpec:
    """Everything a committed flow directory describes."""

    match: Match
    actions: tuple[Action, ...]
    priority: int = 0x8000
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    version: int = 0


@dataclass(frozen=True)
class PacketInEvent:
    """One packet-in message read from an event buffer (§3.5)."""

    switch: str
    seq: int
    in_port: int
    reason: str
    buffer_id: int
    total_len: int
    data: bytes


class YancClient:
    """Path helpers + composite operations over one mounted yanc tree."""

    def __init__(self, sc: Syscalls, root: str = "/net") -> None:
        self.sc = sc
        # One canonical spelling so derived paths hit one dentry-cache /
        # meter key instead of fanning out over //-and-dot variants.
        self.root = clean(root.rstrip("/") or "/net")

    # -- paths ----------------------------------------------------------------------

    def switch_path(self, switch: str) -> str:
        """``/net/switches/<switch>``."""
        return f"{self.root}/switches/{switch}"

    def flow_path(self, switch: str, flow: str) -> str:
        """``/net/switches/<switch>/flows/<flow>``."""
        return f"{self.switch_path(switch)}/flows/{flow}"

    def port_path(self, switch: str, port: int | str) -> str:
        """``/net/switches/<switch>/ports/port_<n>``."""
        name = port if isinstance(port, str) else f"port_{port}"
        return f"{self.switch_path(switch)}/ports/{name}"

    def events_path(self, switch: str, app: str) -> str:
        """``/net/switches/<switch>/events/<app>``."""
        return f"{self.switch_path(switch)}/events/{app}"

    def view_path(self, *names: str) -> str:
        """``/net/views/<a>/views/<b>/...`` for nested views."""
        path = self.root
        for name in names:
            path += f"/views/{name}"
        return path

    def in_view(self, *names: str) -> "YancClient":
        """A client rooted inside a (possibly nested) view subtree."""
        return YancClient(self.sc, self.view_path(*names))

    # -- switches -------------------------------------------------------------------

    def switches(self) -> list[str]:
        """All switch names (dot-prefixed maildir temps excluded)."""
        return sorted(n for n in self.sc.listdir(f"{self.root}/switches") if not n.startswith("."))

    def create_switch(self, name: str, *, dpid: int | None = None) -> str:
        """mkdir a switch (driver-side); returns its path.

        Maildir discipline: assemble under a dot-temp name, rename into
        place once the identity files exist — a concurrently scanning
        driver or app never observes a half-created switch.
        """
        path = self.switch_path(name)
        tmp = f"{self.root}/switches/.{name}"
        self.sc.mkdir(tmp)
        if dpid is not None:
            self.sc.write_text(f"{tmp}/id", str(dpid))
        self.sc.rename(tmp, path)
        return path

    def switch_dpid(self, name: str) -> int:
        """Read the ``id`` attribute file."""
        return int(self.sc.read_text(f"{self.switch_path(name)}/id").strip() or "0")

    def delete_switch(self, name: str) -> None:
        """rmdir a switch (recursive, §3.2)."""
        self.sc.rmdir(self.switch_path(name))

    # -- flows ----------------------------------------------------------------------

    def flows(self, switch: str) -> list[str]:
        """All flow names on a switch."""
        return sorted(self.sc.listdir(f"{self.switch_path(switch)}/flows"))

    def create_flow(
        self,
        switch: str,
        name: str,
        match: Match,
        actions: list[Action],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
        commit: bool = True,
    ) -> str:
        """Write a flow directory file by file, then commit it (§3.4).

        This is the slow-but-honest file path: one mkdir, one write per
        match field / action / attribute, and the final version increment
        that makes the whole thing visible to the driver atomically.
        """
        path = self.flow_path(switch, name)
        files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        self.sc.mkdir(path)
        for filename, content in files.items():
            self.sc.write_text(f"{path}/{filename}", content)
        if commit:
            self.commit_flow(switch, name)
        return path

    def create_flows_batched(
        self,
        switch: str,
        entries: list[tuple[str, Match, list[Action]]],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
        uring: "IoUring | None" = None,
    ) -> int:
        """Install many flows through the ring: O(1) kernel crossings.

        Each flow becomes one linked chain — mkdir, then ``open → write →
        close`` per spec file, then the ``version`` write that is the §3.4
        visibility point — so a failed step cancels the rest of *that
        flow's* chain without touching its neighbours, and no flow becomes
        visible before its files exist.  The whole batch submits in
        ⌈entries/ring size⌉ crossings (one, for a dedicated ring).

        Returns the number of flows whose chain fully completed.
        """
        ring = uring or self.sc.io_uring_setup(entries=max(256, sum(4 + 3 * self._flow_file_count(m, a) for _n, m, a in entries)))
        created = 0
        for name, match, actions in entries:
            path = self.flow_path(switch, name)
            files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
            self._make_room(ring, 4 + 3 * len(files))
            ring.prep("mkdir", path, link=True)
            for filename, content in files.items():
                ring.prep_write_file(f"{path}/{filename}", content.encode(), link=True)
            # Fresh flows are born at version 0; this write is the commit.
            ring.prep_write_file(f"{path}/version", b"1", user_data=("flow", name))
        ring.submit()
        for cqe in ring.completions():
            if cqe.ok and cqe.user_data and cqe.user_data[0] == "flow" and cqe.op == "close":
                created += 1
        return created

    @staticmethod
    def _flow_file_count(match: Match, actions: list[Action]) -> int:
        return len(match.to_files()) + len(actions) + 4  # spec + version + attribute slack

    @staticmethod
    def _make_room(ring: "IoUring", need: int) -> None:
        # Chains must not straddle a submit; flush before starting one that
        # would not fit in the remaining submission-queue slots.
        if ring.sq_pending and ring.sq_pending + need > ring.entries:
            ring.submit()

    def commit_flow(self, switch: str, name: str) -> int:
        """Increment the flow's ``version`` file; returns the new version."""
        path = f"{self.flow_path(switch, name)}/version"
        current = int(self.sc.read_text(path).strip() or "0")
        # §3.4: versions only grow, so the decimal text never shrinks and
        # a full-width pwrite at offset 0 replaces the value in a single
        # durable op.  The obvious ``write_text`` would open with O_TRUNC,
        # and a crash between the truncating open and the write would
        # leave an empty version — read back as 0, so mount-time recovery
        # would sweep a *committed* flow as torn.
        fd = self.sc.open(path, O_WRONLY)
        try:
            self.sc.pwrite(fd, str(current + 1).encode(), 0)
        finally:
            self.sc.close(fd)
        return current + 1

    def read_flow(self, switch: str, name: str) -> FlowSpec:
        """Parse a flow directory back into a :class:`FlowSpec`."""
        path = self.flow_path(switch, name)
        files: dict[str, str] = {}
        action_files: list[tuple[str, str, str]] = []
        for entry in self.sc.listdir(path):
            if entry == "counters":
                continue
            content = self.sc.read_text(f"{path}/{entry}")
            files[entry] = content
            if entry.startswith("action."):
                base, _, suffix = entry.partition(".")
                del base
                kind, _, order = suffix.partition(".")
                action_files.append((order or "0", f"action.{kind}", content))
        actions = tuple(parse_action(fname, content) for _order, fname, content in sorted(action_files, key=lambda item: int(item[0])))
        return FlowSpec(
            match=Match.from_files(files),
            actions=actions,
            priority=int(files.get("priority", "32768").strip() or "32768"),
            idle_timeout=float(files.get("timeout", files.get("idle_timeout", "0")).strip() or "0"),
            hard_timeout=float(files.get("hard_timeout", "0").strip() or "0"),
            cookie=int(files.get("cookie", "0").strip() or "0"),
            version=int(files.get("version", "0").strip() or "0"),
        )

    def delete_flow(self, switch: str, name: str) -> None:
        """rmdir the flow (recursive)."""
        self.sc.rmdir(self.flow_path(switch, name))

    def flow_counters(self, switch: str, name: str) -> dict[str, int]:
        """Read the flow's counters directory."""
        return self._read_counters(f"{self.flow_path(switch, name)}/counters")

    # -- ports ----------------------------------------------------------------------

    def ports(self, switch: str) -> list[str]:
        """All port directory names on a switch."""
        return sorted(self.sc.listdir(f"{self.switch_path(switch)}/ports"))

    def create_port(self, switch: str, port_no: int) -> str:
        """mkdir a port directory (driver-side)."""
        path = self.port_path(switch, port_no)
        self.sc.mkdir(path)
        return path

    def set_port_down(self, switch: str, port: int | str, down: bool) -> None:
        """The paper's ``echo 1 > port_2/config.port_down``."""
        self.sc.write_text(f"{self.port_path(switch, port)}/config.port_down", "1" if down else "0")

    def port_is_down(self, switch: str, port: int | str) -> bool:
        """Read the admin-down flag."""
        return self.sc.read_text(f"{self.port_path(switch, port)}/config.port_down").strip() == "1"

    def set_peer(self, switch: str, port: int | str, peer_switch: str, peer_port: int | str) -> None:
        """Create/replace the topology symlink ``peer`` (§3.3)."""
        link = f"{self.port_path(switch, port)}/peer"
        try:
            self.sc.unlink(link)  # EAFP: one resolution, no exists() pre-flight
        except FileNotFound:
            pass
        self.sc.symlink(self.port_path(peer_switch, peer_port), link)

    def peer_of(self, switch: str, port: int | str) -> str | None:
        """The peer symlink target, or None when unlinked."""
        link = f"{self.port_path(switch, port)}/peer"
        try:
            return self.sc.readlink(link)
        except FileNotFound:
            return None

    def port_counters(self, switch: str, port: int | str) -> dict[str, int]:
        """Read a port's counters directory."""
        return self._read_counters(f"{self.port_path(switch, port)}/counters")

    # -- events ------------------------------------------------------------------------

    def subscribe_events(self, switch: str, app: str) -> str:
        """Create this app's private packet-in buffer on a switch (§3.5)."""
        path = self.events_path(switch, app)
        if not self.sc.exists(path):
            self.sc.mkdir(path)
        return path

    def unsubscribe_events(self, switch: str, app: str) -> None:
        """Remove the buffer (pending events are discarded)."""
        self.sc.rmdir(self.events_path(switch, app))

    def write_packet_in(
        self,
        switch: str,
        app: str,
        seq: int,
        *,
        in_port: int,
        reason: str,
        buffer_id: int,
        total_len: int,
        data: bytes,
    ) -> str:
        """Driver-side: materialize one packet-in into an app's buffer.

        Maildir discipline: the event is assembled under a dot-prefixed
        temp name (invisible to consumers) and atomically renamed into
        place once complete.  Publishing with a bare ``mkdir`` first would
        wake watchers on IN_CREATE *before* the field files exist — a torn
        multi-file write racing every reader (yancrace flags it).
        """
        base = self.events_path(switch, app)
        tmp = f"{base}/.pi_{seq}"
        path = f"{base}/pi_{seq}"
        self.sc.mkdir(tmp)
        self.sc.write_text(f"{tmp}/in_port", str(in_port))
        self.sc.write_text(f"{tmp}/reason", reason)
        self.sc.write_text(f"{tmp}/buffer_id", str(buffer_id))
        self.sc.write_text(f"{tmp}/total_len", str(total_len))
        self.sc.write_bytes(f"{tmp}/data", data)
        self.sc.rename(tmp, path)
        return path

    def write_packet_in_batched(
        self,
        switch: str,
        apps: list[str],
        seq: int,
        *,
        in_port: int,
        reason: str,
        buffer_id: int,
        total_len: int,
        data: bytes,
        uring: "IoUring | None" = None,
    ) -> int:
        """Fan one packet-in out to many app buffers through the ring.

        The unbatched :meth:`write_packet_in` pays 17 syscalls *per app*;
        here each app is one linked chain (mkdir temp → five file writes →
        the maildir rename that publishes) and the whole fan-out submits
        in one ``io_uring_enter``.  Watchers still see only the atomic
        IN_MOVED_TO — a canceled chain leaves at most an invisible
        dot-temp.  Drains the ring's completion queue; returns the number
        of apps whose event published.
        """
        ring = uring or self.sc.io_uring_setup(entries=max(256, 17 * len(apps)))
        fields = (
            ("in_port", str(in_port).encode()),
            ("reason", reason.encode()),
            ("buffer_id", str(buffer_id).encode()),
            ("total_len", str(total_len).encode()),
            ("data", data),
        )
        for app in apps:
            base = self.events_path(switch, app)
            tmp = f"{base}/.pi_{seq}"
            self._make_room(ring, 17)
            ring.prep("mkdir", tmp, link=True)
            for filename, content in fields:
                ring.prep_write_file(f"{tmp}/{filename}", content, link=True)
            ring.prep("rename", tmp, f"{base}/pi_{seq}", user_data=("pi", app))
        ring.submit()
        return sum(
            1
            for cqe in ring.completions()
            if cqe.ok and cqe.op == "rename" and cqe.user_data and cqe.user_data[0] == "pi"
        )

    def read_events(self, switch: str, app: str, *, consume: bool = True) -> list[PacketInEvent]:
        """Drain (or peek) an event buffer, oldest first."""
        base = self.events_path(switch, app)
        events = []
        for entry in sorted(self.sc.listdir(base), key=_event_order):
            if entry.startswith("."):
                continue  # maildir temp: still being assembled
            path = f"{base}/{entry}"
            events.append(
                PacketInEvent(
                    switch=switch,
                    seq=_event_order(entry),
                    in_port=int(self.sc.read_text(f"{path}/in_port").strip()),
                    reason=self.sc.read_text(f"{path}/reason").strip(),
                    buffer_id=int(self.sc.read_text(f"{path}/buffer_id").strip()),
                    total_len=int(self.sc.read_text(f"{path}/total_len").strip()),
                    data=self.sc.read_bytes(f"{path}/data"),
                )
            )
            if consume:
                self.sc.rmdir(path)
        return events

    def packet_out(
        self,
        switch: str,
        ports: list[int | str],
        data: bytes = b"",
        *,
        in_port: int | None = None,
        buffer_id: int | None = None,
        tag: str = "app",
    ) -> str:
        """Emit a packet by dropping a file into the switch's spool.

        ``ports`` entries are port numbers or ``"flood"``/``"all"``; pass
        ``buffer_id`` to release a switch-buffered packet instead of (or in
        addition to) raw ``data``.
        """
        self._pktout_seq = getattr(self, "_pktout_seq", 0) + 1
        tokens = []
        for port in ports:
            tokens.append(port if isinstance(port, str) else f"p{port}")
        if in_port is not None:
            tokens.append(f"in{in_port}")
        if buffer_id is not None:
            tokens.append(f"b{buffer_id}")
        tokens.append(tag)
        tokens.append(str(self._pktout_seq))
        path = f"{self.switch_path(switch)}/packet_out/{'.'.join(tokens)}"
        self.sc.write_bytes(path, data)
        return path

    # -- hosts -------------------------------------------------------------------------

    def hosts(self) -> list[str]:
        """All host names (dot-prefixed maildir temps excluded)."""
        return sorted(n for n in self.sc.listdir(f"{self.root}/hosts") if not n.startswith("."))

    def create_host(self, name: str, *, mac: str = "", ip_addr: str = "", attached_to: str = "") -> str:
        """Record an end host (topology/ARP daemons maintain these).

        Published maildir-style (assemble dot-temp, rename) so a scanner
        never sees a host with its mac written but its ip still missing.
        """
        path = f"{self.root}/hosts/{name}"
        tmp = f"{self.root}/hosts/.{name}"
        self.sc.mkdir(tmp)
        if mac:
            self.sc.write_text(f"{tmp}/mac", mac)
        if ip_addr:
            self.sc.write_text(f"{tmp}/ip", ip_addr)
        if attached_to:
            self.sc.write_text(f"{tmp}/attached_to", attached_to)
        self.sc.rename(tmp, path)
        return path

    # -- views -------------------------------------------------------------------------

    def views(self) -> list[str]:
        """Direct child view names."""
        return sorted(self.sc.listdir(f"{self.root}/views"))

    def create_view(self, name: str) -> "YancClient":
        """mkdir a view; returns a client rooted inside it."""
        self.sc.mkdir(f"{self.root}/views/{name}")
        return self.in_view(name)

    # -- internals ------------------------------------------------------------------------

    def _read_counters(self, path: str) -> dict[str, int]:
        out = {}
        for entry in self.sc.listdir(path):
            out[entry] = int(self.sc.read_text(f"{path}/{entry}").strip() or "0")
        return out


def _event_order(name: str) -> int:
    try:
        return int(name.rsplit("_", 1)[-1])
    except ValueError:
        return 0
