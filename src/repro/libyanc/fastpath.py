"""Direct-store flow operations (no system calls).

v2 (paper §8.1, ROADMAP item 1): beyond the original per-call fastpath,
the library now speaks in *batches*:

* **write-behind commits** — :meth:`LibYanc.stage_flow` /
  :meth:`LibYanc.write_flow_files` record spec mutations without bumping
  ``version``; one :meth:`LibYanc.flush` commits every dirty flow, so a
  burst of staged changes pays one visibility point per flow instead of
  one per mutation.  §3.4 semantics are preserved exactly: nothing a
  driver acts on becomes visible until its version increments, and
  versions only ever grow.
* **vectored directory I/O** — :meth:`LibYanc.read_flow_dir` and
  :meth:`LibYanc.read_flows` return whole flow directories (or the whole
  table) in one library call; :meth:`LibYanc.write_flow_files` applies a
  dict of validated attribute writes at once.
* **zero-copy packet rings** — per-(switch, app) :class:`ShmRing`
  packet-in rings and a per-switch packet-out ring; one
  :meth:`LibYanc.push_packet_in` fans a single buffer *reference* out to
  every subscribed ring.  Rings are pollable, so consumers park their
  epoll loop on them like any descriptor.
"""

from __future__ import annotations

from repro.dataplane.actions import Action
from repro.dataplane.match import Match
from repro.libyanc.shmring import ShmRing
from repro.perf.counters import PerfCounters
from repro.vfs.errors import FileExists, FileNotFound, NotADirectory
from repro.vfs.inode import DirInode
from repro.yancfs import validate
from repro.yancfs.client import flow_spec_files
from repro.yancfs.schema import AttributeFile, FlowNode, FlowsDir, SwitchNode, YancFs

#: Default capacity of a packet ring created on first use.
DEFAULT_RING_CAPACITY = 1024


class LibYanc:
    """A process's handle on the shared-memory mapping of the yanc store.

    Each operation counts one ``libyanc.op`` (and its touched bytes) in the
    shared counters, but zero syscalls and zero context switches — the
    quantity the benchmark of experiment E2 compares against the file path.
    """

    def __init__(self, fs: YancFs, *, counters: PerfCounters | None = None) -> None:
        self.fs = fs
        self.counters = counters or PerfCounters()
        #: Flows staged but not yet committed, in staging order (the
        #: write-behind set :meth:`flush` drains).
        self._dirty: dict[tuple[str, str], None] = {}
        self._packet_in_rings: dict[tuple[str, str], ShmRing] = {}
        self._packet_out_rings: dict[str, ShmRing] = {}

    def _op(self, name: str) -> None:
        self.counters.add("libyanc.op")
        self.counters.add(f"libyanc.{name}")

    # -- store navigation (in-process pointer chasing, not path resolution) ----------

    def _switch(self, switch: str) -> SwitchNode:
        switches = self.fs.root.lookup("switches")
        if not isinstance(switches, DirInode):
            raise NotADirectory("switches")
        node = switches.lookup(switch)
        if not isinstance(node, SwitchNode):
            raise NotADirectory(switch, "not a switch object")
        return node

    def _flows(self, switch: str) -> FlowsDir:
        flows = self._switch(switch).lookup("flows")
        assert isinstance(flows, FlowsDir)
        return flows

    def _flow(self, switch: str, name: str) -> FlowNode:
        node = self._flows(switch).lookup(name)
        if not isinstance(node, FlowNode):
            raise NotADirectory(name, "not a flow object")
        return node

    # -- fastpath operations -------------------------------------------------------------

    def list_switches(self) -> list[str]:
        """All switch names (one shared-memory read)."""
        self._op("list_switches")
        switches = self.fs.root.lookup("switches")
        assert isinstance(switches, DirInode)
        return sorted(switches.names())

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
    ) -> None:
        """Create a whole flow entry atomically (paper: "a fastpath for
        e.g. creating flow entries atomically and without any context
        switchings").

        The flow directory appears in the tree fully formed: watchers see
        the same IN_CREATE / IN_MODIFY events the file path produces, but
        the caller crossed into the kernel zero times.
        """
        self._op("create_flow")
        flows = self._flows(switch)
        if flows.has_child(name):
            raise FileExists(name)
        node = FlowNode(self.fs, mode=0o755, uid=0, gid=0)
        files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        flows.attach(name, node)  # populates counters/ + version
        for filename, content in files.items():
            attr = AttributeFile(
                self.fs, mode=0o644, uid=0, gid=0, validator=validate.flow_file_validator(filename)
            )
            attr.set_validated_content(content)  # same validation as close-time checks
            node.attach(filename, attr)
        if commit:
            self.commit_flow(switch, name)

    def commit_flow(self, switch: str, name: str) -> int:
        """Bump the version file in place; returns the new version."""
        self._op("commit_flow")
        version_node = self._flow(switch, name).lookup("version")
        assert isinstance(version_node, AttributeFile)
        new_version = int(version_node.read_all().decode().strip() or "0") + 1
        version_node.set_content(str(new_version).encode())
        self._dirty.pop((switch, name), None)
        return new_version

    def delete_flow(self, switch: str, name: str) -> None:
        """Remove a flow entry recursively (watchers see IN_DELETE as usual).

        Emits the exact event stream ``rm -r`` of the flow path produces:
        depth-first IN_DELETE for every descendant (so a watcher on
        ``counters/`` sees its children go), IN_DELETE_SELF on each
        emptied directory, and finally IN_DELETE for the flow itself on
        the flows directory.
        """
        self._op("delete_flow")
        flows = self._flows(switch)
        node = flows.lookup(name)
        if isinstance(node, DirInode) and not node.is_empty():
            self._remove_subtree(node)
        flows.detach(name)
        self._dirty.pop((switch, name), None)

    def _remove_subtree(self, node: DirInode) -> None:
        # Mirrors VirtualFileSystem._remove_subtree so the fastpath and the
        # file path are indistinguishable to watchers.
        for child_name, child in list(node.children()):
            if isinstance(child, DirInode):
                self._remove_subtree(child)
            node.detach(child_name)

    def flow_counters(self, switch: str, name: str) -> dict[str, int]:
        """Read a flow's counters without a single stat()/read() call."""
        self._op("flow_counters")
        counters = self._flow(switch, name).lookup("counters")
        assert isinstance(counters, DirInode)
        out = {}
        for child_name, child in counters.children():
            assert isinstance(child, AttributeFile)
            out[child_name] = int(child.read_all().decode().strip() or "0")
        return out

    def bulk_create(
        self,
        switch: str,
        entries: list[tuple[str, Match, list[Action]]],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
        commit: bool = True,
    ) -> int:
        """Create many flows in one library call; returns how many.

        Every entry's spec files land first, then (with ``commit=True``)
        each flow's version bumps in one pass at the end of the batch —
        the §3.4 visibility point fires once per flow per batch, never
        interleaved with later entries' writes.  With ``commit=False``
        the whole batch stays staged for a later :meth:`flush`.
        """
        self._op("bulk_create")
        for name, match, actions in entries:
            self.create_flow(
                switch,
                name,
                match,
                actions,
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                commit=False,
            )
        for name, _match, _actions in entries:
            if commit:
                self.commit_flow(switch, name)
            else:
                self._dirty[(switch, name)] = None
        return len(entries)

    def read_attribute(self, switch: str, flow: str, filename: str) -> str:
        """Read one attribute file's content directly."""
        self._op("read_attribute")
        node = self._flow(switch, flow).lookup(filename)
        if not isinstance(node, AttributeFile):
            raise FileNotFound(filename)
        return node.read_all().decode()

    # -- vectored directory I/O (one library call per directory, not per file) -------

    def read_flow_dir(self, switch: str, name: str) -> dict[str, str]:
        """Every attribute file of one flow in a single operation.

        The vectored read the file path spells as listdir + one
        open/read/close per entry.  ``counters/`` is skipped (use
        :meth:`flow_counters`).
        """
        self._op("read_flow_dir")
        return self._snapshot_flow(self._flow(switch, name))

    def read_flows(self, switch: str) -> dict[str, dict[str, str]]:
        """The whole flow table — every flow's attribute files — at once."""
        self._op("read_flows")
        out: dict[str, dict[str, str]] = {}
        for name, node in sorted(self._flows(switch).children()):
            if isinstance(node, FlowNode):
                out[name] = self._snapshot_flow(node)
        return out

    @staticmethod
    def _snapshot_flow(node: FlowNode) -> dict[str, str]:
        out = {}
        for filename, child in node.children():
            if isinstance(child, AttributeFile):
                out[filename] = child.read_all().decode()
        return out

    def write_flow_files(self, switch: str, name: str, files: dict[str, str], *, commit: bool = False) -> None:
        """Apply many attribute writes to one flow as a single operation.

        Each value passes the same validator the file path runs at close
        time; validation failures raise before *any* file changes, so a
        vectored write is all-or-nothing.  Without ``commit`` the flow is
        marked dirty for the next :meth:`flush` (write-behind).
        """
        self._op("write_flow_files")
        node = self._flow(switch, name)
        staged: list[tuple[str, AttributeFile, str, bool]] = []
        for filename, content in files.items():
            if filename == "version":
                raise FileExists(filename, "version is written by commit/flush, not directly")
            is_new = not node.has_child(filename)
            if is_new:
                attr = AttributeFile(
                    self.fs, mode=0o644, uid=0, gid=0, validator=validate.flow_file_validator(filename)
                )
            else:
                attr = node.lookup(filename)
                if not isinstance(attr, AttributeFile):
                    raise FileNotFound(filename)
            if attr.validator is not None:
                attr.validator(content)  # all-or-nothing: reject before any write lands
            staged.append((filename, attr, content, is_new))
        for filename, attr, content, is_new in staged:
            attr.set_validated_content(content)
            if is_new:
                node.attach(filename, attr)
        if commit:
            self.commit_flow(switch, name)
        else:
            self._dirty[(switch, name)] = None

    # -- write-behind commits (§3.4 visibility, batched) -----------------------------

    def stage_flow(
        self,
        switch: str,
        name: str,
        match: Match,
        actions: list[Action],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
    ) -> None:
        """Create a flow with its commit deferred to the next :meth:`flush`.

        The directory and spec files appear immediately (version 0 — a
        driver ignores it until committed); the visibility point is paid
        later, once, by :meth:`flush`.
        """
        self._op("stage_flow")
        self.create_flow(
            switch,
            name,
            match,
            actions,
            priority=priority,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            commit=False,
        )
        self._dirty[(switch, name)] = None

    @property
    def dirty_flows(self) -> list[tuple[str, str]]:
        """(switch, flow) pairs staged and awaiting :meth:`flush`."""
        return list(self._dirty)

    def flush(self) -> list[tuple[str, str, int]]:
        """Commit every staged flow, in staging order.

        Returns (switch, flow, new_version) per commit.  Flows deleted
        since staging are skipped silently — there is nothing left to make
        visible.
        """
        self._op("flush")
        out: list[tuple[str, str, int]] = []
        pending, self._dirty = self._dirty, {}
        for switch, name in pending:
            try:
                out.append((switch, name, self.commit_flow(switch, name)))
            except (NotADirectory, FileNotFound):
                continue
        return out

    # -- zero-copy packet rings (pollable shared-memory transport) -------------------

    def packet_in_ring(self, switch: str, app: str, *, capacity: int = DEFAULT_RING_CAPACITY) -> ShmRing:
        """This app's packet-in ring on ``switch`` (created on first use).

        The shared-memory counterpart of the §3.5 ``events/<app>`` buffer:
        subscribing returns a pollable ring the consumer parks its epoll
        loop on; :meth:`push_packet_in` fans references into every ring.
        """
        self._switch(switch)  # same existence check as the file path's mkdir
        key = (switch, app)
        ring = self._packet_in_rings.get(key)
        if ring is None:
            self._op("packet_in_ring")
            ring = ShmRing(capacity, counters=self.counters)
            self._packet_in_rings[key] = ring
        return ring

    def drop_packet_in_ring(self, switch: str, app: str) -> None:
        """Unsubscribe: pending buffers are discarded with the ring."""
        self._op("drop_packet_in_ring")
        self._packet_in_rings.pop((switch, app), None)

    def push_packet_in(self, switch: str, payload: bytes | bytearray | memoryview) -> int:
        """Fan one packet-in buffer out to every subscribed ring, zero-copy.

        Each subscriber receives a reference to the *same* buffer (a
        memoryview), so fan-out is O(subscribers) pointer stores with no
        bytes copied.  Full rings drop (counted per ring); returns how
        many rings accepted the buffer.
        """
        self._op("push_packet_in")
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        delivered = 0
        for (ring_switch, _app), ring in self._packet_in_rings.items():
            if ring_switch == switch and ring.put(view):
                delivered += 1
        return delivered

    def packet_out_ring(self, switch: str, *, capacity: int = DEFAULT_RING_CAPACITY) -> ShmRing:
        """The switch's outbound packet ring (driver-consumed)."""
        self._switch(switch)
        ring = self._packet_out_rings.get(switch)
        if ring is None:
            self._op("packet_out_ring")
            ring = ShmRing(capacity, counters=self.counters)
            self._packet_out_rings[switch] = ring
        return ring

    def push_packet_out(self, switch: str, payload: bytes | bytearray | memoryview) -> bool:
        """Queue one outbound frame reference; False when the ring is full."""
        self._op("push_packet_out")
        return self.packet_out_ring(switch).put(payload)
