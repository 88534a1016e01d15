"""Direct-store flow operations (no system calls).

v2 (paper §8.1) speaks in *write-behind batches*: :meth:`LibYanc.stage_flow`
builds a whole flow directory at version 0 without bumping ``version``,
and one :meth:`LibYanc.flush` commits every staged flow, so a burst of
installs pays one visibility point per flow at the end of the burst.
§3.4 semantics are preserved exactly: nothing a driver acts on becomes
visible until its version increments, and versions only ever grow.
"""

from __future__ import annotations

from repro.dataplane.actions import Action
from repro.dataplane.match import Match
from repro.perf.counters import PerfCounters
from repro.vfs.errors import FileExists, FileNotFound, NotADirectory
from repro.vfs.inode import DirInode
from repro.yancfs import validate
from repro.yancfs.client import flow_spec_files
from repro.yancfs.schema import AttributeFile, FlowNode, FlowsDir, SwitchNode, YancFs


class LibYanc:
    """A process's handle on the shared-memory mapping of the yanc store.

    Each operation counts one ``libyanc.op`` in the shared counters, but
    zero syscalls and zero context switches — the quantity the benchmark
    of experiment E2 compares against the file path.
    """

    def __init__(self, fs: YancFs, *, counters: PerfCounters | None = None) -> None:
        self.fs = fs
        self.counters = counters or PerfCounters()
        #: Flows staged but not yet committed, in staging order (the
        #: write-behind set :meth:`flush` drains).
        self._dirty: dict[tuple[str, str], None] = {}

    def _op(self, name: str) -> None:
        self.counters.add("libyanc.op")
        self.counters.add(f"libyanc.{name}")

    # -- store navigation (in-process pointer chasing, not path resolution) ----------

    def _flows(self, switch: str) -> FlowsDir:
        switches = self.fs.root.lookup("switches")
        if not isinstance(switches, DirInode):
            raise NotADirectory("switches")
        node = switches.lookup(switch)
        if not isinstance(node, SwitchNode):
            raise NotADirectory(switch, "not a switch object")
        flows = node.lookup("flows")
        assert isinstance(flows, FlowsDir)
        return flows

    def _flow(self, switch: str, name: str) -> FlowNode:
        node = self._flows(switch).lookup(name)
        if not isinstance(node, FlowNode):
            raise NotADirectory(name, "not a flow object")
        return node

    # -- fastpath operations -------------------------------------------------------------

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
        """Create a whole flow entry atomically, its commit deferred to :meth:`flush`.

        The paper's "fastpath for e.g. creating flow entries atomically and
        without any context switchings": the flow directory appears in the
        tree fully formed at version 0 (a driver ignores it until
        committed), and watchers see the same IN_CREATE events the file
        path produces.  Every spec file passes its close-time validator
        before the directory is attached, so a rejected stage leaves
        nothing behind: no directory, no event, no dirty mark.
        """
        self._op("stage_flow")
        flows = self._flows(switch)
        if flows.has_child(name):
            raise FileExists(name)
        files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        attrs = []
        for filename, content in files.items():
            attr = AttributeFile(
                self.fs, mode=0o644, uid=0, gid=0, validator=validate.flow_file_validator(filename)
            )
            attr.set_validated_content(content)  # same validation as close-time checks
            attrs.append((filename, attr))
        node = FlowNode(self.fs, mode=0o755, uid=0, gid=0)
        flows.attach(name, node)  # populates counters/ + version
        for filename, attr in attrs:
            node.attach(filename, attr)
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
                out.append((switch, name, self._commit(switch, name)))
            except (NotADirectory, FileNotFound):
                continue
        return out

    def _commit(self, switch: str, name: str) -> int:
        """One flow's §3.4 visibility point: bump ``version`` in place."""
        self._op("commit_flow")
        version_node = self._flow(switch, name).lookup("version")
        assert isinstance(version_node, AttributeFile)
        new_version = int(version_node.read_all().decode().strip() or "0") + 1
        version_node.set_content(str(new_version).encode())
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
