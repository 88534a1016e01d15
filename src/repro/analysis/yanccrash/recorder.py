"""The durable-op recorder: yanccrash's dynamic choke-point instrumentation.

Subscribes to the same tracepoints (:mod:`repro.vfs.trace`) as yancrace,
but records the opposite projection of a workload: not *orderings*
between accesses but the *durable-effect trace* — every operation that
changes what a crash would leave on disk, in program order, through the
``Syscalls`` choke points.  ``write_text``/``makedirs`` decompose into their primitive calls
inside ``Syscalls`` (``open → write → close``, ``exists + mkdir`` per
component), so the trace naturally carries every point a crash could
split a composite operation.  ``IoUring.submit`` dispatches each batched
entry through the same ``Syscalls`` methods, so batched ops land in the
trace too; the recorder tags them with a submit-batch id so the explorer
can label mid-chain sever prefixes.  Direct-store ``libyanc`` mutations
never cross ``Syscalls`` — those are captured at the ``LibYanc``
tracepoints as synthetic ``fastpath-*`` ops, and ``flush()`` opens a
*reorder window* around the per-flow commits it performs (the write-behind
contract orders commits per flow, not across flows, so the explorer may
legally replay any subset of a window as having reached the store before
the crash).

Only paths under the recorder's roots (default ``/net`` and ``/var``)
are recorded — analysis scratch I/O and unrelated trees stay out of the
trace.  The recorder takes no snapshots and issues no syscalls of its
own: replay is deterministic, so the explorer reconstructs any
intermediate state it needs from the trace alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.analysis.checkers import call_site
from repro.vfs.syscalls import O_CREAT, O_RDWR, O_TRUNC, O_WRONLY, Syscalls
from repro.vfs.trace import Hook, Subscriber
from repro.yancfs.client import flow_spec_files
from repro.yancfs.schema import YancFs

_WRITE_FLAGS = O_WRONLY | O_RDWR | O_CREAT | O_TRUNC

#: Path-addressed durable primitives -> (leading path arguments recorded
#: as absolute paths, further arguments recorded as given).
_PATH_OPS = {
    "mkdir": (1, 0),
    "rmdir": (1, 0),
    "unlink": (1, 0),
    "truncate": (1, 1),
    "rename": (2, 0),
    "link": (2, 0),
}


@dataclass(frozen=True)
class DurableOp:
    """One recorded durable effect (crash prefixes cut between these)."""

    op: str  # a Syscalls primitive name, "mount", or "fastpath-*"
    args: tuple  # op-specific; paths are absolute
    vfs: int  # id() of the kernel the op landed on
    batch: int | None = None  # uring submit batch, when dispatched by one
    window: int | None = None  # write-behind flush window, when inside one
    site: str = "<unknown>"


class CrashRecorder(Subscriber):
    """Collects the durable-op trace between :meth:`install` and :meth:`uninstall`."""

    def __init__(self, roots: tuple[str, ...] = ("/net", "/var")) -> None:
        self.roots = tuple(roots)
        self.ops: list[DurableOp] = []
        #: (id(sc), fd) -> absolute path, for write-capable opens under a root.
        self._fds: dict[tuple[int, int], str] = {}
        #: id(YancFs) -> mount path, so fastpath ops can be replayed by path.
        self._mounts: dict[int, str] = {}
        #: Current uring submit batch / write-behind flush window (None
        #: outside ``IoUring.submit`` / ``LibYanc.flush``).
        self._batch: int | None = None
        self._window: int | None = None
        self._batches = 0
        self._windows = 0

    def in_scope(self, path: str) -> bool:
        return any(path == root or path.startswith(root + "/") for root in self.roots)

    def record(self, op: str, args: tuple, vfs_id: int) -> None:
        self.ops.append(DurableOp(op=op, args=args, vfs=vfs_id, batch=self._batch, window=self._window, site=call_site()))

    def reset(self) -> None:
        self.ops.clear()
        self._fds.clear()

    # -- tracepoint hooks (successful calls only, except close) ----------------------

    def tracepoints(self) -> dict[str, Hook]:
        hooks = {f"Syscalls.{op}": Hook(exit=functools.partial(self._path_op, op)) for op in _PATH_OPS}
        hooks.update(
            {
                "Syscalls.open": Hook(exit=self._opened),
                "Syscalls.write": Hook(exit=functools.partial(self._fd_op, "write")),
                "Syscalls.pwrite": Hook(exit=functools.partial(self._fd_op, "pwrite")),
                "Syscalls.ftruncate": Hook(exit=functools.partial(self._fd_op, "ftruncate")),
                "Syscalls.close": Hook(exit=self._closed),
                "Syscalls.symlink": Hook(exit=self._symlinked),
                "Syscalls.mount": Hook(exit=self._mounted),
                "IoUring.submit": Hook(self._open_batch, self._close_batch),
                "LibYanc.flush": Hook(self._open_window, self._close_window),
            }
        )
        for point, kind in (("stage_flow", "create"), ("_commit", "commit"), ("delete_flow", "delete")):
            hooks[f"LibYanc.{point}"] = Hook(exit=functools.partial(self._fastpath, "fastpath-" + kind))
        return hooks

    def _opened(self, sc: Syscalls, args: tuple, fd: int | None, error: object, _token: None) -> None:
        path, flags, _mode = args
        if error is None and flags & _WRITE_FLAGS:
            abspath = sc._abspath(path)
            if self.in_scope(abspath):
                self._fds[(id(sc), fd)] = abspath
                self.record("open", (abspath, flags, fd), id(sc.vfs))

    def _fd_op(self, op: str, sc: Syscalls, args: tuple, _result: object, error: object, _token: None) -> None:
        if error is None and (id(sc), args[0]) in self._fds:
            if op != "ftruncate":
                args = (args[0], bytes(args[1])) + args[2:]
            self.record(op, args, id(sc.vfs))

    def _closed(self, sc: Syscalls, args: tuple, _result: None, _error: object, _token: None) -> None:
        # Recorded even when close-time validation raises: the replay tree
        # runs the same validator and rolls back the same way.
        if self._fds.pop((id(sc), args[0]), None) is not None:
            self.record("close", args, id(sc.vfs))

    def _path_op(self, op: str, sc: Syscalls, args: tuple, _result: None, error: object, _token: None) -> None:
        if error is not None:
            return
        paths, kept = _PATH_OPS[op]
        abspaths = tuple(sc._abspath(p) for p in args[:paths])
        if any(self.in_scope(p) for p in abspaths):
            self.record(op, abspaths + args[paths : paths + kept], id(sc.vfs))

    def _symlinked(self, sc: Syscalls, args: tuple, _result: None, error: object, _token: None) -> None:
        target, linkpath = args
        abspath = sc._abspath(linkpath)
        if error is None and self.in_scope(abspath):
            self.record("symlink", (target, abspath), id(sc.vfs))

    def _mounted(self, sc: Syscalls, args: tuple, _result: None, error: object, _token: None) -> None:
        if error is not None:
            return
        path, fs, _source = args
        abspath = sc._abspath(path)
        kind = "yanc" if isinstance(fs, YancFs) else type(fs).__name__
        if kind == "yanc":
            self._mounts[id(fs)] = abspath
        if self.in_scope(abspath):
            self.record("mount", (abspath, kind), id(sc.vfs))

    def _open_batch(self, _ring, _args: tuple) -> int | None:
        self._batches += 1
        previous, self._batch = self._batch, self._batches
        return previous

    def _close_batch(self, _ring, _args: tuple, _result: object, _error: object, previous: int | None) -> None:
        self._batch = previous

    def _open_window(self, _ly, _args: tuple) -> int | None:
        self._windows += 1
        previous, self._window = self._window, self._windows
        return previous

    def _close_window(self, _ly, _args: tuple, _result: object, _error: object, previous: int | None) -> None:
        self._window = previous

    def _fastpath(self, op: str, ly, args: tuple, _result: object, error: object, _token: None) -> None:
        mount = self._mounts.get(id(ly.fs))
        if error is not None or mount is None or not self.in_scope(mount):
            return  # failed, or the store is not reachable through a recorded tree
        switch, name = args[:2]
        if op == "fastpath-create":
            match, actions, priority, idle_timeout, hard_timeout = args[2:]
            detail = (flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout),)
        else:
            detail = ()
        self.record(op, (mount, switch, name) + detail, id(ly.fs))


__all__ = ["CrashRecorder", "DurableOp"]
