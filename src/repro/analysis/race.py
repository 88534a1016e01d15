"""yancrace: an opt-in happens-before race detector for the process fleet.

yanc's processes cooperate through shared files, with the ``version``-file
increment as the only atomic commit point for flows (§3.4) — so the
signature failure modes are lost updates, torn multi-file writes, and
reads of uncommitted flow state.  Where yancsan checks per-operation
invariants, yancrace checks the *ordering* between operations: every
syscall context (each :class:`~repro.proc.process.Process` owns one; a
plain test-harness :class:`~repro.vfs.syscalls.Syscalls` counts too) is
an actor with a vector clock, every regular-file data access is recorded
in a bounded per-inode shadow history, and two conflicting accesses with
no happens-before edge between them are a race.

Happens-before edges come only from the substrate's real synchronization
points, mirroring §3.4/§5.2 semantics:

* **notify delivery** — every event delivered to an inotify instance
  carries the emitter's clock; draining the instance (``inotify_read``)
  or seeing it ready (``epoll_wait``) acquires the accumulated clock, so
  a watcher inherits everything its writers did before emitting.
* **version-file commits** — writing a flow's ``version`` releases the
  committer's clock against that file; reading it acquires the last
  released clock.  Observing the new version therefore orders the reader
  after every spec write the commit covered.
* **scheduling** — ``Process.every``/``schedule`` (and therefore cron
  jobs) capture the scheduler's clock at creation; the scheduled run
  acquires it.  Supervised restarts reuse the crashed process's context,
  so program order already covers them.
* **distfs RPC** — a call releases the sender's clock to whoever handles
  it, and the reply releases the handlers' clocks back to the sender.
* **simulator quiescence** — entering and leaving ``Simulator.run`` /
  ``run_until`` joins all clocks (a global barrier): the sequential test
  harness around a run window is ordered against everything inside it,
  while accesses *within* one window stay concurrent unless a real edge
  orders them.

A second pass model-checks the commit protocol itself: a ``match.*`` /
``action.*`` / attribute write to an already-committed flow must be
followed by a ``version`` increment by the same committer
(**torn-commit** otherwise), and no other actor may read the spec while
that increment is outstanding (**uncommitted-read**).

Accesses to ``counters/`` files are exempt: counters are lossy-by-design
monitoring state the driver overwrites and anyone samples (§3.5), not
shared state the protocol orders.  Direct-store mutations that bypass
``Syscalls`` (``libyanc.fastpath``) are invisible here, exactly as they
are invisible to the kernel's fsnotify.

Usage::

    YANCRACE=1 python -m pytest               # conftest wires teardown checks
    python -m repro.analysis race workload.py # run any script under the detector

Findings can be suppressed at either involved source line with
``# yancrace: disable=<kind>`` (kinds: ``race``, ``torn-commit``,
``uncommitted-read``, or ``all``).
"""

from __future__ import annotations

import functools
import linecache
from collections import deque
from dataclasses import dataclass

from repro.analysis.checkers import EnvChecker, call_site
from repro.analysis.core import comment_suppresses, register_suppression_tool
from repro.analysis.hb import Actor, VectorClock
from repro.analysis.sanitizer import _FLOW_SPEC_NAMES, current_version
from repro.vfs.errors import FsError
from repro.vfs.inode import FileInode
from repro.vfs.syscalls import O_TRUNC, Syscalls
from repro.vfs.trace import Hook, Subscriber, attached
from repro.yancfs.schema import CountersDir, FlowNode

register_suppression_tool("yancrace")

#: Bounded per-inode access history (like TSan's shadow cells): old
#: accesses age out, trading missed ancient races for bounded memory.
DEFAULT_HISTORY = 16

#: Actor key shared by every context not owned by a process (id() of a
#: real object is never 0, so this cannot collide).
_HARNESS_AID = 0


@dataclass(frozen=True)
class RaceFinding:
    """One ordering violation, with both parties' identities and sites."""

    kind: str  # "race" | "torn-commit" | "uncommitted-read"
    path: str
    detail: str
    actors: tuple[str, ...] = ()
    sites: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"yancrace [{self.kind}] {self.detail}"

    def to_json(self) -> dict:
        """A JSON-stable dict (what ``--json`` and baselines diff on)."""
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "actors": list(self.actors),
            "sites": list(self.sites),
        }


class _Access:
    """One recorded shadow access: who, when (their tick), how, where."""

    __slots__ = ("actor", "tick", "write", "site")

    def __init__(self, actor: Actor, tick: int, write: bool, site: str) -> None:
        self.actor = actor
        self.tick = tick
        self.write = write
        self.site = site


@dataclass
class _PendingSpec:
    """A spec write to a committed flow awaiting its version increment."""

    flow: FlowNode
    name: str
    path: str
    site: str
    actor: Actor
    tick: int
    version: int


def _site_suppressed(kind: str, *sites: str) -> bool:
    """True when any involved source line carries a disable comment."""
    for site in sites:
        path, _, lineno = site.rpartition(":")
        if not path:
            continue
        try:
            number = int(lineno)
        except ValueError:
            continue
        if comment_suppresses(linecache.getline(path, number), kind):
            return True
    return False


class RaceDetector(Subscriber):
    """Collects ordering findings between :meth:`reset` and :meth:`check`."""

    def __init__(self, *, history: int = DEFAULT_HISTORY) -> None:
        self.findings: list[RaceFinding] = []
        self.history = max(2, history)
        # id(syscalls) -> Actor (the sc object is pinned inside).
        self._actors: dict[int, Actor] = {}
        # id(inode) -> (inode, bounded access deque); inode pinned so its
        # id cannot be recycled while history still names it.
        self._shadow: dict[int, tuple[FileInode, deque]] = {}
        # id(inotify instance) -> (instance, accumulated emitter clock).
        self._inbox: dict[int, tuple[object, VectorClock]] = {}
        # id(version inode) -> (inode, clock released by the last commit).
        self._commit_clocks: dict[int, tuple[FileInode, VectorClock]] = {}
        # (id(flow), actor id) -> spec write awaiting its version bump.
        self._pending: dict[tuple[int, int], _PendingSpec] = {}
        # id(inode) -> (inode, publisher clock at rename time): rename is
        # the atomic-publish op (maildir), so reaching a renamed object
        # acquires its publication.
        self._published: dict[int, tuple[object, VectorClock]] = {}
        # Dedup keys so one racy loop reports once, not per iteration.
        self._seen: set[tuple] = set()
        self._barrier = VectorClock()
        self._barrier_epoch = 0
        # -- execution context --
        #: The Syscalls currently inside a traced call (or the process
        #: scope of a dispatch/guarded run); emissions attribute here.
        self._current: Syscalls | None = None
        #: (id(sc), fd) -> (inode, path): which file each tracked fd names.
        self._fd_files: dict[tuple[int, int], tuple[FileInode, str]] = {}
        #: Scheduling-edge scopes: creation-time (clock, merged) snapshots,
        #: pushed for the duration of a guarded Process task run.
        self._origin_stack: list = []
        #: In-flight RPC calls: (sender, snapshot, responders, merged).
        self._rpc_stack: list = []
        #: Simulator.run nesting depth: 0 means the harness is executing.
        self._run_depth = 0

    # -- lifecycle -----------------------------------------------------------------

    def tracepoints(self) -> dict[str, Hook]:
        hooks = {f"Syscalls.{name}": self._scoped() for name in _SCOPED}
        read = functools.partial(self._fd_access, write=False)
        write = functools.partial(self._fd_access, write=True)
        hooks.update(
            {
                "Syscalls.open": self._scoped(self._opened),
                "Syscalls.close": Hook(self._closing, self._closed),
                "Syscalls.read": self._scoped(read),
                "Syscalls.pread": self._scoped(read),
                "Syscalls.write": self._scoped(write),
                "Syscalls.pwrite": self._scoped(write),
                "Syscalls.ftruncate": self._scoped(write),
                "Syscalls.truncate": self._scoped(self._truncated),
                "Syscalls.rename": self._scoped(self._renamed),
                "Syscalls.inotify_read": self._scoped(self._inotify_drained),
                "Syscalls.epoll_wait": self._scoped(self._epoll_waited),
                "Syscalls.spawn": Hook(exit=self._spawned),
                "Process._guarded": Hook(exit=self._scheduled),
                "Process._dispatch": Hook(self._dispatching, self._restore_scope),
                "Simulator.run": Hook(self._run_entered, self._run_left),
                "Simulator.run_until": Hook(self._run_entered, self._run_left),
                "Inotify._deliver": Hook(enter=self._delivered),
                "RpcChannel.call": Hook(self._rpc_send, self._rpc_recv),
            }
        )
        return hooks

    def reset(self) -> None:
        """Drop all recorded state, e.g. between tests."""
        self.findings.clear()
        self._actors.clear()
        self._shadow.clear()
        self._inbox.clear()
        self._commit_clocks.clear()
        self._pending.clear()
        self._published.clear()
        self._seen.clear()
        self._barrier = VectorClock()
        self._barrier_epoch = 0
        # Between runs every tracked fd table is dead anyway.
        self._fd_files.clear()

    def check(self) -> list[RaceFinding]:
        """All findings, including teardown-only ones (torn commits)."""
        findings = list(self.findings)
        for pend in self._pending.values():
            if _site_suppressed("torn-commit", pend.site):
                continue
            findings.append(
                RaceFinding(
                    "torn-commit",
                    pend.path,
                    f"torn commit: {pend.actor.describe()} wrote flow spec {pend.name!r} "
                    f"({pend.path!r}) at {pend.site} while the flow was at version "
                    f"{pend.version}, but never incremented 'version' — the switch will "
                    "never see the change (§3.4)",
                    actors=(pend.actor.describe(),),
                    sites=(pend.site,),
                )
            )
        return findings

    # -- clock plumbing ------------------------------------------------------------

    def _actor_for(self, sc: Syscalls) -> Actor:
        # Every process-owned context is its own actor.  Bare contexts
        # (owner_pid == 0: the test harness, shells, ad-hoc Syscalls) all
        # collapse into ONE sequential "harness" actor — a test body using
        # three credential hats is still a single thread of control, not
        # three concurrent processes.
        if not getattr(sc, "owner_pid", 0):
            return self._harness_actor()
        aid = id(sc)
        actor = self._actors.get(aid)
        if actor is None:
            actor = Actor(aid, sc)
            actor.clock.merge(self._barrier)
            # Birth edge: everything the orchestrator did before this
            # process's first syscall is program-order-before it (the
            # harness only runs while the simulator is parked).
            harness = self._actors.get(_HARNESS_AID)
            if harness is not None:
                actor.clock.merge(harness.clock)
            actor.barrier_epoch = self._barrier_epoch
            self._actors[aid] = actor
        elif actor.barrier_epoch != self._barrier_epoch:
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
        return actor

    def _harness_actor(self) -> Actor:
        actor = self._actors.get(_HARNESS_AID)
        if actor is None:
            actor = Actor(_HARNESS_AID, None)
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
            self._actors[_HARNESS_AID] = actor
        elif actor.barrier_epoch != self._barrier_epoch:
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
        return actor

    def publish_barrier(self) -> None:
        """Join every actor's clock (a simulator-quiescence sync point).

        Actors acquire the join lazily on their next access, so an idle
        actor costs nothing.
        """
        for actor in self._actors.values():
            self._barrier.merge(actor.clock)
        self._barrier_epoch += 1

    def _caller_actor(self, previous: "Syscalls | None") -> Actor | None:
        """Who synchronously invoked the current syscall, if knowable.

        Inside a simulator window with no process scope (raw scheduled
        events, dataplane plumbing) the invoker is unknown — return None
        rather than inventing an edge.
        """
        if previous is not None:
            return self._actor_for(previous)
        if self._run_depth == 0:
            return self._harness_actor()
        return None

    # -- tracepoint hooks: scope ------------------------------------------------------

    def _enter(self, sc: Syscalls, _args: tuple) -> "Syscalls | None":
        """Per-syscall prologue: make ``sc`` current, apply scope edges.

        Returns the previous scope, which :meth:`_leave` restores.
        """
        previous = self._current
        self._current = sc
        actor = self._actor_for(sc)
        # Synchronous-call edge, caller -> callee: when one context drives
        # another's syscalls in its own control flow (the harness using a
        # process's client, a shell running as root), the call is in the
        # caller's program order.
        caller = self._caller_actor(previous)
        if caller is not None and caller is not actor:
            actor.clock.merge(caller.clock)
        origin = self._origin_stack[-1] if self._origin_stack else None
        if origin is not None:
            clock, merged = origin
            if actor.aid not in merged:
                actor.clock.merge(clock)
                merged.add(actor.aid)
        if self._rpc_stack:
            sender, snap, responders, merged = self._rpc_stack[-1]
            if actor is not sender and actor.aid not in merged:
                if snap is not None:
                    actor.clock.merge(snap)
                merged.add(actor.aid)
                responders.append(actor)
        return previous

    def _leave(self, sc: Syscalls, previous: "Syscalls | None") -> None:
        """Per-syscall epilogue: callee -> caller, the return edge of a
        synchronous call (the caller resumes having observed its effects)."""
        self._current = previous
        actor = self._actor_for(sc)
        caller = self._caller_actor(previous)
        if caller is not None and caller is not actor:
            caller.clock.merge(actor.clock)

    def _dispatching(self, proc, _args: tuple) -> "Syscalls | None":
        previous = self._current
        if proc.sc is not None:
            self._current = proc.sc
        return previous

    def _restore_scope(self, _proc, _args: tuple, _result: object, _error: object, previous: "Syscalls | None") -> None:
        self._current = previous

    def _scheduled(self, proc, _args: tuple, run, error: object, _token: None):
        """The scheduling edge: capture the creating scope's clock now so
        the eventual run (cron job, periodic task, one-shot) acquires it."""
        if error is not None:
            return run
        origin = None if self._current is None else (self._actor_for(self._current).clock.snapshot(), set())

        def guarded_run() -> None:
            if not attached(self):
                return run()
            previous = self._dispatching(proc, ())
            self._origin_stack.append(origin)
            try:
                return run()
            finally:
                self._origin_stack.pop()
                self._current = previous

        return guarded_run

    def _run_entered(self, _sim, _args: tuple) -> None:
        self.publish_barrier()
        self._run_depth += 1

    def _run_left(self, _sim, _args: tuple, _result: object, _error: object, _token: None) -> None:
        self._run_depth -= 1
        self.publish_barrier()

    def _rpc_send(self, _channel, _args: tuple) -> None:
        """A call releases the sender's clock to whoever handles it."""
        if self._current is None:
            self._rpc_stack.append((None, None, [], set()))
            return
        sender = self._actor_for(self._current)
        self._rpc_stack.append((sender, sender.clock.snapshot(), [], set()))

    def _rpc_recv(self, _channel, _args: tuple, _result: object, _error: object, _token: None) -> None:
        """The reply releases the handlers' clocks back to the sender."""
        sender, _snap, responders, _merged = self._rpc_stack.pop()
        if sender is None:
            return
        for responder in responders:
            sender.clock.merge(responder.clock)

    def _spawned(self, parent_sc: Syscalls, _args: tuple, child_sc: Syscalls, error: object, _token: None) -> None:
        """fork(2) edge: the child starts with the parent's clock."""
        if error is None:
            self._actor_for(child_sc).clock.merge(self._actor_for(parent_sc).clock)

    def _delivered(self, instance: object, _args: tuple) -> None:
        """An event was delivered (or coalesced) into an inotify queue."""
        if self._current is None:
            return
        actor = self._actor_for(self._current)
        entry = self._inbox.get(id(instance))
        if entry is None:
            entry = (instance, VectorClock())
            self._inbox[id(instance)] = entry
        entry[1].merge(actor.clock)

    # -- tracepoint hooks: accesses ---------------------------------------------------

    def _scoped(self, after=None) -> Hook:
        """A syscall scope (:meth:`_enter`/:meth:`_leave`); ``after(sc,
        args, result)`` runs inside it once the call has succeeded."""

        def exit_(sc: Syscalls, args: tuple, result: object, error: object, previous: "Syscalls | None") -> None:
            try:
                if after is not None and error is None:
                    after(sc, args, result)
            finally:
                self._leave(sc, previous)

        return Hook(self._enter, exit_)

    def _opened(self, sc: Syscalls, args: tuple, fd: int) -> None:
        path, flags, _mode = args
        handle = sc._fds.get(fd)
        if handle is not None and isinstance(handle.inode, FileInode):
            abspath = sc._abspath(path)
            self._fd_files[(id(sc), fd)] = (handle.inode, abspath)
            if flags & O_TRUNC and handle.writable:
                self._record_access(sc, handle.inode, abspath, write=True)

    def _closing(self, sc: Syscalls, args: tuple):
        return self._enter(sc, args), self._fd_files.pop((id(sc), args[0]), None)

    def _closed(self, sc: Syscalls, _args: tuple, _result: None, error: object, token) -> None:
        previous, entry = token
        if isinstance(error, FsError) and entry is not None:
            # close-time validation rejected the write and rolled the file
            # back: the spec change never became durable, so it cannot owe
            # a version increment.
            actor = self._actor_for(sc)
            for parent, _name in entry[0].dentries:
                if isinstance(parent, FlowNode):
                    self._pending.pop((id(parent), actor.aid), None)
        self._leave(sc, previous)

    def _fd_access(self, sc: Syscalls, args: tuple, _result: object, *, write: bool) -> None:
        entry = self._fd_files.get((id(sc), args[0]))
        if entry is not None:
            self._record_access(sc, entry[0], entry[1], write=write)

    def _truncated(self, sc: Syscalls, args: tuple, _result: None) -> None:
        abspath = sc._abspath(args[0])
        inode = sc.vfs.resolve(sc.ns, sc.cred, abspath)
        if isinstance(inode, FileInode):
            self._record_access(sc, inode, abspath, write=True)

    def _renamed(self, sc: Syscalls, args: tuple, _result: None) -> None:
        # rename is the atomic-publish operation (maildir): record the
        # publisher's clock on the target so later accesses through the
        # new name acquire everything done before publication.
        try:
            node = sc.vfs.resolve(sc.ns, sc.cred, sc._abspath(args[1]))
        except FsError:
            return
        entry = self._published.get(id(node))
        if entry is None:
            entry = (node, VectorClock())
            self._published[id(node)] = entry
        entry[1].merge(self._actor_for(sc).clock)

    def _inotify_drained(self, sc: Syscalls, args: tuple, _events: object) -> None:
        """inotify_read: the reader acquires its emitters' clocks."""
        entry = self._inbox.get(id(args[0]))
        if entry is not None:
            self._actor_for(sc).clock.merge(entry[1])

    def _epoll_waited(self, sc: Syscalls, args: tuple, _ready: object) -> None:
        """epoll_wait: acquire the clock of every ready descriptor."""
        actor = self._actor_for(sc)
        for pollable in args[0].pollables():
            if not pollable.readable():
                continue
            entry = self._inbox.get(id(pollable))
            if entry is not None:
                actor.clock.merge(entry[1])

    # -- the shadow-state core -------------------------------------------------------

    def _record_access(self, sc: Syscalls, inode: FileInode, path: str, *, write: bool) -> None:
        flow = None
        fname = ""
        actor = self._actor_for(sc)
        publication = self._published.get(id(inode))
        if publication is not None:
            actor.clock.merge(publication[1])
        for parent, name in inode.dentries:
            if isinstance(parent, CountersDir):
                return  # lossy-by-design monitoring state (§3.5)
            if isinstance(parent, FlowNode):
                flow, fname = parent, name
            # Reaching a file inside an atomically-published (renamed)
            # directory acquires the publication — the maildir contract.
            publication = self._published.get(id(parent))
            if publication is not None:
                actor.clock.merge(publication[1])
        if flow is not None and fname == "version" and not write:
            # The version file is the synchronization variable (§3.4):
            # reading it acquires the last committer's released clock
            # *before* the race check, so observing a commit orders the
            # reader after it.  Concurrent committers who never saw each
            # other's increment still conflict below (a real lost update).
            released = self._commit_clocks.get(id(inode))
            if released is not None:
                actor.clock.merge(released[1])
        key = id(inode)
        entry = self._shadow.get(key)
        if entry is None:
            entry = (inode, deque(maxlen=self.history))
            self._shadow[key] = entry
        hist = entry[1]
        site = None
        for access in hist:
            if access.actor is actor:
                continue
            if not (write or access.write):
                continue  # read/read never conflicts
            if actor.clock.covers(access.actor.aid, access.tick):
                continue
            if site is None:
                site = call_site()
            self._report_race(actor, access, path, site, write)
        if site is None:
            site = call_site()
        tick = actor.clock.tick(actor.aid)
        last = hist[-1] if hist else None
        if last is not None and last.actor is actor and last.write == write:
            # Same actor repeating the same kind of access: advance the
            # record instead of growing history (the newer tick subsumes
            # the older one for every future HB check).
            last.tick = tick
            last.site = site
        else:
            hist.append(_Access(actor, tick, write, site))
        if flow is not None:
            self._flow_protocol(actor, flow, fname, inode, path, write, site, tick)

    def _report_race(self, actor: Actor, access: _Access, path: str, site: str, write: bool) -> None:
        dedup = ("race", path, access.site, site)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        if _site_suppressed("race", site, access.site):
            return
        kind_then = "write" if access.write else "read"
        kind_now = "write" if write else "read"
        other = access.actor
        self.findings.append(
            RaceFinding(
                "race",
                path,
                f"unsynchronized {kind_then}/{kind_now} on {path!r}: "
                f"{other.describe()} at {access.site} and {actor.describe()} at {site} "
                "have no happens-before edge (no notify delivery, version "
                "acquire, scheduling, or RPC orders them)",
                actors=(other.describe(), actor.describe()),
                sites=(access.site, site),
            )
        )

    # -- §3.4 commit-protocol model checking -------------------------------------------

    def _flow_protocol(self, actor: Actor, flow: FlowNode, fname: str, inode: FileInode, path: str, write: bool, site: str, tick: int) -> None:
        if fname == "version":
            if write:
                # Commit: release the committer's clock (covers this
                # write's tick) and retire every pending spec write the
                # committer has observed — its own, or one HB-ordered
                # before the increment (the commit covers those too).
                self._commit_clocks[id(inode)] = (inode, actor.clock.snapshot())
                for key, pend in list(self._pending.items()):
                    if key[0] != id(flow):
                        continue
                    if pend.actor is actor or actor.clock.covers(pend.actor.aid, pend.tick):
                        del self._pending[key]
            # The read-side acquire happened in _record_access, before the
            # race check — the version file is the sync variable itself.
            return
        if not (fname in _FLOW_SPEC_NAMES or fname.startswith(("match.", "action."))):
            return
        if write:
            if current_version(flow) > 0:
                self._pending.setdefault(
                    (id(flow), actor.aid),
                    _PendingSpec(flow, fname, path, site, actor, tick, current_version(flow)),
                )
            return
        for (fid, aid), pend in self._pending.items():
            if fid != id(flow) or aid == actor.aid:
                continue
            if actor.clock.covers(pend.actor.aid, pend.tick):
                # The reader is HB-ordered after the spec write: it can
                # observe the mid-commit state coherently (e.g. a driver
                # that re-reads and version-guards).  Only *concurrent*
                # reads of uncommitted state are protocol violations.
                continue
            dedup = ("uncommitted", pend.site, site)
            if dedup in self._seen:
                continue
            self._seen.add(dedup)
            if _site_suppressed("uncommitted-read", site, pend.site):
                continue
            self.findings.append(
                RaceFinding(
                    "uncommitted-read",
                    path,
                    f"read of uncommitted flow state: {actor.describe()} read {path!r} "
                    f"at {site} while {pend.actor.describe()} holds an uncommitted spec "
                    f"write to {pend.name!r} (at {pend.site}; version still "
                    f"{pend.version}, §3.4)",
                    actors=(actor.describe(), pend.actor.describe()),
                    sites=(site, pend.site),
                )
            )


#: Syscalls whose only hook sets the current actor: directory ops need no
#: shadow record (they are atomic in the kernel, like a concurrent map),
#: but the notify events they emit must carry the mutator's clock.
_SCOPED = ("mkdir", "rmdir", "unlink", "symlink", "link", "chmod", "chown", "set_acl", "setxattr", "removexattr")


# -- environment opt-in ---------------------------------------------------------

#: The ``YANCRACE`` opt-in; the module-level names are the historical API.
ENV = EnvChecker("yancrace", "YANCRACE", RaceDetector)
enabled = ENV.enabled
install_from_env = ENV.install_from_env
active = ENV.active
reset_all = ENV.reset_all
