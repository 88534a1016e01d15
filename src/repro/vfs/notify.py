"""inotify-style file system monitoring.

The paper (section 5.2) has applications watch the yanc tree with the Linux
fsnotify APIs: a watch on ``switches/`` learns about new switches, a watch
on a flow's ``version`` file learns about commits, and — crucially — this
"comes free, requiring no additional lines of code to the yanc file
system".  We reproduce that property: the notify hub lives in the VFS layer
and file systems emit generic events; no yanc-specific notification code
exists anywhere.

API shape follows inotify: an application creates an :class:`Inotify`
instance, adds watches with an event mask, and reads batched
:class:`NotifyEvent` records.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.vfs.errors import InvalidArgument

if TYPE_CHECKING:
    from repro.vfs.inode import Inode

class EventMask(enum.IntFlag):
    """inotify event bits (same names as ``<sys/inotify.h>``)."""

    IN_ACCESS = 0x0001
    IN_MODIFY = 0x0002
    IN_ATTRIB = 0x0004
    IN_CLOSE_WRITE = 0x0008
    IN_CLOSE_NOWRITE = 0x0010
    IN_OPEN = 0x0020
    IN_MOVED_FROM = 0x0040
    IN_MOVED_TO = 0x0080
    IN_CREATE = 0x0100
    IN_DELETE = 0x0200
    IN_DELETE_SELF = 0x0400
    IN_MOVE_SELF = 0x0800
    IN_Q_OVERFLOW = 0x4000
    IN_ISDIR = 0x4000_0000

    @classmethod
    def all_events(cls) -> "EventMask":
        """Every event bit (IN_ALL_EVENTS)."""
        return (
            cls.IN_ACCESS
            | cls.IN_MODIFY
            | cls.IN_ATTRIB
            | cls.IN_CLOSE_WRITE
            | cls.IN_CLOSE_NOWRITE
            | cls.IN_OPEN
            | cls.IN_MOVED_FROM
            | cls.IN_MOVED_TO
            | cls.IN_CREATE
            | cls.IN_DELETE
            | cls.IN_DELETE_SELF
            | cls.IN_MOVE_SELF
        )


IN_ALL_EVENTS = EventMask.all_events()

_IN_ISDIR = int(EventMask.IN_ISDIR)

#: Linux default for /proc/sys/fs/inotify/max_queued_events.
DEFAULT_MAX_QUEUED_EVENTS = 16384


@dataclass(frozen=True)
class NotifyEvent:
    """One delivered event.

    ``name`` is the child name for events observed via a directory watch
    and None for events on the watched node itself.  ``cookie`` pairs the
    IN_MOVED_FROM / IN_MOVED_TO halves of a rename.
    """

    wd: int
    mask: EventMask
    name: str | None = None
    cookie: int = 0

    @property
    def is_dir(self) -> bool:
        """True when the subject of the event is a directory."""
        return bool(self.mask & EventMask.IN_ISDIR)


class Watch:
    """One watch descriptor: an inode, a mask, and its owner instance."""

    def __init__(self, wd: int, inode: "Inode", mask: EventMask, owner: "Inotify") -> None:
        self.wd = wd
        self.inode = inode
        self.mask = mask
        self.owner = owner
        self.removed = False


class Inotify:
    """An application's notification instance (one event queue).

    The queue is bounded (inotify's ``max_queued_events``) and coalesces an
    event identical to the one at the tail of the queue, exactly as the
    kernel's ``inotify_merge`` does — a flow-table churn storm repeating
    the same modification therefore costs one queued record, and a reader
    that falls too far behind sees a single ``IN_Q_OVERFLOW`` record
    (wd -1) instead of unbounded queue growth.
    """

    def __init__(self, hub: "NotifyHub", *, max_queued_events: int | None = None) -> None:
        self._hub = hub
        self._queue: list[NotifyEvent] = []
        self._watches: dict[int, Watch] = {}
        self.max_queued_events = max(1, max_queued_events or DEFAULT_MAX_QUEUED_EVENTS)
        #: Lifetime tallies for this instance (also published to the hub's
        #: PerfCounters as notify.coalesced / notify.dropped / notify.overflows).
        self.coalesced = 0
        self.dropped = 0
        self.overflows = 0
        self._overflowed = False
        #: Called once whenever the queue goes empty -> non-empty; the
        #: simulation runtime uses it to schedule a daemon wakeup.
        self.wakeup: Callable[[], None] | None = None
        #: Epoll instances watching this descriptor (see repro.vfs.poll);
        #: they get the same empty -> non-empty edge as ``wakeup``.
        self._pollers: list = []

    # -- readiness (the pollable protocol, see repro.vfs.poll) ---------------

    def readable(self) -> bool:
        """True when at least one event is queued."""
        return bool(self._queue)

    def poll_register(self, poller) -> None:
        """Attach an epoll instance to this descriptor's readiness edge."""
        if poller not in self._pollers:
            self._pollers.append(poller)

    def poll_unregister(self, poller) -> None:
        """Detach an epoll instance (no-op when not attached)."""
        if poller in self._pollers:
            self._pollers.remove(poller)

    def add_watch(self, inode: "Inode", mask: EventMask) -> int:
        """Watch ``inode`` for the events in ``mask``; returns the wd.

        Re-watching an inode replaces the mask (as inotify does) and
        returns the existing wd.
        """
        if not mask:
            raise InvalidArgument(detail="empty watch mask")
        for watch in self._hub.watches_on(inode):
            if watch.owner is self:
                watch.mask = mask
                return watch.wd
        return self._hub.register(self, inode, mask)

    def rm_watch(self, wd: int) -> None:
        """Remove watch ``wd``; raises InvalidArgument if unknown."""
        if wd not in self._watches:
            raise InvalidArgument(detail=f"unknown watch descriptor {wd}")
        self._hub.unregister(self._watches.pop(wd))

    def read(self) -> list[NotifyEvent]:
        """Drain and return all queued events (empty list if none)."""
        events, self._queue = self._queue, []
        self._overflowed = False
        return events

    def pending(self) -> int:
        """Number of undelivered events."""
        return len(self._queue)

    def close(self) -> None:
        """Drop all watches and queued events."""
        for watch in list(self._watches.values()):
            self._hub.unregister(watch)
        self._watches.clear()
        self._queue.clear()
        self._pollers.clear()

    # -- hub side -------------------------------------------------------------

    def _register(self, watch: Watch) -> None:
        self._watches[watch.wd] = watch

    def _deliver(self, event: NotifyEvent) -> None:
        # A tracepoint (repro.vfs.trace): observers see every delivery,
        # before coalescing or overflow handling can merge or drop it.
        queue = self._queue
        if queue:
            last = queue[-1]
            if last.wd == event.wd and last.mask == event.mask and last.name == event.name and last.cookie == event.cookie:
                self.coalesced += 1
                self._hub.count("notify.coalesced")
                return
            if len(queue) >= self.max_queued_events:
                self.dropped += 1
                self._hub.count("notify.dropped")
                if not self._overflowed:
                    self._overflowed = True
                    self.overflows += 1
                    self._hub.count("notify.overflows")
                    queue.append(NotifyEvent(wd=-1, mask=EventMask.IN_Q_OVERFLOW))
                return
            queue.append(event)
            return
        queue.append(event)
        if self.wakeup is not None:
            self.wakeup()
        for poller in list(self._pollers):
            poller.notify_readable(self)


class NotifyHub:
    """The per-VFS event fan-out: inode -> interested watches."""

    def __init__(self, counters=None) -> None:
        self._wd_counter = itertools.count(1)
        self._cookie_counter = itertools.count(1)
        self._by_inode: dict[int, list[Watch]] = {}
        self._counters = counters

    def instance(self, *, max_queued_events: int | None = None) -> Inotify:
        """Create a new notification instance (``inotify_init``)."""
        return Inotify(self, max_queued_events=max_queued_events)

    def count(self, name: str) -> None:
        """Increment a delivery counter (no-op without a counter registry)."""
        if self._counters is not None:
            self._counters.add(name)

    def next_cookie(self) -> int:
        """Allocate a cookie pairing the two halves of a rename."""
        return next(self._cookie_counter)

    def watches_on(self, inode: "Inode") -> list[Watch]:
        """The live watches on ``inode`` itself, across every instance."""
        return self._by_inode.get(id(inode), [])

    def register(self, owner: Inotify, inode: "Inode", mask: EventMask) -> int:
        """Create a watch; returns the new watch descriptor."""
        wd = next(self._wd_counter)
        watch = Watch(wd, inode, mask, owner)
        self._by_inode.setdefault(id(inode), []).append(watch)
        owner._register(watch)
        return wd

    def unregister(self, watch: Watch) -> None:
        """Tear down a watch."""
        watch.removed = True
        bucket = self._by_inode.get(id(watch.inode), [])
        if watch in bucket:
            bucket.remove(watch)
        if not bucket:
            self._by_inode.pop(id(watch.inode), None)

    def emit(self, inode: "Inode", mask: int, *, name: str | None = None, cookie: int = 0) -> None:
        """Deliver an event to watches on ``inode`` and on its parents.

        Watches on the node itself see the event with ``name=None``;
        watches on each directory holding a dentry for the node see it with
        the child name — mirroring how fsnotify propagates one level up.
        Like fsnotify with no marks on the inode, an event nobody watches
        returns before any mask is built.
        """
        by_inode = self._by_inode
        if id(inode) in by_inode:
            self._fanout(inode, mask, name, cookie)
        for parent, child_name in list(inode.dentries):
            if id(parent) in by_inode:
                self._fanout(parent, mask, child_name, cookie)

    def emit_dirent(
        self,
        parent: "Inode",
        child: "Inode",
        mask: int,
        name: str,
        cookie: int = 0,
    ) -> None:
        """Deliver a directory-entry event (create/delete/move) by name."""
        if id(parent) in self._by_inode:
            self._fanout(parent, mask | _IN_ISDIR if child.is_dir else mask, name, cookie)

    def _fanout(self, inode: "Inode", mask: int, name: str | None, cookie: int) -> None:
        # Plain-int bit arithmetic; an EventMask is built only per delivery.
        mask = int(mask)
        isdir = mask & _IN_ISDIR
        for watch in list(self._by_inode.get(id(inode), [])):
            if watch.removed:
                continue
            wanted = mask & int(watch.mask)
            if not wanted & ~_IN_ISDIR:
                continue
            delivered = EventMask(wanted | isdir)
            watch.owner._deliver(NotifyEvent(wd=watch.wd, mask=delivered, name=name, cookie=cookie))
            if self._counters is not None:
                self._counters.add("notify.events")
