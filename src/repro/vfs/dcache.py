"""The dentry cache: memoized path-component lookups, per mount namespace.

Without a cache every syscall walks its path component by component
(``VirtualFileSystem._walk``), so on hot yanc paths (``/net/switches/<s>/
flows/<f>/...``) the §8.1 syscall-cost story is dominated by redundant
lookups rather than the kernel-crossing cost the paper measures.  This
module adds the Linux-style fix: a per-:class:`~repro.vfs.mount.
MountNamespace` cache mapping ``(parent inode id, component name)`` to the
child inode the walk would have produced (after mount crossing), plus
*negative* entries recording that a name was absent.

Correctness rests on two invalidation mechanisms:

* **Directory generations** — every :class:`~repro.vfs.inode.DirInode`
  carries a ``dgen`` counter bumped by ``attach``/``detach``, the two choke
  points through which every create, unlink, rmdir, symlink, link, and
  rename mutates a directory.  A cache entry records the parent's ``dgen``
  at store time and is dead the moment the parent changes — in *every*
  namespace sharing that inode tree, with no cross-namespace bookkeeping.
* **Namespace flushes** — mount table changes (``mount``/``umount``/
  ``bind``) flush the owning namespace's cache, because entries hold
  post-mount-crossing children.  Namespace clones and pivots start with an
  empty cache.

Entries hold a strong reference to the parent directory, which makes the
``id(parent)`` key collision-free: a cached parent cannot be garbage
collected (and its id reused) while its entry lives.  The cache is bounded
(FIFO eviction) so detached subtrees are only pinned temporarily.

On top of the component entries sits a **directory memo** (``paths``):
``components tuple -> (epoch, deps, cred, dir)``, for directories only.
``VirtualFileSystem`` resolves a path as its memoized parent directory plus
one live last-component step — ``MAY_EXEC`` on the live parent, a
component-entry probe or ``lookup``, mount crossing — which is Linux's
``link_path_walk`` followed by the last-component lookup.  A memo miss
resolves the parent prefix the same way and steps once, so every new leaf
under a known directory costs one step.  Permission data is never cached
by the component layer: the live step re-checks the parent every time.

A memoized directory is served in O(1) when the global tree epoch
(:func:`~repro.vfs.inode.tree_epoch`, bumped by every attach/detach and
every ``chmod``/``chown``/``setfacl`` anywhere) has not moved since the
entry was validated — the seqlock trick Linux plays with ``rename_lock``.
When the epoch *has* moved, ``deps`` — one ``(dir, dgen, acl, uid, gid,
mode)`` record per directory the resolution stepped through — is
re-checked precisely: any directory whose generation, ACL object,
ownership or mode changed kills the entry, otherwise the entry is
re-stamped with the current epoch.  Because :class:`~repro.vfs.acl.Acl` is
frozen and only ever *rebound* on an inode, identity comparison is an
exact ACL-change detector; entries are additionally keyed to the exact
``Credentials`` object they were resolved under, so a hit can never leak a
resolution across principals.  Paths containing ``..`` and paths through a
symlink take the full walk and are never memoized.

File systems with dynamic directory semantics (the distributed-FS client
refreshes directory contents over RPC inside ``lookup``) opt out via
``Filesystem.cacheable = False``; their paths always take the full walk
and nothing under their directories is cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf.counters import PerfCounters
    from repro.vfs.inode import DirInode, Inode

#: Default entry bound; mirrors the spirit of Linux's bounded dcache.
DEFAULT_CAPACITY = 32768

#: Counter names published into :class:`~repro.perf.counters.PerfCounters`.
_COUNTER_FIELDS = (
    "hits",
    "neg_hits",
    "misses",
    "stores",
    "invalidations",
    "evictions",
    "flushes",
    "path_hits",
    "path_misses",
)


class DentryCache:
    """A bounded ``(parent id, name) -> child`` cache with negative entries.

    Entry values are ``(parent, parent_dgen, child)`` tuples; ``child`` is
    ``None`` for a negative entry.  An entry is valid only while the stored
    parent is the same object *and* its ``dgen`` is unchanged.
    """

    __slots__ = (
        "capacity",
        "enabled",
        "entries",
        "paths",
        "hits",
        "neg_hits",
        "misses",
        "stores",
        "invalidations",
        "evictions",
        "flushes",
        "path_hits",
        "path_misses",
        "_published",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.enabled = True
        self.entries: dict[tuple[int, str], tuple["DirInode", int, "Inode | None"]] = {}
        #: Directory memo: parts tuple -> (epoch, deps, cred, dir).  See the
        #: module docstring for the validation protocol.
        self.paths: dict = {}
        self.hits = 0
        self.neg_hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self.evictions = 0
        self.flushes = 0
        self.path_hits = 0
        self.path_misses = 0
        self._published: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def store(self, parent: "DirInode", name: str, child: "Inode | None") -> None:
        """Record that ``name`` under ``parent`` resolves to ``child``.

        ``child`` is the post-mount-crossing inode the walk produced, or
        ``None`` to record a confirmed absence (negative entry).
        """
        entries = self.entries
        if len(entries) >= self.capacity:
            entries.pop(next(iter(entries)))
            self.evictions += 1
        entries[(id(parent), name)] = (parent, parent.dgen, child)
        self.stores += 1

    def lookup(self, parent: "DirInode", name: str) -> tuple["DirInode", int, "Inode | None"] | None:
        """Return the live entry for ``(parent, name)``, or None.

        Stale entries (parent ``dgen`` moved on) are dropped and counted as
        invalidations.  This is the out-of-line twin of the inlined lookup
        in ``VirtualFileSystem._step``; tests use it to inspect cache state
        without resolving.
        """
        key = (id(parent), name)
        entry = self.entries.get(key)
        if entry is None or entry[0] is not parent:
            return None
        if entry[1] != parent.dgen:
            del self.entries[key]
            self.invalidations += 1
            return None
        return entry

    def store_path(self, key: tuple[str, ...], epoch: int, deps: tuple, cred, result: "DirInode") -> tuple:
        """Memoize a directory resolution and return the new entry.

        ``deps`` holds one ``(dir, dgen, acl, uid, gid, mode)`` record per
        directory the resolution stepped through; the entry is valid while
        the tree epoch stands still or every dep re-checks clean.
        """
        paths = self.paths
        if len(paths) >= self.capacity:
            paths.pop(next(iter(paths)))
            self.evictions += 1
        entry = paths[key] = (epoch, deps, cred, result)
        return entry

    def invalidate(self, parent: "DirInode", name: str) -> None:
        """Drop the entry for ``(parent, name)`` if present."""
        if self.entries.pop((id(parent), name), None) is not None:
            self.invalidations += 1

    def flush(self) -> None:
        """Drop every entry (mount table changed under this namespace)."""
        dropped = len(self.entries) + len(self.paths)
        self.entries.clear()
        self.paths.clear()
        self.invalidations += dropped
        self.flushes += 1

    def stats(self) -> dict[str, int]:
        """Current counter values plus the live entry count."""
        out = {field: getattr(self, field) for field in _COUNTER_FIELDS}
        out["entries"] = len(self.entries)
        out["path_entries"] = len(self.paths)
        return out

    def publish(self, counters: "PerfCounters", prefix: str = "dcache") -> None:
        """Push counter deltas since the last publish into ``counters``.

        Exposes hit/miss/invalidation counts through the same
        :class:`~repro.perf.counters.PerfCounters` registry the benchmarks
        report, without paying a counter update per path component on the
        hot path.
        """
        for field in _COUNTER_FIELDS:
            value = getattr(self, field)
            delta = value - self._published.get(field, 0)
            if delta:
                counters.add(f"{prefix}.{field}", delta)
            self._published[field] = value
