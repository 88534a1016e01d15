"""The VFS core: path resolution, permission checks, and operations.

This is the analogue of the Linux VFS layer the paper builds on: one
namespace-aware object tree under which any :class:`Filesystem` — tmpfs,
yancfs, a distributed-FS client — can be mounted, with uniform permissions,
ACLs, xattrs, symlinks, and notification.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.perf.counters import PerfCounters
from repro.vfs.cred import Credentials
from repro.vfs.errors import (
    BadFileDescriptor,
    CrossDevice,
    DeviceBusy,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotPermitted,
    PermissionDenied,
    ReadOnly,
    TooManyLinks,
)
from repro.vfs.inode import (
    DirInode,
    FileInode,
    Filesystem,
    Inode,
    SymlinkInode,
    bump_tree_epoch,
    require_dir,
    require_file,
    tree_epoch,
    validate_name,
)
from repro.vfs.memfs import MemFs
from repro.vfs.mount import MountEntry, MountNamespace
from repro.vfs.notify import EventMask, Inotify, NotifyHub
from repro.vfs.path import split_path
from repro.vfs.stat import MAY_EXEC, MAY_READ, MAY_WRITE, S_ISVTX, FileType, Stat

MAX_SYMLINK_DEPTH = 40

# open(2) flags.
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
_ACCMODE = 0o3


class FileHandle:
    """An open file description: inode, flags, offset."""

    def __init__(self, vfs: "VirtualFileSystem", inode: FileInode, flags: int, cred: Credentials) -> None:
        self._vfs = vfs
        self.inode = inode
        self.flags = flags
        self.cred = cred
        self.offset = 0
        self.closed = False

    @property
    def readable(self) -> bool:
        """True when the handle was opened for reading."""
        return self.flags & _ACCMODE in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        """True when the handle was opened for writing."""
        return self.flags & _ACCMODE in (O_WRONLY, O_RDWR)

    def _alive(self) -> None:
        if self.closed:
            raise BadFileDescriptor(detail="handle closed")

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes from the current offset (-1 = to EOF)."""
        self._alive()
        if not self.readable:
            raise BadFileDescriptor(detail="not open for reading")
        self._vfs.fanotify.check_access(self.inode, self.cred)
        if size < 0:
            size = max(0, self.inode.size - self.offset)
        data = self.inode.read(self.offset, size)
        self.offset += len(data)
        self.inode.fs.emit(self.inode, EventMask.IN_ACCESS)
        return data

    def pread(self, size: int, offset: int) -> bytes:
        """Positional read; does not move the handle offset."""
        self._alive()
        if not self.readable:
            raise BadFileDescriptor(detail="not open for reading")
        # Positional I/O must pass the same fanotify permission gate as
        # read(): FAN_ACCESS_PERM listeners see every byte access.
        self._vfs.fanotify.check_access(self.inode, self.cred)
        data = self.inode.read(offset, size)
        self.inode.fs.emit(self.inode, EventMask.IN_ACCESS)
        return data

    def write(self, data: bytes) -> int:
        """Write at the current offset (or at EOF with O_APPEND)."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        if self.inode.fs.readonly:
            raise ReadOnly(detail="read-only file system")
        if self.flags & O_APPEND:
            self.offset = self.inode.size
        written = self.inode.write(self.offset, bytes(data))
        self.offset += written
        return written

    def pwrite(self, data: bytes, offset: int) -> int:
        """Positional write; does not move the handle offset."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        if self.inode.fs.readonly:
            raise ReadOnly(detail="read-only file system")
        return self.inode.write(offset, bytes(data))

    def seek(self, offset: int) -> int:
        """Set the handle offset (absolute)."""
        self._alive()
        if offset < 0:
            raise InvalidArgument(detail="negative seek offset")
        self.offset = offset
        return offset

    def truncate(self, size: int = 0) -> None:
        """Truncate the open file."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        self.inode.truncate(size)

    def close(self) -> None:
        """Close; fires the attribute-apply hook for written-to files."""
        if self.closed:
            return
        self.closed = True
        if self.writable:
            self.inode.on_close_write(self.cred)
            self.inode.fs.emit(self.inode, EventMask.IN_CLOSE_WRITE)
        else:
            self.inode.fs.emit(self.inode, EventMask.IN_CLOSE_NOWRITE)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class VirtualFileSystem:
    """The kernel-side VFS: one of these per simulated host."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        counters: PerfCounters | None = None,
        root_fs: Filesystem | None = None,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.counters = counters or PerfCounters()
        self.hub = NotifyHub(self.counters)
        from repro.vfs.fanotify import FanotifyRegistry

        self.fanotify = FanotifyRegistry()
        self.root_fs = root_fs or MemFs(clock=self.clock)
        self.root_fs.hub = self.hub
        self.root_ns = MountNamespace(self.root_fs, name="init")
        # path string -> component tuple (see resolve()).
        self._parts_memo: dict[str, tuple[str, ...]] = {}

    # -- namespaces and mounts -------------------------------------------------

    def inotify(self, *, max_queued_events: int | None = None) -> Inotify:
        """Create a notification instance for an application."""
        return self.hub.instance(max_queued_events=max_queued_events)

    def mount(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        fs: Filesystem,
        *,
        root: DirInode | None = None,
        source: str = "",
    ) -> MountEntry:
        """Mount ``fs`` at ``path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(path, "mount requires root")
        mountpoint = require_dir(self._mountpoint_node(ns, cred, path), path)
        fs.hub = self.hub
        return ns.mount(mountpoint, fs, root=root, source=source)

    def _mountpoint_node(self, ns: MountNamespace, cred: Credentials, path: str) -> Inode:
        """Resolve ``path`` without crossing a mount at the final node."""
        parts = self._split(path)
        if not parts:
            return ns.root_entry.root
        node = self._parent_of(ns, cred, parts, path).lookup(parts[-1])
        if isinstance(node, SymlinkInode):
            return self.resolve(ns, cred, path)
        return node

    def bind_mount(self, ns: MountNamespace, cred: Credentials, source_path: str, target_path: str) -> MountEntry:
        """Bind ``source_path`` over ``target_path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(target_path, "mount requires root")
        subtree = require_dir(self.resolve(ns, cred, source_path), source_path)
        mountpoint = require_dir(self._mountpoint_node(ns, cred, target_path), target_path)
        return ns.bind(mountpoint, subtree, source=source_path)

    def umount(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Unmount whatever is mounted at ``path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(path, "umount requires root")
        node = self._mountpoint_node(ns, cred, path)
        ns.umount(node)

    # -- path resolution ---------------------------------------------------------

    def resolve(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        *,
        follow_last: bool = True,
    ) -> Inode:
        """Resolve ``path`` to an inode (symlinks followed; mounts crossed)."""
        parts = self._split(path)
        return self._last(ns, cred, self._memo_parent(ns, cred, parts, path), parts, follow_last, path)

    def resolve_parent(self, ns: MountNamespace, cred: Credentials, path: str) -> tuple[DirInode, str]:
        """Resolve the parent directory of ``path``; return (dir, last name)."""
        parts = self._split(path)
        if not parts:
            raise InvalidArgument(path, "operation on / is not allowed")
        return self._parent_of(ns, cred, parts, path), validate_name(parts[-1])

    def _split(self, path: str) -> tuple[str, ...]:
        # Tokenizing is pure string work, so memoize it; the tuple slices
        # into the directory memo's keys without a copy of the string.
        parts = self._parts_memo.get(path)
        if parts is None:
            parts = tuple(split_path(path))
            if len(self._parts_memo) >= 4096:
                self._parts_memo.clear()
            self._parts_memo[path] = parts
        return parts

    def _parent_of(self, ns: MountNamespace, cred: Credentials, parts: tuple[str, ...], path: str) -> DirInode:
        parent = self._memo_parent(ns, cred, parts, path)
        if parent is None:
            parent = require_dir(self._walk_path(ns, cred, parts[:-1], True, path), path)
        return parent

    def _memo_parent(
        self, ns: MountNamespace, cred: Credentials, parts: tuple[str, ...], path: str
    ) -> DirInode | None:
        """The memoized parent directory of ``parts``, or None for the full walk."""
        if not parts or parts[-1] == ".." or not ns.dcache.enabled:
            return None
        entry = self._memo_dir(ns, cred, parts[:-1], path)
        return None if entry is None else entry[3]

    def _last(
        self,
        ns: MountNamespace,
        cred: Credentials,
        parent: DirInode | None,
        parts: tuple[str, ...],
        follow_last: bool,
        path: str,
    ) -> Inode:
        """Finish a resolution: one live step from ``parent``, else the full walk."""
        if parent is not None:
            child = self._step(ns, cred, parent, parts[-1], path)
            if child is not None and not (follow_last and isinstance(child, SymlinkInode)):
                return child
        return self._walk_path(ns, cred, parts, follow_last, path)

    def _memo_dir(self, ns: MountNamespace, cred: Credentials, parts: tuple[str, ...], path: str) -> tuple | None:
        """Resolve directory ``parts`` through the namespace's directory memo.

        Returns the memo entry ``(epoch, deps, cred, dir)``, or None when
        the prefix holds a ``..``, a symlink or a non-cacheable file system
        and must take the full walk.  A miss resolves the parent prefix the
        same way (recursively) and takes one live step, so a new directory
        costs one step however deep it sits.
        """
        if not parts:
            return (0, (), cred, ns.root_entry.root)
        dcache = ns.dcache
        entry = dcache.paths.get(parts)
        if entry is not None and entry[2] is cred:
            epoch = tree_epoch()
            if entry[0] == epoch:
                dcache.path_hits += 1
                return entry
            for node, dgen, acl, uid, gid, mode in entry[1]:
                if node.dgen != dgen or node.acl is not acl or node.uid != uid or node.gid != gid or node.mode != mode:
                    del dcache.paths[parts]
                    dcache.invalidations += 1
                    break
            else:
                # Nothing this resolution depends on moved: re-stamp the
                # entry with the current epoch and serve it.
                entry = (epoch, entry[1], cred, entry[3])
                dcache.paths[parts] = entry
                dcache.path_hits += 1
                return entry
        dcache.path_misses += 1
        name = parts[-1]
        if name == "..":
            return None
        up = self._memo_dir(ns, cred, parts[:-1], path)
        if up is None:
            return None
        parent = up[3]
        dep = (parent, parent.dgen, parent.acl, parent.uid, parent.gid, parent.mode)
        child = self._step(ns, cred, parent, name, path)
        if child is None or isinstance(child, SymlinkInode):
            return None
        return dcache.store_path(parts, tree_epoch(), (*up[1], dep), cred, require_dir(child, path))

    def _step(self, ns: MountNamespace, cred: Credentials, parent: DirInode, name: str, path: str) -> Inode | None:
        """Look ``name`` up in ``parent``: the live last-component step.

        MAY_EXEC is checked on the live ``parent`` every time; only the
        lookup is served from the component cache.  The child comes back
        on the far side of any mount.  Returns None when ``parent`` is on a
        non-cacheable file system, whose paths take the full walk.
        """
        if not parent.fs.cacheable:
            return None
        if parent.acl is not None or not cred.is_root:
            self.check_access(parent, cred, MAY_EXEC, path)
        dcache = ns.dcache
        key = (id(parent), name)
        entry = dcache.entries.get(key)
        if entry is not None and entry[0] is parent:
            if entry[1] == parent.dgen:
                child = entry[2]
                if child is None:
                    dcache.neg_hits += 1
                    raise FileNotFound(name)
                dcache.hits += 1
                return child
            del dcache.entries[key]
            dcache.invalidations += 1
        dcache.misses += 1
        try:
            child = parent.lookup(name)
        except FileNotFound:
            dcache.store(parent, name, None)
            raise
        if isinstance(child, SymlinkInode):
            # Never cached: whether a symlink is followed depends on its
            # position and follow_last, which the key cannot express.
            return child
        mount = ns.mount_at(child)
        while mount is not None:  # cross stacked mounts to the topmost root
            child = mount.root
            mount = ns.mount_at(child)
        dcache.store(parent, name, child)
        return child

    def _walk_path(
        self, ns: MountNamespace, cred: Credentials, parts: tuple[str, ...], follow_last: bool, path: str
    ) -> Inode:
        """The full walk from the namespace root, with no cache involved."""
        stack: list[Inode] = [ns.root_entry.root]
        self._walk(ns, cred, stack, parts, follow_last, [MAX_SYMLINK_DEPTH], path)
        return stack[-1]

    def _walk(
        self,
        ns: MountNamespace,
        cred: Credentials,
        stack: list[Inode],
        parts: tuple[str, ...] | list[str],
        follow_last: bool,
        budget: list[int],
        full_path: str,
    ) -> None:
        for index, part in enumerate(parts):
            is_last = index == len(parts) - 1
            cur_dir = require_dir(stack[-1], full_path)
            self.check_access(cur_dir, cred, MAY_EXEC, full_path)
            if part == "..":
                if len(stack) > 1:
                    stack.pop()
                continue
            child = cur_dir.lookup(part)
            if isinstance(child, SymlinkInode) and (not is_last or follow_last):
                budget[0] -= 1
                if budget[0] < 0:
                    raise TooManyLinks(full_path, "too many levels of symbolic links")
                target_parts = [p for p in child.target.split("/") if p and p != "."]
                if child.target.startswith("/"):
                    del stack[1:]
                self._walk(ns, cred, stack, target_parts, True, budget, full_path)
                continue
            mount = ns.mount_at(child)
            while mount is not None:  # cross stacked mounts to the topmost root
                child = mount.root
                mount = ns.mount_at(child)
            stack.append(child)

    # -- permissions ---------------------------------------------------------------

    def check_access(self, inode: Inode, cred: Credentials, want: int, path: str = "") -> None:
        """Raise PermissionDenied unless ``cred`` may access ``inode``."""
        if inode.acl is not None:
            if not inode.acl.check(cred, inode.uid, inode.gid, want):
                raise PermissionDenied(path, "ACL forbids access")
            return
        if cred.is_root:
            return
        if cred.uid == inode.uid:
            bits = inode.mode >> 6
        elif cred.in_group(inode.gid):
            bits = inode.mode >> 3
        else:
            bits = inode.mode
        if bits & 7 & want != want:
            raise PermissionDenied(path)

    def _check_write_dir(self, parent: DirInode, cred: Credentials, path: str) -> None:
        if parent.fs.readonly:
            raise ReadOnly(path, "read-only file system")
        self.check_access(parent, cred, MAY_WRITE | MAY_EXEC, path)

    def _check_sticky(self, parent: DirInode, node: Inode, cred: Credentials, path: str) -> None:
        if parent.mode & S_ISVTX and not cred.is_root and cred.uid not in (node.uid, parent.uid):
            raise NotPermitted(path, "sticky directory")

    # -- directory operations -----------------------------------------------------

    def mkdir(self, ns: MountNamespace, cred: Credentials, path: str, mode: int = 0o755) -> DirInode:
        """Create a directory (semantic file systems may auto-populate it)."""
        parent, name = self.resolve_parent(ns, cred, path)
        if parent.has_child(name):
            raise FileExists(path)
        self._check_write_dir(parent, cred, path)
        parent.may_create(name, FileType.DIRECTORY, cred)
        node = parent.child_factory(name, FileType.DIRECTORY, cred)
        node.mode = mode & 0o7777
        node.uid, node.gid = cred.uid, cred.gid
        parent.attach(name, node)
        return require_dir(node, path)

    def rmdir(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Remove a directory.

        Plain directories must be empty (ENOTEMPTY); yanc object
        directories opt in to recursive removal (paper section 3.2).
        """
        parent, name = self.resolve_parent(ns, cred, path)
        node = parent.lookup(name)
        target = require_dir(node, path)
        if ns.mount_at(node) is not None:
            raise DeviceBusy(path, "is a mountpoint")
        self._check_write_dir(parent, cred, path)
        self._check_sticky(parent, node, cred, path)
        parent.may_remove(name, node, cred)
        if not target.is_empty():
            if not target.recursive_rmdir_ok():
                raise DirectoryNotEmpty(path)
            self._remove_subtree(target)
        parent.detach(name)

    def _remove_subtree(self, node: DirInode) -> None:
        for name, child in list(node.children()):
            if isinstance(child, DirInode):
                self._remove_subtree(child)
            node.detach(name)

    def readdir(self, ns: MountNamespace, cred: Credentials, path: str) -> list[str]:
        """List directory entries (requires read permission)."""
        node = require_dir(self.resolve(ns, cred, path), path)
        self.check_access(node, cred, MAY_READ, path)
        return node.names()

    def scandir(self, ns: MountNamespace, cred: Credentials, path: str) -> list[tuple[str, Stat]]:
        """readdir + per-entry lstat metadata, resolving the directory once.

        Entries that are mountpoints report the mounted root's stat (as
        ``walk`` does); symlinks report their own stat (lstat semantics).
        """
        node = require_dir(self.resolve(ns, cred, path), path)
        self.check_access(node, cred, MAY_READ, path)
        out: list[tuple[str, Stat]] = []
        for name, child in node.children():
            mount = ns.mount_at(child)
            target = mount.root if mount is not None else child
            out.append((name, target.stat()))
        return out

    # -- file operations ---------------------------------------------------------

    def open(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        flags: int = O_RDONLY,
        mode: int = 0o644,
    ) -> FileHandle:
        """Open (optionally creating) a regular file."""
        created = False
        parts = self._split(path)
        parent = self._memo_parent(ns, cred, parts, path)
        try:
            node = self._last(ns, cred, parent, parts, True, path)
        except FileNotFound:
            if not flags & O_CREAT:
                raise
            # Create under the parent the lookup already resolved.
            if parent is None:
                parent, name = self.resolve_parent(ns, cred, path)
            else:
                name = validate_name(parts[-1])
            if parent.has_child(name):
                # The final component resolved to a dangling symlink.
                raise FileExists(path, "dangling symlink in the way")
            self._check_write_dir(parent, cred, path)
            parent.may_create(name, FileType.REGULAR, cred)
            node = parent.child_factory(name, FileType.REGULAR, cred)
            node.mode = mode & 0o7777
            node.uid, node.gid = cred.uid, cred.gid
            parent.attach(name, node)
            created = True
        else:
            if flags & O_CREAT and flags & O_EXCL:
                raise FileExists(path)
        inode = require_file(node, path)
        accmode = flags & _ACCMODE
        if not created:
            if accmode in (O_RDONLY, O_RDWR):
                self.check_access(inode, cred, MAY_READ, path)
            if accmode in (O_WRONLY, O_RDWR):
                self.check_access(inode, cred, MAY_WRITE, path)
        if accmode in (O_WRONLY, O_RDWR) and inode.fs.readonly:
            raise ReadOnly(path, "read-only file system")
        # fanotify permission events: a listener may veto this open (§5.2)
        self.fanotify.check_open(inode, cred, writable=accmode in (O_WRONLY, O_RDWR))
        inode.fs.emit(inode, EventMask.IN_OPEN)
        if flags & O_TRUNC and accmode in (O_WRONLY, O_RDWR) and not created:
            inode.truncate(0)
        return FileHandle(self, inode, flags, cred)

    def read_file(self, ns: MountNamespace, cred: Credentials, path: str) -> bytes:
        """Convenience: open-read-close."""
        with self.open(ns, cred, path, O_RDONLY) as handle:
            return handle.read()

    def write_file(self, ns: MountNamespace, cred: Credentials, path: str, data: bytes, *, append: bool = False) -> int:
        """Convenience: open-write-close (creating or truncating)."""
        flags = O_WRONLY | O_CREAT | (O_APPEND if append else O_TRUNC)
        with self.open(ns, cred, path, flags) as handle:
            return handle.write(data)

    def truncate(self, ns: MountNamespace, cred: Credentials, path: str, size: int) -> None:
        """Truncate by path."""
        inode = require_file(self.resolve(ns, cred, path), path)
        self.check_access(inode, cred, MAY_WRITE, path)
        if inode.fs.readonly:
            raise ReadOnly(path)
        inode.truncate(size)

    def unlink(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Remove a non-directory."""
        parent, name = self.resolve_parent(ns, cred, path)
        node = parent.lookup(name)
        if isinstance(node, DirInode):
            raise IsADirectory(path)
        self._check_write_dir(parent, cred, path)
        self._check_sticky(parent, node, cred, path)
        parent.may_remove(name, node, cred)
        parent.detach(name)

    # -- links -------------------------------------------------------------------

    def symlink(self, ns: MountNamespace, cred: Credentials, target: str, linkpath: str) -> SymlinkInode:
        """Create a symbolic link at ``linkpath`` pointing to ``target``."""
        parent, name = self.resolve_parent(ns, cred, linkpath)
        if parent.has_child(name):
            raise FileExists(linkpath)
        self._check_write_dir(parent, cred, linkpath)
        parent.may_create(name, FileType.SYMLINK, cred)
        node = parent.fs.make_symlink(target, uid=cred.uid, gid=cred.gid)
        parent.attach(name, node)
        return node

    def readlink(self, ns: MountNamespace, cred: Credentials, path: str) -> str:
        """Read a symlink's target."""
        node = self.resolve(ns, cred, path, follow_last=False)
        if not isinstance(node, SymlinkInode):
            raise InvalidArgument(path, "not a symlink")
        return node.target

    def link(self, ns: MountNamespace, cred: Credentials, oldpath: str, newpath: str) -> None:
        """Create a hard link (non-directories, same file system)."""
        node = self.resolve(ns, cred, oldpath)
        if isinstance(node, DirInode):
            raise NotPermitted(oldpath, "cannot hard-link directories")
        parent, name = self.resolve_parent(ns, cred, newpath)
        if node.fs is not parent.fs:
            raise CrossDevice(newpath)
        if parent.has_child(name):
            raise FileExists(newpath)
        self._check_write_dir(parent, cred, newpath)
        parent.may_create(name, node.ftype, cred)
        parent.attach(name, node)

    # -- rename --------------------------------------------------------------------

    def rename(self, ns: MountNamespace, cred: Credentials, oldpath: str, newpath: str) -> None:
        """POSIX rename, with IN_MOVED_FROM/IN_MOVED_TO event pairing."""
        old_parent, old_name = self.resolve_parent(ns, cred, oldpath)
        new_parent, new_name = self.resolve_parent(ns, cred, newpath)
        node = old_parent.lookup(old_name)
        if node.fs is not new_parent.fs:
            raise CrossDevice(newpath, "rename across file systems")
        if ns.mount_at(node) is not None:
            raise DeviceBusy(oldpath, "is a mountpoint")
        if old_parent is new_parent and old_name == new_name:
            return
        if isinstance(node, DirInode) and self._is_same_or_descendant(new_parent, node):
            raise InvalidArgument(newpath, "cannot move a directory into itself")
        self._check_write_dir(old_parent, cred, oldpath)
        self._check_write_dir(new_parent, cred, newpath)
        self._check_sticky(old_parent, node, cred, oldpath)
        old_parent.may_rename_from(old_name, node, cred)
        new_parent.may_rename_into(new_name, node, cred)
        if new_parent.has_child(new_name):
            existing = new_parent.lookup(new_name)
            if existing is node:
                return
            if isinstance(existing, DirInode):
                if not isinstance(node, DirInode):
                    raise IsADirectory(newpath)
                if not existing.is_empty():
                    raise DirectoryNotEmpty(newpath)
            elif isinstance(node, DirInode):
                raise NotADirectory(newpath)
            self._check_sticky(new_parent, existing, cred, newpath)
            new_parent.may_remove(new_name, existing, cred)
            new_parent.detach(new_name)
        cookie = self.hub.next_cookie()
        old_parent.detach(old_name, emit_mask=int(EventMask.IN_MOVED_FROM), cookie=cookie)
        new_parent.attach(new_name, node, emit_mask=int(EventMask.IN_MOVED_TO), cookie=cookie)
        node.fs.emit(node, EventMask.IN_MOVE_SELF)

    @staticmethod
    def _is_same_or_descendant(candidate: DirInode, ancestor: DirInode) -> bool:
        seen = set()
        node: Inode = candidate
        while True:
            if node is ancestor:
                return True
            if id(node) in seen or not node.dentries:
                return False
            seen.add(id(node))
            node = next(iter(node.dentries))[0]

    # -- metadata ------------------------------------------------------------------

    def stat(self, ns: MountNamespace, cred: Credentials, path: str) -> Stat:
        """stat(2): follows symlinks."""
        return self.resolve(ns, cred, path).stat()

    def lstat(self, ns: MountNamespace, cred: Credentials, path: str) -> Stat:
        """lstat(2): does not follow a final symlink."""
        return self.resolve(ns, cred, path, follow_last=False).stat()

    def exists(self, ns: MountNamespace, cred: Credentials, path: str) -> bool:
        """True when ``path`` resolves."""
        try:
            self.resolve(ns, cred, path)
        except (FileNotFound, NotADirectory):
            return False
        return True

    def chmod(self, ns: MountNamespace, cred: Credentials, path: str, mode: int) -> None:
        """Change permission bits (owner or root)."""
        node = self.resolve(ns, cred, path)
        if not cred.is_root and cred.uid != node.uid:
            raise NotPermitted(path, "chmod by non-owner")
        node.mode = mode & 0o7777
        bump_tree_epoch()  # mode bits gate MAY_EXEC; wake the directory memo
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def chown(self, ns: MountNamespace, cred: Credentials, path: str, uid: int, gid: int) -> None:
        """Change ownership (root; owners may change group to one of theirs)."""
        node = self.resolve(ns, cred, path)
        if cred.is_root:
            node.uid, node.gid = uid, gid
        elif cred.uid == node.uid and uid == node.uid and cred.in_group(gid):
            node.gid = gid
        else:
            raise NotPermitted(path, "chown requires root")
        bump_tree_epoch()  # ownership feeds ACL checks; wake the directory memo
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def set_acl(self, ns: MountNamespace, cred: Credentials, path: str, acl) -> None:
        """Attach a POSIX ACL (owner or root)."""
        node = self.resolve(ns, cred, path)
        if not cred.is_root and cred.uid != node.uid:
            raise NotPermitted(path, "setfacl by non-owner")
        node.acl = acl
        bump_tree_epoch()  # ACL rebound; directory-memo entries must revalidate
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    # -- extended attributes ----------------------------------------------------------

    def setxattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str, value: bytes) -> None:
        """Set an extended attribute (needs write access)."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_WRITE, path)
        node.set_xattr(name, value)
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def getxattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str) -> bytes:
        """Get an extended attribute (needs read access)."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_READ, path)
        return node.get_xattr(name)

    def listxattr(self, ns: MountNamespace, cred: Credentials, path: str) -> list[str]:
        """List extended attribute names."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_READ, path)
        return node.list_xattrs()

    def removexattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str) -> None:
        """Remove an extended attribute."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_WRITE, path)
        node.remove_xattr(name)
        node.fs.emit(node, EventMask.IN_ATTRIB)

    # -- traversal helpers -------------------------------------------------------------

    def walk(self, ns: MountNamespace, cred: Credentials, path: str) -> Iterator[tuple[str, list[str], list[str]]]:
        """os.walk-style traversal yielding (dirpath, dirnames, filenames)."""
        node = require_dir(self.resolve(ns, cred, path), path)
        base = "/" + "/".join(split_path(path))
        stack: list[tuple[str, DirInode]] = [(base, node)]
        while stack:
            dirpath, dirnode = stack.pop(0)
            dirnames, filenames = [], []
            for name, child in dirnode.children():
                mount = ns.mount_at(child)
                target = mount.root if mount is not None else child
                if isinstance(target, DirInode):
                    dirnames.append(name)
                    child_path = dirpath.rstrip("/") + "/" + name
                    stack.append((child_path, target))
                else:
                    filenames.append(name)
            yield dirpath, dirnames, filenames
