"""POSIX-style access control lists.

Section 5.1 of the paper points at the VFS layer's "basic Unix permissions,
access control lists (ACLs), and extended attributes" as the mechanism for
fine-grained control of network resources.  This module implements the
POSIX.1e access-check algorithm (simplified: no default/inherited ACLs):

1. root is always allowed;
2. a ``user::`` / ``USER_OBJ`` entry applies to the owner;
3. a named ``user:<uid>`` entry applies to that uid (masked);
4. the owning group / named groups apply if any grants the bits (masked);
5. ``other::`` applies to everyone else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.vfs.cred import Credentials
from repro.vfs.errors import InvalidArgument


class AclTag(enum.Enum):
    """The POSIX.1e entry tags we support."""

    USER_OBJ = "user_obj"  # the owning user (user::)
    USER = "user"  # a named user (user:<uid>:)
    GROUP_OBJ = "group_obj"  # the owning group (group::)
    GROUP = "group"  # a named group (group:<gid>:)
    MASK = "mask"  # upper bound for named users and all groups
    OTHER = "other"  # everyone else


@dataclass(frozen=True)
class AclEntry:
    """One ACL entry: a tag, an optional qualifier, and rwx permission bits."""

    tag: AclTag
    perms: int
    qualifier: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.perms <= 7:
            raise InvalidArgument(detail=f"ACL perms must be 0..7, got {self.perms}")
        needs_qualifier = self.tag in (AclTag.USER, AclTag.GROUP)
        if needs_qualifier and self.qualifier is None:
            raise InvalidArgument(detail=f"{self.tag.value} entry requires a qualifier")
        if not needs_qualifier and self.qualifier is not None:
            raise InvalidArgument(detail=f"{self.tag.value} entry takes no qualifier")


#: Decision-memo bound per ACL; a full memo is dropped and refilled.
_DECISIONS_MAX = 1024


@dataclass(frozen=True)
class Acl:
    """An ordered set of ACL entries.

    Both the ACL and :class:`~repro.vfs.cred.Credentials` are frozen, so a
    decision is a pure function of ``(cred, owner_uid, owner_gid, want)``
    and :meth:`check` memoizes it per ACL object.  Permission changes
    rebind a new ACL on the inode, so they never meet a stale decision.
    """

    entries: tuple[AclEntry, ...]
    _decisions: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    @classmethod
    def from_mode(cls, mode: int) -> "Acl":
        """The minimal ACL equivalent to plain mode bits."""
        return cls(
            entries=(
                AclEntry(AclTag.USER_OBJ, mode >> 6 & 7),
                AclEntry(AclTag.GROUP_OBJ, mode >> 3 & 7),
                AclEntry(AclTag.OTHER, mode & 7),
            )
        )

    def _mask(self) -> int:
        for entry in self.entries:
            if entry.tag is AclTag.MASK:
                return entry.perms
        return 7

    def check(self, cred: Credentials, owner_uid: int, owner_gid: int, want: int) -> bool:
        """POSIX.1e access check: does ``cred`` get all bits in ``want``?"""
        if cred.is_root:
            return True
        # Keyed by identity; the value pins ``cred`` so its id stays unique.
        key = (id(cred), owner_uid, owner_gid, want)
        decision = self._decisions.get(key)
        if decision is not None and decision[0] is cred:
            return decision[1]
        if len(self._decisions) >= _DECISIONS_MAX:
            self._decisions.clear()
        allowed = self._decide(cred, owner_uid, owner_gid, want)
        self._decisions[key] = (cred, allowed)
        return allowed

    def _decide(self, cred: Credentials, owner_uid: int, owner_gid: int, want: int) -> bool:
        mask = self._mask()
        # 1. owning user.
        if cred.uid == owner_uid:
            for entry in self.entries:
                if entry.tag is AclTag.USER_OBJ:
                    return entry.perms & want == want
            return False
        # 2. named user (masked).
        for entry in self.entries:
            if entry.tag is AclTag.USER and entry.qualifier == cred.uid:
                return entry.perms & mask & want == want
        # 3. owning group + named groups: allowed if any matching entry grants.
        group_matched = False
        for entry in self.entries:
            if entry.tag is AclTag.GROUP_OBJ and cred.in_group(owner_gid):
                group_matched = True
                if entry.perms & mask & want == want:
                    return True
            elif entry.tag is AclTag.GROUP and entry.qualifier is not None and cred.in_group(entry.qualifier):
                group_matched = True
                if entry.perms & mask & want == want:
                    return True
        if group_matched:
            return False
        # 4. other.
        for entry in self.entries:
            if entry.tag is AclTag.OTHER:
                return entry.perms & want == want
        return False

    def to_text(self) -> str:
        """Render in getfacl-like short text (``u::rwx,g:100:r-x,...``)."""
        parts = []
        for entry in self.entries:
            tag = {
                AclTag.USER_OBJ: "u:",
                AclTag.USER: f"u:{entry.qualifier}:",
                AclTag.GROUP_OBJ: "g:",
                AclTag.GROUP: f"g:{entry.qualifier}:",
                AclTag.MASK: "m:",
                AclTag.OTHER: "o:",
            }[entry.tag]
            rwx = ("r" if entry.perms & 4 else "-") + ("w" if entry.perms & 2 else "-") + ("x" if entry.perms & 1 else "-")
            parts.append(tag + rwx)
        return ",".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Acl":
        """Parse the format produced by :meth:`to_text`."""
        entries = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) == 2:
                kind, rwx = fields
                qualifier = None
            elif len(fields) == 3:
                kind, qual_text, rwx = fields
                qualifier = int(qual_text) if qual_text else None
            else:
                raise InvalidArgument(detail=f"malformed ACL entry: {part!r}")
            perms = 0
            for ch in rwx:
                if ch == "r":
                    perms |= 4
                elif ch == "w":
                    perms |= 2
                elif ch == "x":
                    perms |= 1
                elif ch != "-":
                    raise InvalidArgument(detail=f"bad permission char {ch!r} in {part!r}")
            tag = {
                ("u", True): AclTag.USER,
                ("u", False): AclTag.USER_OBJ,
                ("g", True): AclTag.GROUP,
                ("g", False): AclTag.GROUP_OBJ,
                ("m", False): AclTag.MASK,
                ("o", False): AclTag.OTHER,
            }.get((kind, qualifier is not None))
            if tag is None:
                raise InvalidArgument(detail=f"malformed ACL entry: {part!r}")
            entries.append(AclEntry(tag, perms, qualifier))
        return cls(entries=tuple(entries))
