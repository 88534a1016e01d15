"""POSIX ACLs and extended attributes (paper section 5.1)."""

import pytest

from repro.vfs import (
    Acl,
    AclEntry,
    AclTag,
    Credentials,
    InvalidArgument,
    NoData,
    PermissionDenied,
    Syscalls,
)

ALICE = Credentials(uid=1000, gid=1000)
BOB = Credentials(uid=1001, gid=1001)
CHARLIE = Credentials(uid=1002, gid=1002)


def test_acl_from_mode_matches_mode_bits():
    acl = Acl.from_mode(0o640)
    assert acl.check(ALICE, 1000, 1000, 4)
    assert acl.check(ALICE, 1000, 1000, 6)
    assert not acl.check(BOB, 1000, 1000, 4)


def test_named_user_entry_grants(vfs, sc):
    sc.write_text("/f", "x")
    sc.chown("/f", ALICE.uid, ALICE.gid)
    sc.chmod("/f", 0o600)
    bob = Syscalls(vfs, cred=BOB)
    with pytest.raises(PermissionDenied):
        bob.read_text("/f")
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 6),
            AclEntry(AclTag.USER, 4, qualifier=BOB.uid),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    sc.set_acl("/f", acl)
    assert bob.read_text("/f") == "x"
    charlie = Syscalls(vfs, cred=CHARLIE)
    with pytest.raises(PermissionDenied):
        charlie.read_text("/f")


def test_mask_caps_named_entries():
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.USER, 7, qualifier=BOB.uid),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.MASK, 4),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(BOB, ALICE.uid, ALICE.gid, 4)
    assert not acl.check(BOB, ALICE.uid, ALICE.gid, 2)


def test_mask_does_not_cap_owner():
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.MASK, 0),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(ALICE, ALICE.uid, ALICE.gid, 7)


def test_group_entries_any_match_grants():
    member = Credentials(uid=50, gid=10, groups=frozenset({20}))
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.GROUP, 0, qualifier=10),
            AclEntry(AclTag.GROUP, 4, qualifier=20),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(member, 0, 10, 4)


def test_group_match_blocks_other_fallback():
    member = Credentials(uid=50, gid=10)
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.OTHER, 7),
        )
    )
    # gid matches the owning group, which denies; "other" must not rescue.
    assert not acl.check(member, 0, 10, 4)


def test_root_always_passes_acl():
    acl = Acl(entries=(AclEntry(AclTag.USER_OBJ, 0), AclEntry(AclTag.OTHER, 0)))
    assert acl.check(Credentials(uid=0, gid=0), 1, 1, 7)


def test_acl_decisions_are_memoized_per_principal():
    acl = Acl.from_mode(0o750)
    assert acl.check(ALICE, 1000, 1000, 7)
    assert not acl.check(BOB, 1000, 1000, 1)
    assert len(acl._decisions) == 2
    for _ in range(3):  # repeats are served from the memo, same answers
        assert acl.check(ALICE, 1000, 1000, 7)
        assert not acl.check(BOB, 1000, 1000, 1)
    assert len(acl._decisions) == 2
    # the owner and the wanted bits are part of the key
    assert not acl.check(ALICE, 1001, 1001, 7)
    assert acl.check(ALICE, 1001, 1000, 5)
    assert not acl.check(ALICE, 1001, 1000, 2)
    assert len(acl._decisions) == 5


def test_acl_decision_memo_skips_root_and_is_bounded():
    acl = Acl.from_mode(0o000)
    assert acl.check(Credentials(uid=0, gid=0), 1, 1, 7)
    assert acl._decisions == {}
    for uid in range(1, 3000):
        assert not acl.check(Credentials(uid=uid, gid=uid), 0, 0, 4)
    assert 0 < len(acl._decisions) <= 1024


def test_acl_equality_ignores_the_decision_memo():
    warm = Acl.from_mode(0o750)
    warm.check(ALICE, 1000, 1000, 7)
    cold = Acl.from_mode(0o750)
    assert warm == cold
    assert hash(warm) == hash(cold)


def test_acl_text_roundtrip():
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.USER, 5, qualifier=1001),
            AclEntry(AclTag.GROUP_OBJ, 4),
            AclEntry(AclTag.MASK, 5),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert Acl.from_text(acl.to_text()) == acl


def test_acl_entry_validation():
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.USER, 4)  # missing qualifier
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.OTHER, 4, qualifier=5)  # spurious qualifier
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.OTHER, 9)  # bad perms


def test_setfacl_requires_ownership(vfs, sc):
    sc.write_text("/f", "x")
    bob = Syscalls(vfs, cred=BOB)
    from repro.vfs import NotPermitted

    with pytest.raises(NotPermitted):
        bob.set_acl("/f", Acl.from_mode(0o777))


# -- xattrs ---------------------------------------------------------------------------


def test_xattr_set_get_list_remove(sc):
    sc.write_text("/f", "x")
    sc.setxattr("/f", "user.consistency", b"strict")
    sc.setxattr("/f", "user.owner-team", b"neteng")
    assert sc.getxattr("/f", "user.consistency") == b"strict"
    assert sc.listxattr("/f") == ["user.consistency", "user.owner-team"]
    sc.removexattr("/f", "user.consistency")
    assert sc.listxattr("/f") == ["user.owner-team"]


def test_getxattr_missing_raises_nodata(sc):
    sc.write_text("/f", "x")
    with pytest.raises(NoData):
        sc.getxattr("/f", "user.absent")


def test_removexattr_missing_raises_nodata(sc):
    sc.write_text("/f", "x")
    with pytest.raises(NoData):
        sc.removexattr("/f", "user.absent")


def test_xattr_needs_write_access(vfs, sc):
    sc.write_text("/f", "x")
    sc.chmod("/f", 0o644)
    bob = Syscalls(vfs, cred=BOB)
    with pytest.raises(PermissionDenied):
        bob.setxattr("/f", "user.sneak", b"1")
    assert bob.listxattr("/f") == []


def test_xattr_on_directories(sc):
    sc.mkdir("/d")
    sc.setxattr("/d", "user.view", b"gold")
    assert sc.getxattr("/d", "user.view") == b"gold"
