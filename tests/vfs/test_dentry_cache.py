"""The dentry cache: hits, negative entries, and every invalidation edge.

Each mutation that can strand a cached translation — rename, unlink,
rmdir, mount, umount, symlink retargeting, permission changes — gets a
test proving the next resolution sees the post-mutation truth, plus
checks that the hit/miss/invalidation counters and the PerfCounters
bridge behave.
"""

import pytest

from repro.vfs import (
    Acl,
    Credentials,
    FileNotFound,
    MemFs,
    PermissionDenied,
    Syscalls,
    VirtualFileSystem,
)
from repro.vfs.inode import require_dir


def _dir(sc, path):
    return require_dir(sc.vfs.resolve(sc.ns, sc.cred, path))


# -- basic caching behavior ---------------------------------------------------


def test_repeat_resolution_hits_the_cache(sc):
    sc.makedirs("/net/switches/s1")
    sc.write_text("/net/switches/s1/ports", "4")
    assert sc.read_text("/net/switches/s1/ports") == "4"
    before = sc.ns.dcache.stats()
    for _ in range(3):
        assert sc.read_text("/net/switches/s1/ports") == "4"
    after = sc.ns.dcache.stats()
    assert after["path_hits"] > before["path_hits"]
    assert after["invalidations"] == before["invalidations"]


def test_component_entries_shared_across_sibling_paths(sc):
    sc.makedirs("/a/b")
    sc.write_text("/a/b/one", "1")
    sc.write_text("/a/b/two", "2")
    assert sc.read_text("/a/b/one") == "1"
    before = sc.ns.dcache.stats()
    # a different leaf under the same prefix re-uses the memoized /a/b
    assert sc.read_text("/a/b/two") == "2"
    after = sc.ns.dcache.stats()
    assert after["path_hits"] > before["path_hits"]
    assert after["path_misses"] == before["path_misses"]


def test_lookup_twin_reports_live_entries(sc):
    sc.mkdir("/d")
    sc.write_text("/d/f", "x")
    sc.stat("/d/f")
    root = _dir(sc, "/")
    d = _dir(sc, "/d")
    assert sc.ns.dcache.lookup(root, "d") is not None
    assert sc.ns.dcache.lookup(d, "f") is not None
    assert sc.ns.dcache.lookup(d, "missing") is None


def test_cache_disabled_still_resolves(sc):
    sc.ns.dcache.enabled = False
    sc.makedirs("/x/y")
    sc.write_text("/x/y/f", "plain")
    assert sc.read_text("/x/y/f") == "plain"
    assert sc.ns.dcache.stats()["entries"] == 0
    assert sc.ns.dcache.stats()["path_entries"] == 0
    assert sc.ns.dcache.hits == 0 and sc.ns.dcache.path_hits == 0


# -- invalidation edges -------------------------------------------------------


def test_rename_over_a_cached_entry(sc):
    sc.mkdir("/etc")
    sc.write_text("/etc/conf", "old")
    sc.write_text("/etc/conf.new", "new")
    assert sc.read_text("/etc/conf") == "old"  # now cached
    sc.rename("/etc/conf.new", "/etc/conf")
    assert sc.read_text("/etc/conf") == "new"


def test_rename_away_kills_the_old_name(sc):
    sc.mkdir("/d")
    sc.write_text("/d/f", "x")
    sc.stat("/d/f")
    sc.rename("/d/f", "/d/g")
    with pytest.raises(FileNotFound):
        sc.stat("/d/f")
    assert sc.read_text("/d/g") == "x"


def test_renamed_directory_invalidates_cached_descendants(sc):
    sc.makedirs("/a/b/c")
    sc.write_text("/a/b/c/f", "deep")
    assert sc.read_text("/a/b/c/f") == "deep"  # whole chain cached
    sc.rename("/a/b", "/a/z")
    with pytest.raises(FileNotFound):
        sc.stat("/a/b/c/f")
    assert sc.read_text("/a/z/c/f") == "deep"


def test_unlink_invalidates(sc):
    sc.write_text("/gone", "x")
    sc.stat("/gone")
    sc.unlink("/gone")
    with pytest.raises(FileNotFound):
        sc.stat("/gone")


def test_rmdir_invalidates(sc):
    sc.mkdir("/tmpdir")
    sc.stat("/tmpdir")
    sc.rmdir("/tmpdir")
    with pytest.raises(FileNotFound):
        sc.stat("/tmpdir")


def test_mount_over_a_cached_entry(sc):
    sc.mkdir("/m")
    sc.write_text("/m/under", "below")
    assert sc.read_text("/m/under") == "below"  # /m cached as the rootfs dir
    sc.mount("/m", MemFs())
    with pytest.raises(FileNotFound):
        sc.read_text("/m/under")


def test_umount_under_a_cached_prefix(sc):
    sc.mkdir("/m")
    sc.write_text("/m/under", "below")
    extra = MemFs()
    sc.mount("/m", extra)
    sc.write_text("/m/f", "on extra")
    assert sc.read_text("/m/f") == "on extra"  # cached across the crossing
    flushes = sc.ns.dcache.flushes
    sc.umount("/m")
    assert sc.ns.dcache.flushes == flushes + 1
    with pytest.raises(FileNotFound):
        sc.read_text("/m/f")
    assert sc.read_text("/m/under") == "below"


def test_symlink_retarget_is_seen(sc):
    sc.makedirs("/v1")
    sc.makedirs("/v2")
    sc.write_text("/v1/data", "one")
    sc.write_text("/v2/data", "two")
    sc.symlink("/v1", "/current")
    assert sc.read_text("/current/data") == "one"
    sc.unlink("/current")
    sc.symlink("/v2", "/current")
    assert sc.read_text("/current/data") == "two"


def test_negative_entry_then_create(sc):
    sc.mkdir("/spool")
    with pytest.raises(FileNotFound):
        sc.stat("/spool/job")
    neg = sc.ns.dcache.neg_hits
    with pytest.raises(FileNotFound):
        sc.stat("/spool/job")  # served by the negative entry
    assert sc.ns.dcache.neg_hits == neg + 1
    sc.write_text("/spool/job", "queued")
    assert sc.read_text("/spool/job") == "queued"


def test_acl_change_on_intermediate_dir_is_enforced(vfs, sc):
    sc.makedirs("/p/q")
    sc.write_text("/p/q/f", "secret")
    user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    assert user.read_text("/p/q/f") == "secret"
    assert user.read_text("/p/q/f") == "secret"  # memoized under user's cred
    sc.set_acl("/p", Acl.from_mode(0o700))  # root-only from now on
    with pytest.raises(PermissionDenied):
        user.stat("/p/q/f")
    assert sc.read_text("/p/q/f") == "secret"  # root still passes


def test_chmod_on_intermediate_dir_is_enforced(vfs, sc):
    sc.makedirs("/a/b")
    sc.write_text("/a/b/f", "secret")
    user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    assert user.read_text("/a/b/f") == "secret"
    assert user.read_text("/a/b/f") == "secret"  # memoized under user's cred
    sc.chmod("/a", 0o700)  # root-only from now on
    with pytest.raises(PermissionDenied):
        user.read_text("/a/b/f")
    fresh = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    with pytest.raises(PermissionDenied):
        fresh.read_text("/a/b/f")


# -- the directory memo: memoized parent plus one live step --------------------


def _user_owned_tree(vfs, sc):
    """/a and /a/b owned by uid 1000, mode 0700; the user memoized /a/b."""
    sc.makedirs("/a/b")
    sc.write_text("/a/b/f", "old leaf")
    for path in ("/a", "/a/b"):
        sc.chown(path, 1000, 1000)
        sc.chmod(path, 0o700)
    user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    assert user.read_text("/a/b/f") == "old leaf"
    user.write_text("/a/b/new", "new leaf")
    assert sc.ns.dcache.paths[("a", "b")][2] is user.cred
    return user


@pytest.mark.parametrize("target", ["/a", "/a/b"])
@pytest.mark.parametrize(
    "revoke",
    [
        lambda sc, path: sc.chmod(path, 0o000),
        lambda sc, path: sc.chown(path, 0, 0),
        lambda sc, path: sc.set_acl(path, Acl.from_mode(0o000)),
    ],
    ids=["chmod", "chown", "set_acl"],
)
def test_permission_change_on_memoized_parent_denies_a_new_leaf(vfs, sc, target, revoke):
    user = _user_owned_tree(vfs, sc)
    revoke(sc, target)
    assert sc.ns.dcache.paths[("a", "b")][2] is user.cred  # memo still holds it
    with pytest.raises(PermissionDenied):
        user.read_text("/a/b/new")
    with pytest.raises(PermissionDenied):
        user.read_text("/a/b/f")
    assert sc.read_text("/a/b/new") == "new leaf"  # root still passes


def test_new_leaf_reuses_the_memoized_parent(sc):
    sc.makedirs("/net/switches/s1/flows")
    sc.write_text("/net/switches/s1/flows/f0", "0")
    before = sc.ns.dcache.stats()
    for i in range(1, 4):
        sc.write_text(f"/net/switches/s1/flows/f{i}", str(i))
        assert sc.read_text(f"/net/switches/s1/flows/f{i}") == str(i)
    after = sc.ns.dcache.stats()
    assert after["path_misses"] == before["path_misses"]
    assert after["path_hits"] > before["path_hits"]


def test_negative_entry_under_a_memoized_parent(sc):
    sc.makedirs("/spool/q")
    sc.stat("/spool/q")
    with pytest.raises(FileNotFound):
        sc.stat("/spool/q/job")
    before = sc.ns.dcache.stats()
    with pytest.raises(FileNotFound):
        sc.stat("/spool/q/job")
    after = sc.ns.dcache.stats()
    assert after["neg_hits"] == before["neg_hits"] + 1
    assert after["path_misses"] == before["path_misses"]
    sc.write_text("/spool/q/job", "queued")
    assert sc.read_text("/spool/q/job") == "queued"


def test_open_creat_under_a_missing_parent_still_fails(sc):
    sc.mkdir("/d")
    with pytest.raises(FileNotFound):
        sc.write_text("/d/missing/f", "x")
    assert not sc.exists("/d/missing")


def test_symlink_as_last_component(sc):
    sc.makedirs("/v1")
    sc.makedirs("/v2")
    sc.write_text("/v1/data", "one")
    sc.write_text("/v2/data", "two")
    sc.symlink("/v1/data", "/v1/link")
    for _ in range(2):
        assert sc.readlink("/v1/link") == "/v1/data"
        assert sc.read_text("/v1/link") == "one"
        assert sc.lstat("/v1/link").ftype != sc.stat("/v1/link").ftype
    sc.unlink("/v1/link")
    sc.symlink("/v2/data", "/v1/link")
    assert sc.read_text("/v1/link") == "two"
    sc.unlink("/v2/data")
    with pytest.raises(FileNotFound):
        sc.read_text("/v1/link")
    assert not any(key[-1] == "link" for key in sc.ns.dcache.paths)


def test_symlinked_directory_is_never_memoized(sc):
    sc.makedirs("/v1")
    sc.write_text("/v1/data", "one")
    sc.symlink("/v1", "/current")
    for _ in range(2):
        assert sc.read_text("/current/data") == "one"
    assert ("current",) not in sc.ns.dcache.paths


def test_mountpoint_as_last_component(sc):
    sc.mkdir("/m")
    under = sc.stat("/m")
    sc.mount("/m", MemFs())
    mounted = sc.stat("/m")
    assert mounted.dev != under.dev
    assert sc.stat("/m").dev == mounted.dev  # served by the component cache
    sc.umount("/m")
    assert sc.stat("/m").dev == under.dev


def test_dotdot_paths_take_the_full_walk(sc):
    sc.makedirs("/a/b")
    sc.makedirs("/a/c")
    sc.write_text("/a/c/f", "via dotdot")
    for _ in range(2):
        assert sc.read_text("/a/b/../c/f") == "via dotdot"
    with pytest.raises(FileNotFound):
        sc.stat("/a/b/../missing")
    assert sc.stat("/a/b/..").ino == sc.stat("/a").ino
    assert not any(".." in key for key in sc.ns.dcache.paths)


def test_distfs_paths_are_never_memoized():
    from repro.distfs import FileServer, RemoteFs, RpcChannel

    server_sc = Syscalls(VirtualFileSystem())
    server_sc.makedirs("/export/docs/deep")
    server_sc.write_text("/export/docs/deep/f", "remote")
    client_vfs = VirtualFileSystem()
    client = Syscalls(client_vfs)
    client.mkdir("/mnt")
    client.mount("/mnt", RemoteFs(RpcChannel(FileServer(server_sc, "/export").handle)))
    for _ in range(2):
        assert client.read_text("/mnt/docs/deep/f") == "remote"
    assert set(client.ns.dcache.paths) <= {("mnt",)}
    server_sc.write_text("/export/docs/deep/f", "changed")
    assert client.read_text("/mnt/docs/deep/f") == "changed"


# -- namespace scoping --------------------------------------------------------


def test_clone_starts_with_an_empty_cache(vfs, sc):
    sc.makedirs("/warm/path")
    sc.stat("/warm/path")
    clone = sc.ns.clone()
    assert len(clone.dcache) == 0
    assert clone.dcache.stats()["path_entries"] == 0
    proc = Syscalls(vfs, ns=clone)
    proc.stat("/warm/path")  # resolves and warms the clone's own cache
    assert len(clone.dcache) > 0


def test_private_mounts_do_not_flush_other_namespaces(vfs, sc):
    sc.mkdir("/shared")
    sc.stat("/shared")
    flushes = sc.ns.dcache.flushes
    proc = Syscalls(vfs, ns=sc.ns.clone())
    proc.mount("/shared", MemFs())
    assert sc.ns.dcache.flushes == flushes  # only the clone's cache flushed


# -- bounds and counters ------------------------------------------------------


def test_capacity_bound_evicts_instead_of_growing(sc):
    sc.ns.dcache.capacity = 4
    sc.mkdir("/many")
    for i in range(10):
        sc.write_text(f"/many/f{i}", "x")
        sc.stat(f"/many/f{i}")
    assert len(sc.ns.dcache.entries) <= 4
    assert len(sc.ns.dcache.paths) <= 4
    assert sc.ns.dcache.evictions > 0


def test_counters_publish_into_perfcounters(vfs, sc):
    sc.makedirs("/n/s")
    sc.write_text("/n/s/f", "x")
    for _ in range(5):
        sc.read_text("/n/s/f")
    sc.ns.dcache.publish(vfs.counters)
    assert vfs.counters.get("dcache.path_hits") > 0
    assert vfs.counters.get("dcache.stores") > 0
    # publishing is delta-based: an immediate re-publish adds nothing
    hits = vfs.counters.get("dcache.path_hits")
    sc.ns.dcache.publish(vfs.counters)
    assert vfs.counters.get("dcache.path_hits") == hits
