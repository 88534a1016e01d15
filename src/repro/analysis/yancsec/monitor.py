"""yancsec runtime pass: a reference monitor on the ``Syscalls`` choke points.

Every VFS operation in this repo funnels through a handful of ``Syscalls``
methods — the same property the paper leans on for §5 isolation ("each
process only needs file I/O").  With ``YANCSEC=1`` the monitor subscribes
to those choke points' tracepoints (:mod:`repro.vfs.trace`) and enforces
three invariants while a workload runs:

``root-app``
    A process spawned in the *app* role must never execute a syscall with
    uid 0.  Apps get per-name credentials from :func:`repro.vfs.cred.
    app_credentials`; an app-role context running as root means ambient
    authority leaked back in.

``cross-tenant-read``
    ``/net/apps/<name>/`` is a private home.  A non-root process whose uid
    differs from the home owner's must not read below it.

``ambient-write``
    Writes by app-role processes must land inside a registered controller
    tree (``/net`` by default) or a shared spool (``/var``, ``/tmp``);
    writes into another principal's home are flagged under the same kind.

The monitor also records every successful access as a ``(uid, namespace,
path-prefix)`` tuple — the dynamic ground truth the static pass
(:mod:`repro.analysis.yancsec.checker`) is calibrated against, exactly as
yancrace pairs its lockset pass with the runtime detector.

Batched I/O caveat: ring operations bypass the per-path ``Syscalls``
methods, so the monitor also watches ``io_uring_setup`` — an app-role
context running as uid 0 is caught at ring creation, before any batched
submission executes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.analysis.checkers import EnvChecker
from repro.vfs.syscalls import O_CREAT, O_RDWR, O_TRUNC, O_WRONLY, Syscalls
from repro.vfs.trace import Hook, Subscriber

__all__ = [
    "SecFinding",
    "SecurityMonitor",
    "active",
    "enabled",
    "install_from_env",
    "register_root",
    "reset_all",
]

#: Spool prefixes every host ships writable (see ``ControllerHost``).
_SHARED_PREFIXES = ("/var", "/tmp", "/proc", "/dev")

#: Syscalls primitive -> (indices of its path arguments, is-write; None
#: means judged by the open flags).  ``read_text`` and friends route
#: through ``open`` and ``makedirs`` through ``mkdir``, so monitoring the
#: primitives covers the conveniences.
_PATH_OPS: dict[str, tuple[tuple[int, ...], bool | None]] = {
    "open": ((0,), None),
    "listdir": ((0,), False),
    "scandir": ((0,), False),
    "readlink": ((0,), False),
    "walk": ((0,), False),
    "mkdir": ((0,), True),
    "rmdir": ((0,), True),
    "unlink": ((0,), True),
    "truncate": ((0,), True),
    "chmod": ((0,), True),
    "set_acl": ((0,), True),
    "link": ((0,), True),
    "chown": ((0,), True),
    "rename": ((0, 1), True),
    "symlink": ((1,), True),
}

_WRITE_FLAGS = O_WRONLY | O_RDWR | O_CREAT | O_TRUNC


@dataclass(frozen=True)
class SecFinding:
    """One reference-monitor violation."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"yancsec [{self.kind}] {self.detail}"


def _prefix(path: str, depth: int = 2) -> str:
    """The first ``depth`` components of ``path`` — the access-tuple key."""
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts[:depth])


class SecurityMonitor(Subscriber):
    """Records access tuples and flags isolation violations at runtime."""

    def __init__(self) -> None:
        #: Violations in discovery order (deduplicated by ``_seen``).
        self.findings: list[SecFinding] = []
        #: Successful accesses as (uid, namespace name, path prefix).
        self.accesses: set[tuple[int, str, str]] = set()
        self._seen: set[tuple[object, ...]] = set()
        #: Controller mount points (``ControllerHost`` registers its own).
        self._roots: list[str] = []
        self._allowed: list[str] = list(_SHARED_PREFIXES)
        #: ``/net/apps/<name>`` -> owner uid, learned from observed chowns.
        self._home_uids: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------

    def tracepoints(self) -> dict[str, Hook]:
        hooks = {
            f"Syscalls.{op}": Hook(exit=functools.partial(self._accessed, op, paths, write))
            for op, (paths, write) in _PATH_OPS.items()
        }
        hooks["Syscalls.io_uring_setup"] = Hook(exit=self._on_uring)
        return hooks

    def reset(self) -> None:
        """Forget findings and accesses.

        Registrations (roots, allowed prefixes, learned home owners) are
        deliberately kept: hosts outlive per-test resets when built in
        long-lived fixtures, and their mount points stay valid.
        """
        self.findings.clear()
        self.accesses.clear()
        self._seen.clear()

    def check(self) -> list[SecFinding]:
        """All violations recorded since the last :meth:`reset`."""
        return list(self.findings)

    # -- per-host registration -----------------------------------------

    def register_root(self, mount_point: str) -> None:
        """Declare ``mount_point`` a controller tree (homes live below it)."""
        if mount_point not in self._roots:
            self._roots.append(mount_point)
        if mount_point not in self._allowed:
            self._allowed.append(mount_point)

    def allow_prefix(self, prefix: str) -> None:
        """Whitelist an extra writable prefix for app-role processes."""
        if prefix not in self._allowed:
            self._allowed.append(prefix)

    # -- tracepoint hooks (successful calls only) ----------------------

    def _accessed(self, op: str, paths: tuple[int, ...], write: bool | None, sc: Syscalls, args: tuple, _result: object, error: object, _token: None) -> None:
        if error is not None:
            return
        if write is None:  # open: judged by its flags
            write = bool(args[1] & _WRITE_FLAGS)
        for index in paths:
            path = sc._abspath(args[index])
            if op == "chown":
                self._learn_home(path, args[1])
            self._on_path(sc, op, path, write)

    def _emit(self, kind: str, detail: str, key: tuple[object, ...]) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(SecFinding(kind, detail))

    def _home_of(self, path: str) -> tuple[str | None, int | None]:
        for root in self._roots:
            apps = root + "/apps/"
            if path.startswith(apps):
                name = path[len(apps) :].split("/", 1)[0]
                home = apps + name
                return home, self._home_uids.get(home)
        return None, None

    def _on_path(self, sc: Syscalls, op: str, path: str, write: bool) -> None:
        cred = sc.cred
        role = getattr(sc, "role", None)
        ns_name = getattr(sc.ns, "name", "ns?")
        self.accesses.add((cred.uid, ns_name, _prefix(path)))
        if role == "app" and cred.uid == 0:
            self._emit(
                "root-app",
                f"{op}({path}): app-role process executing as uid 0",
                key=("root-app", op, _prefix(path)),
            )
        home, owner = self._home_of(path)
        if home is not None and path != home and owner is not None and owner != cred.uid and not cred.is_root:
            if write:
                self._emit(
                    "ambient-write",
                    f"{op}({path}): uid {cred.uid} writes into {home} (owner uid {owner})",
                    key=("home-write", home, cred.uid),
                )
            else:
                self._emit(
                    "cross-tenant-read",
                    f"{op}({path}): uid {cred.uid} reads {home} (owner uid {owner})",
                    key=("home-read", home, cred.uid),
                )
        elif write and role == "app" and not cred.is_root and not self._is_allowed(path):
            self._emit(
                "ambient-write",
                f"{op}({path}): app uid {cred.uid} writes outside the controller tree and spools",
                key=("stray-write", _prefix(path), cred.uid),
            )

    def _is_allowed(self, path: str) -> bool:
        return any(path == p or path.startswith(p + "/") for p in self._allowed)

    def _learn_home(self, path: str, uid: int) -> None:
        for root in self._roots:
            apps = root + "/apps/"
            if path.startswith(apps) and "/" not in path[len(apps) :]:
                self._home_uids[path] = uid

    def _on_uring(self, sc: Syscalls, _args: tuple, _ring: object, error: object, _token: None) -> None:
        if error is None and getattr(sc, "role", None) == "app" and sc.cred.uid == 0:
            self._emit(
                "root-app",
                "io_uring_setup: app-role process creating a syscall ring as uid 0",
                key=("root-app", "io_uring_setup"),
            )


#: The ``YANCSEC`` opt-in; the module-level names are the historical API.
#: Outside pytest (whose autouse fixture checks after every test), any
#: violations still recorded at interpreter exit are reported.
ENV = EnvChecker("yancsec", "YANCSEC", SecurityMonitor, report_at_exit=True)
enabled = ENV.enabled
install_from_env = ENV.install_from_env
active = ENV.active
reset_all = ENV.reset_all


def register_root(mount_point: str) -> None:
    """Declare ``mount_point`` a controller tree on every installed monitor.

    Hosts call this so that *all* observers — the env-driven monitor and
    any explicitly installed one (e.g. the CLI's ``--monitor`` pass) —
    agree on where homes live and where app writes are legitimate.
    """
    for mon in ENV.installed():
        mon.register_root(mount_point)
