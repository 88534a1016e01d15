"""Tracepoints: the one instrumentation layer under the runtime checkers.

The paper's §5.2 argument is that monitoring should reuse the hooks the
OS already has rather than invent new ones per tool.  This module is
that hook point for the reproduction: the only code that knows which
methods are the choke points every operation funnels through (the
:data:`POINTS` table), and the only code that replaces methods on those
classes.  yancsan, yancrace, yancsec and the yanccrash recorder are
*subscribers*: each says which points it wants and what to run there,
and the layer sends it an enter event before the traced call and an
exit event after it.

A subscriber's :meth:`Subscriber.tracepoints` maps point names
(``"Syscalls.open"``, ``"IoUring.submit"``, ...) to a :class:`Hook`:

* ``enter(target, args)`` runs before the call and returns a token;
* ``exit(target, args, result, error, token)`` runs after it.  ``error``
  is the exception the call raised (re-raised afterwards) or ``None``.

``target`` is the object the method was called on; ``args`` holds the
remaining arguments in declaration order, defaults filled in.  Enter
events go to subscribers in attach order and exit events in reverse, as
if each subscriber were a wrapper around the next.

``Process._guarded`` is the one *task* point: it returns the
crash-contained task the simulator runs later, and there an exit hook
returns the task to hand back — wrapping it lets a subscriber act when
the task runs, with state captured when it was created.

Cost: a point is wrapped only while some subscriber hooks it, and the
original method is put back when the last one detaches, so an
unobserved run pays nothing.  ``Syscalls.walk`` is a generator function;
its events bracket creating the generator, not iterating it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from typing import Callable, NamedTuple

from repro.vfs.errors import InvalidArgument

__all__ = ["POINTS", "Hook", "Subscriber", "attach", "attached", "detach", "subscribers"]

#: ``"module:Class"`` -> traced methods.  Point names are ``Class.method``.
POINTS: dict[str, tuple[str, ...]] = {
    "repro.vfs.syscalls:Syscalls": (
        "open", "close", "read", "write", "pread", "pwrite", "lseek", "ftruncate", "fstat",
        "chdir", "mkdir", "rmdir", "unlink", "rename", "symlink", "readlink", "link",
        "stat", "lstat", "exists", "listdir", "scandir", "walk", "truncate", "chmod", "chown",
        "set_acl", "setxattr", "getxattr", "listxattr", "removexattr",
        "mount", "bind_mount", "umount", "spawn", "io_uring_setup",
        "inotify_init", "inotify_add_watch", "inotify_read", "epoll_create", "epoll_ctl", "epoll_wait",
    ),
    "repro.vfs.uring:IoUring": ("submit",),
    "repro.libyanc.fastpath:LibYanc": ("stage_flow", "_commit", "delete_flow", "flush"),
    "repro.vfs.inode:FileInode": ("set_content",),
    "repro.vfs.vfs:FileHandle": ("close",),
    "repro.vfs.notify:NotifyHub": ("emit_dirent",),
    "repro.vfs.notify:Inotify": ("_deliver",),
    "repro.proc.process:Process": ("_guarded", "_dispatch"),
    "repro.sim.clock:Simulator": ("run", "run_until"),
    "repro.distfs.rpc:RpcChannel": ("call",),
}

_TASK_POINTS = frozenset({"Process._guarded"})


class Hook(NamedTuple):
    """What one subscriber runs at one tracepoint (either half may be None)."""

    enter: Callable[..., object] | None = None
    exit: Callable[..., object] | None = None


class Subscriber:
    """Base class for tracepoint subscribers."""

    def tracepoints(self) -> dict[str, Hook]:
        """Point name -> hook; read once, when the subscriber attaches."""
        raise NotImplementedError

    def install(self):
        """Start receiving events (idempotent)."""
        attach(self)
        return self

    def uninstall(self) -> None:
        """Stop receiving events."""
        detach(self)


class _Point:
    """One choke point: its class slot, live hooks and the call chain."""

    __slots__ = ("name", "owner", "attr", "hooks", "chain", "traced")

    def __init__(self, name: str, owner: type, attr: str) -> None:
        self.name = name
        self.owner = owner
        self.attr = attr
        self.hooks: tuple[Hook, ...] = ()
        #: The hooks nested around the original call; None when unhooked.
        self.chain: Callable | None = None
        #: Our wrapper, while it is installed on the class.
        self.traced: Callable | None = None

    def set_hooks(self, hooks: tuple[Hook, ...]) -> None:
        self.hooks = hooks
        if not hooks:
            self.chain = None
            # Put the original back unless someone has wrapped over us
            # since; then our wrapper stays in place, idle.
            if self.traced is not None and self.owner.__dict__.get(self.attr) is self.traced:
                setattr(self.owner, self.attr, self.traced.__wrapped__)
                self.traced = None
            return
        if self.traced is None:
            self.traced = _traced(self, self.owner.__dict__[self.attr])
            setattr(self.owner, self.attr, self.traced)
        chain = _call_original(self.traced.__wrapped__)
        for hook in reversed(hooks):
            chain = _layer(hook, chain, self.name in _TASK_POINTS)
        self.chain = chain


def _traced(point: _Point, original: Callable) -> Callable:
    params = list(inspect.signature(original).parameters.values())[1:]
    names = tuple(p.name for p in params)
    defaults = tuple(p.default for p in params)

    def traced(target, *args, **kwargs):
        chain = point.chain
        if chain is None:
            return original(target, *args, **kwargs)
        if kwargs:
            full = args + tuple(kwargs.get(n, d) for n, d in zip(names[len(args) :], defaults[len(args) :]))
        else:
            full = args + defaults[len(args) :]
        return chain(target, full, args, kwargs)

    return functools.update_wrapper(traced, original)


def _call_original(original: Callable) -> Callable:
    def call(target, _full, args, kwargs):
        return original(target, *args, **kwargs)

    return call


def _layer(hook: Hook, inner: Callable, task: bool) -> Callable:
    """One subscriber's enter/exit nested around ``inner``."""
    enter, exit_ = hook

    def layer(target, full, args, kwargs):
        token = None if enter is None else enter(target, full)
        try:
            result = inner(target, full, args, kwargs)
        except BaseException as error:
            if exit_ is not None:
                exit_(target, full, None, error, token)
            raise
        if exit_ is not None:
            out = exit_(target, full, result, None, token)
            if task:
                result = out
        return result

    return layer


#: Point name -> resolved point (filled on first use).
_points: dict[str, _Point] = {}
#: Attached subscribers in attach order -> the hooks they registered.
_subscribers: dict[Subscriber, dict[str, Hook]] = {}


def _point(name: str) -> _Point:
    point = _points.get(name)
    if point is not None:
        return point
    cls_name, _, attr = name.partition(".")
    for where, methods in POINTS.items():
        module, _, owner = where.partition(":")
        if owner == cls_name and attr in methods:
            point = _Point(name, getattr(importlib.import_module(module), owner), attr)
            _points[name] = point
            return point
    raise InvalidArgument(detail=f"no tracepoint named {name!r}")


def attach(subscriber: Subscriber) -> None:
    """Start sending ``subscriber`` its points' events (idempotent)."""
    if subscriber in _subscribers:
        return
    hooks = subscriber.tracepoints()
    resolved = [(_point(name), hook) for name, hook in hooks.items()]
    _subscribers[subscriber] = hooks
    for point, hook in resolved:
        point.set_hooks(point.hooks + (hook,))


def detach(subscriber: Subscriber) -> None:
    """Stop sending ``subscriber`` events; unwrap points nobody hooks."""
    hooks = _subscribers.pop(subscriber, None)
    if hooks is None:
        return
    for name, hook in hooks.items():
        point = _points[name]
        point.set_hooks(tuple(h for h in point.hooks if h is not hook))


def attached(subscriber: Subscriber) -> bool:
    """True while ``subscriber`` receives events."""
    return subscriber in _subscribers


def subscribers() -> list[Subscriber]:
    """Every attached subscriber, in attach order."""
    return list(_subscribers)
