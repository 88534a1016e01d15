"""The reference kernel: a fixed piece of pure-Python work used as a yardstick.

The benchmark host drifts over minutes (other tenants, frequency scaling), and
the drift moves every wall-clock figure by tens of percent between runs of the
same code.  A fixed kernel timed between simulation slices drifts in step with
the workload, so each wall time is scaled by ``NOMINAL_S / measured kernel
time`` to give *reference-normalised seconds*.

The kernel imports nothing from ``repro``: a change to the program under test
must never change the yardstick.  It runs with the cyclic garbage collector
paused, so collecting the workload's garbage is not billed to it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Median kernel time on the reference host (2 vCPU, CPython 3.11).  Any
#: constant works; this one keeps normalised seconds close to raw seconds
#: there.
NOMINAL_S = 0.0016


class _Node:
    __slots__ = ("name", "parent", "children", "size")

    def __init__(self, name: str, parent: "_Node | None") -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.size = 0


def kernel() -> int:
    """One fixed unit of interpreter work, shaped like the controller's.

    Path strings are built and split, a small tree of slotted objects is
    walked through dicts, and integers are formatted and parsed: the same
    operations the VFS walk, the yancfs attribute files and the codecs spend
    their time on.  Returns a checksum so the work cannot be skipped.
    """
    root = _Node("", None)
    checksum = 0
    for i in range(480):
        path = f"/net/switches/sw{i % 20}/flows/f{i}/match.tp_dst"
        node = root
        for part in path.split("/")[1:]:
            child = node.children.get(part)
            if child is None:
                child = _Node(part, node)
                node.children[part] = child
            node = child
        node.size = len(str(20000 + i))
        checksum += int(str(20000 + i)) + node.size
    stack = [root]
    while stack:
        node = stack.pop()
        checksum += len(node.name)
        stack.extend(sorted(node.children.values(), key=lambda n: n.name))
    return checksum


def sample() -> float:
    """Run the kernel once with the cyclic GC paused; return its seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Kernel samples taken between slices, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> None:
        """Take one kernel sample (call between simulation slices)."""
        self.samples.append(sample())

    def ref_s(self) -> float:
        """Median kernel time over every sample taken so far."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns raw wall seconds into normalised seconds."""
        return NOMINAL_S / self.ref_s()
