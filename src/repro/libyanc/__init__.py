"""libyanc: the shared-memory fastpath of paper section 8.1.

The file interface pays per-access system calls; libyanc is "a set of
network-centric library calls atop a shared memory system" providing

* a fastpath for creating flow entries **atomically and without any
  context switches** (:meth:`LibYanc.stage_flow` builds a whole flow in
  the store directly and :meth:`LibYanc.flush` commits every staged flow
  — in this reproduction, the same address space stands in for the
  mapped shared-memory segment), and
* **zero-copy passing of bulk data** — packet-in buffers — among
  applications (:class:`ShmRing`).

Notify events still fire for every mutation (the store emits them itself),
so drivers and watchers cannot tell whether a flow arrived via ``echo`` or
via libyanc — only the cost differs.
"""

from repro.libyanc.fastpath import LibYanc
from repro.libyanc.shmring import ShmRing

__all__ = ["LibYanc", "ShmRing"]
