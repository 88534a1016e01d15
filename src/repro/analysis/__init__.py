"""Static analysis (yanclint) and runtime sanitizing (yancsan) for the repo.

The paper's architecture stands on one discipline: *all* network state is
reached through file I/O on the yanc tree, and the substrate underneath is
deterministic.  Nothing in Python enforces either property — an app can
import driver internals, a daemon can read the wall clock — so this package
makes the discipline machine-checked:

* **yanclint** (:mod:`repro.analysis.runner`, ``python -m repro.analysis``)
  is an AST-based linter with repo-specific rules: determinism (no wall
  clock, no unseeded randomness), vfs-bypass (apps/shell/examples touch the
  network only through ``Syscalls``/``YancClient``), error-discipline
  (typed :mod:`repro.vfs.errors` exceptions; no silent broad excepts),
  schema-validator-coverage (every yancfs attribute file has a validator),
  plus generic hygiene rules.

* **yancsan** (:mod:`repro.analysis.sanitizer`) is an opt-in runtime
  sanitizer (``YANCSAN=1``) subscribed to the VFS tracepoints
  (:mod:`repro.vfs.trace`) to catch fd leaks, writes that dodge
  close-time validation, notify events inconsistent with the mutations
  that produced them, and flow-commit protocol violations.

* **yancrace** (:mod:`repro.analysis.race`) is an opt-in happens-before
  race detector (``YANCRACE=1``, or ``python -m repro.analysis race
  workload.py``): every process is a vector-clocked actor, ordering edges
  come from the substrate's real sync points (notify delivery, §3.4
  version commits, rename publication, scheduling, RPC, simulator
  quiescence), and unsynchronized conflicting accesses — plus torn or
  concurrently-read flow commits — are reported with PIDs and syscall
  sites.
"""

from __future__ import annotations

from repro.analysis.core import Finding, Rule, Severity, SourceFile, all_rules
from repro.analysis.runner import analyze_paths, format_findings

__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "analyze_paths",
    "format_findings",
]
