"""The analysis command line: ``python -m repro.analysis [race|yancpath|yancperf|yanccrash|yancsec] [...]``.

Six subcommands share one entry point:

* ``python -m repro.analysis [paths...]`` — **yanclint**, the static
  checker (the historical default, no subcommand word needed);
* ``python -m repro.analysis race workload.py [args...]`` — **yancrace**,
  which runs any Python workload (an example script, a reproducer) under
  the happens-before race detector and reports ordering findings;
* ``python -m repro.analysis yancpath [paths...]`` — **yancpath**, the
  whole-program path & typestate analyzer (schema-derived namespace
  grammar, §3.4 commit protocol, fd lifecycle);
* ``python -m repro.analysis yancperf [paths...]`` — **yancperf**, the
  interprocedural syscall-cost analyzer (amplification findings, the
  ``--report`` cost ranking, and ``--calibrate`` against live meters);
* ``python -m repro.analysis yanccrash [paths...]`` — **yanccrash**, the
  crash-consistency analyzer: statically, durable-effect ordering over
  the commit/publication surfaces; with ``--explore workload.py``, the
  crash-point model checker that replays every crash prefix of the
  workload's durable-op trace and asserts the recovery invariants;
* ``python -m repro.analysis yancsec [paths...]`` — **yancsec**, the
  capability & tenant-isolation analyzer: a taint-to-path lattice plus
  per-function credential summaries judge every syscall site
  (tainted-path, root-ambient, missing-acl, slice-escape,
  unauthenticated-rpc); with ``--monitor workload.py``, the runtime
  reference monitor runs the workload instead and reports isolation
  violations plus the (uid, namespace, prefix) access tuples.

The four path analyzers are rows of one :data:`TOOLS` table and share
one parser builder and one main; the three workload runners (``race``,
``--explore``, ``--monitor``) share :func:`run_workload`.

Exit-code discipline (:class:`ExitCode`, shared by every subcommand):

* ``0`` — clean;
* ``1`` — findings (races / diagnostics at warning or above);
* ``2`` — usage error (unknown rule, bad arguments);
* ``3`` — internal error (the analyzer itself, or the workload, crashed).
"""

from __future__ import annotations

import argparse
import enum
import functools
import importlib
import json
import os
import runpy
import sys
from dataclasses import dataclass
from typing import Callable

from repro.analysis import baselines
from repro.analysis.core import all_rules
from repro.analysis.runner import analyze_paths, exit_code, format_findings
from repro.vfs.trace import Subscriber


class ExitCode(enum.IntEnum):
    """The 0/1/2/3 discipline every analysis subcommand follows."""

    CLEAN = 0
    FINDINGS = 1
    USAGE = 2
    INTERNAL = 3


def usage_error(tool: str, *lines: str) -> int:
    """Report a usage problem on stderr; returns ``ExitCode.USAGE``."""
    for line in lines:
        print(f"{tool}: {line}", file=sys.stderr)
    return ExitCode.USAGE


#: The reporting flags every subcommand but yanclint takes: (flag, options).
_REPORT_FLAGS: tuple[tuple[str, dict], ...] = (
    ("--json", dict(action="store_true", help="emit findings as JSON")),
    ("--baseline", dict(help="JSON findings file; only findings not in it fail the run")),
    ("--out", dict(help="write the findings JSON to this file as well")),
)


def report_findings(
    tool: str,
    records: list[dict],
    *,
    as_json: bool,
    baseline: str | None,
    out: str | None,
    key: Callable[[dict], tuple],
    render: Callable[[dict, str], str],
) -> int:
    """Shared emission + verdict: baseline filtering, ``--out``, JSON/text.

    ``records`` are JSON-ready finding dicts; ``key`` makes them
    comparable against a baseline file; ``render`` formats one record for
    the text output (second argument is the ``" (baseline)"`` marker or
    ``""``).  Returns ``FINDINGS`` when any record survives the baseline,
    else ``CLEAN`` — the usage/internal codes come from the caller and
    :func:`main` respectively.
    """
    baseline_keys = baselines.load_baseline(baseline, key)
    fresh = baselines.split_fresh(records, baseline_keys, key)
    baselines.write_records(out, records)
    if as_json:
        print(json.dumps(records, indent=2))
    else:
        for rec in records:
            marker = " (baseline)" if key(rec) in baseline_keys else ""
            print(render(rec, marker))
        suppressed = len(records) - len(fresh)
        tail = f" ({suppressed} in baseline)" if suppressed else ""
        print(f"{tool}: {len(fresh)} finding(s){tail}")
    return ExitCode.FINDINGS if fresh else ExitCode.CLEAN


def run_workload(
    tool: str, subscriber: Subscriber, script: str, script_args: list[str], *, env: dict[str, str] | None = None
) -> bool:
    """Run ``script`` as ``__main__`` with ``subscriber`` attached.

    ``sys.argv`` (and any ``env`` overrides) hold for the run and are
    restored afterwards.  Returns False, after saying so on stderr, when
    the workload exits non-zero — the caller's ``INTERNAL``.
    """
    env = env or {}
    subscriber.install()
    saved_argv = sys.argv
    saved_env = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    sys.argv = [script, *script_args]
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            print(f"{tool}: workload exited with {exc.code}", file=sys.stderr)
            return False
    finally:
        sys.argv = saved_argv
        for name, value in saved_env.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
        subscriber.uninstall()
    return True


# -- yanclint (the default subcommand) ------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yanclint",
        description="Static invariant checker for the yanc reproduction (determinism, "
        "vfs-bypass, error-discipline, schema coverage, hygiene).",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests", "examples"], help="files or directories to analyze")
    parser.add_argument("--select", help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true", help="print the rule registry and exit")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="diagnostic output format")
    parser.add_argument("--json", action="store_true", help="shorthand for --format json")
    return parser


def lint_main(argv: list[str] | None) -> int:
    """yanclint subcommand; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id:<18} {rule.severity.label:<8} {rule.description}")
        return ExitCode.CLEAN
    select = set(args.select.split(",")) if args.select else None
    ignore = set(args.ignore.split(",")) if args.ignore else None
    known = set(all_rules())
    unknown = ((select or set()) | (ignore or set())) - known
    if unknown:
        return usage_error(
            "yanclint",
            f"unknown rule(s): {', '.join(sorted(unknown))}",
            f"known rules: {', '.join(sorted(known))}",
        )
    findings = analyze_paths(list(args.paths), select=select, ignore=ignore)
    if args.json or args.format == "json":
        print(json.dumps([f.__dict__ | {"severity": f.severity.label} for f in findings], indent=2))
    else:
        print(format_findings(findings))
    return exit_code(findings)


# -- yancrace ---------------------------------------------------------------------------

def race_main(argv: list[str]) -> int:
    """yancrace subcommand; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="yancrace",
        description="Run a Python workload under the happens-before race "
        "detector and report unsynchronized accesses, torn commits, and "
        "reads of uncommitted flow state.",
    )
    parser.add_argument("workload", help="Python script to execute (e.g. examples/quickstart.py)")
    parser.add_argument("workload_args", nargs="*", help="arguments passed to the workload")
    for flag, options in _REPORT_FLAGS:
        parser.add_argument(flag, **options)
    args = parser.parse_args(argv)
    from repro.analysis.race import RaceDetector

    detector = RaceDetector()
    if not run_workload("yancrace", detector, args.workload, args.workload_args):
        return ExitCode.INTERNAL
    findings = [f.to_json() for f in detector.check()]
    detector.reset()
    return report_findings(
        "yancrace",
        findings,
        as_json=args.json,
        baseline=args.baseline,
        out=args.out,
        key=lambda rec: (rec.get("kind", ""), rec.get("path", ""), tuple(rec.get("sites", ()))),
        render=lambda rec, marker: f"yancrace [{rec['kind']}]{marker} {rec['detail']}",
    )


# -- the path analyzers: yancpath, yancperf, yanccrash, yancsec -----------------------

#: Positional default of every path analyzer.
DEFAULT_PATHS = ("src", "examples")


def _workload_args(args: argparse.Namespace) -> list[str]:
    # A workload mode reuses the positionals as the workload's arguments.
    return [] if args.paths == list(DEFAULT_PATHS) else list(args.paths)


def _yancperf_modes(args: argparse.Namespace) -> int | None:
    if args.report and args.calibrate:
        return usage_error("yancperf", "--report and --calibrate are mutually exclusive")
    if args.report:
        from repro.analysis.yancperf.report import cost_report, render_report

        rows = cost_report(list(args.paths))
        if args.json:
            print(json.dumps([row.to_json() for row in rows[: args.top]], indent=2))
        else:
            print(render_report(rows, top=args.top))
        return ExitCode.CLEAN
    if args.calibrate:
        from repro.analysis.yancperf.calibrate import render_calibration, run_calibration

        rows = run_calibration(list(args.paths))
        if args.json:
            print(json.dumps([row.to_json() for row in rows], indent=2))
        else:
            print(render_calibration(rows))
        return ExitCode.CLEAN if all(row.ok for row in rows) else ExitCode.FINDINGS
    return None


def _yanccrash_explore(args: argparse.Namespace) -> int | None:
    if not args.explore:
        return None
    from repro.analysis.yanccrash.explorer import explore
    from repro.analysis.yanccrash.recorder import CrashRecorder

    recorder = CrashRecorder()
    if not run_workload("yanccrash", recorder, args.explore, _workload_args(args)):
        return ExitCode.INTERNAL
    result = explore(recorder.ops)
    recorder.reset()
    records = [v.to_json() for v in result.violations]
    code = report_findings(
        "yanccrash",
        records,
        as_json=args.json,
        baseline=args.baseline,
        out=args.out,
        key=lambda rec: (rec.get("kind", ""), rec.get("path", ""), rec.get("site", "")),
        render=lambda rec, marker: (
            f"yanccrash [{rec['kind']}]{marker} {rec['path']} "
            f"@prefix={rec['prefix']}: {rec['detail']}"
        ),
    )
    if not args.json:
        print(f"yanccrash: {result.summary()}")
    return code


def _yancsec_monitor(args: argparse.Namespace) -> int | None:
    if not args.monitor:
        return None
    from repro.analysis.yancsec.monitor import SecurityMonitor

    monitor = SecurityMonitor()
    # Workload code may key optional taps off YANCSEC.
    if not run_workload("yancsec", monitor, args.monitor, _workload_args(args), env={"YANCSEC": "1"}):
        return ExitCode.INTERNAL
    records = [{"kind": f.kind, "detail": f.detail} for f in monitor.check()]
    accesses = sorted(monitor.accesses)
    monitor.reset()
    code = report_findings(
        "yancsec",
        records,
        as_json=args.json,
        baseline=args.baseline,
        out=args.out,
        key=lambda rec: (rec.get("kind", ""), rec.get("detail", "")),
        render=lambda rec, marker: f"yancsec [{rec['kind']}]{marker} {rec['detail']}",
    )
    if not args.json:
        uids = sorted({uid for uid, _, _ in accesses})
        print(
            f"yancsec: {len(accesses)} access tuple(s) across "
            f"{len(uids)} uid(s) {uids}"
        )
        for uid, ns, prefix in accesses:
            print(f"  uid={uid} ns={ns or '-'} {prefix}")
    return code


def _site_key(record: dict) -> tuple:
    """A path analyzer finding's baseline identity: (rule, path, line)."""
    return (record.get("rule", ""), record.get("path", ""), record.get("line", 0))


def _render_site(record: dict, marker: str) -> str:
    return (
        f"{record['path']}:{record['line']}:{record['col']}: "
        f"{record['severity']} [{record['rule']}]{marker} {record['message']}"
    )


def _no_mode(_args: argparse.Namespace) -> int | None:
    return None


def _workload_flag(flag: str, under: str) -> tuple[str, dict]:
    help_text = (
        f"run this Python workload under {under} instead of analyzing sources; "
        "positional arguments are passed to the workload"
    )
    return (flag, dict(metavar="WORKLOAD", help=help_text))


@dataclass(frozen=True)
class Tool:
    """One path analyzer: parser, static pass and optional run mode."""

    description: str
    #: ``"module:function"`` mapping paths to findings (imported on use).
    analyze: str
    #: Flags beyond ``--json``/``--baseline``/``--out``: (flag, options).
    flags: tuple[tuple[str, dict], ...] = ()
    #: Runs before the static pass; an exit code returned ends the run.
    mode: Callable[[argparse.Namespace], int | None] = _no_mode


#: Subcommand word (also the ``prog`` name) -> path analyzer.
TOOLS: dict[str, Tool] = {
    "yancpath": Tool(
        description="Whole-program path & typestate analysis: every syscall "
        "site's path is checked against a namespace grammar derived from "
        "yancfs/schema.py, plus §3.4 commit-protocol and fd-lifecycle "
        "typestate checks.",
        analyze="repro.analysis.yancpath.checker:analyze_yancpath",
    ),
    "yancperf": Tool(
        description="Interprocedural syscall-cost analysis: per-function "
        "cost polynomials (loop-depth multipliers, callee rollup) plus "
        "syscall-amplification findings (syscall-in-loop, path-reresolve, "
        "linear-table-scan, chatty-rpc, readdir-then-stat).",
        analyze="repro.analysis.yancperf.checker:analyze_yancperf",
        flags=(
            ("--report", dict(action="store_true", help="rank functions by estimated syscalls per call")),
            ("--top", dict(type=int, default=30, metavar="N", help="rows shown by --report (default 30)")),
            (
                "--calibrate",
                dict(action="store_true", help="boot the quickstart topology and check static bounds against live meter counts"),
            ),
        ),
        mode=_yancperf_modes,
    ),
    "yanccrash": Tool(
        description="Crash-consistency analysis for the commit/publication "
        "surfaces: a static persistence-effect pass (publish-before-data, "
        "non-atomic-publish, commit-outside-chain, unrecovered-staging) "
        "plus, with --explore, a crash-point model checker that replays "
        "every crash prefix of a workload's durable-op trace.",
        analyze="repro.analysis.yanccrash.checker:analyze_yanccrash",
        flags=(_workload_flag("--explore", "the durable-op recorder and model-check every crash prefix"),),
        mode=_yanccrash_explore,
    ),
    "yancsec": Tool(
        description="Capability & tenant-isolation analysis: a taint "
        "lattice over tenant-reachable reads plus per-function credential "
        "summaries judge every syscall site (tainted-path, root-ambient, "
        "missing-acl, slice-escape, unauthenticated-rpc); with --monitor, "
        "a runtime reference monitor on the Syscalls choke points runs a "
        "workload and reports isolation violations and access tuples.",
        analyze="repro.analysis.yancsec.checker:analyze_yancsec",
        flags=(_workload_flag("--monitor", "the reference monitor"),),
        mode=_yancsec_monitor,
    ),
}


def build_tool_parser(prog: str) -> argparse.ArgumentParser:
    """The parser of the path analyzer ``prog``."""
    tool = TOOLS[prog]
    parser = argparse.ArgumentParser(prog=prog, description=tool.description)
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS), help="files or directories to analyze")
    for flag, options in _REPORT_FLAGS + tool.flags:
        parser.add_argument(flag, **options)
    return parser


def tool_main(prog: str, argv: list[str]) -> int:
    """Run the path analyzer ``prog``; returns the process exit code."""
    tool = TOOLS[prog]
    args = build_tool_parser(prog).parse_args(argv)
    code = tool.mode(args)
    if code is not None:
        return code
    module, _, function = tool.analyze.partition(":")
    findings = getattr(importlib.import_module(module), function)(list(args.paths))
    records = [f.__dict__ | {"severity": f.severity.label} for f in findings]
    return report_findings(
        prog, records, as_json=args.json, baseline=args.baseline, out=args.out, key=_site_key, render=_render_site
    )


# -- dispatch -----------------------------------------------------------------------------

#: Subcommand word -> its main; any other argv is yanclint's.
SUBCOMMANDS: dict[str, Callable[[list[str]], int]] = {
    "race": race_main,
    **{prog: functools.partial(tool_main, prog) for prog in TOOLS},
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            return SUBCOMMANDS[argv[0]](argv[1:])
        return lint_main(argv)
    except SystemExit:
        raise  # argparse usage errors keep their exit code (2)
    except Exception as exc:  # noqa: BLE001 — CLI boundary: crash means code 3, not a traceback-as-UX
        print(f"repro.analysis: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ExitCode.INTERNAL


def _entry(subcommand: str) -> Callable[[], int]:
    """Console-script entry: ``<tool> [...]`` runs ``main([subcommand, ...])``."""

    def entry() -> int:
        return main([subcommand, *sys.argv[1:]])

    return entry


race_entry = _entry("race")
yancpath_entry = _entry("yancpath")
yancperf_entry = _entry("yancperf")
yanccrash_entry = _entry("yanccrash")
yancsec_entry = _entry("yancsec")


if __name__ == "__main__":
    sys.exit(main())
