"""What the runtime checkers share: the environment opt-in and call sites.

yancsan, yancrace and yancsec each run when their environment variable
(``YANCSAN``/``YANCRACE``/``YANCSEC``) is set to anything but ``""`` or
``"0"``: hosts install them when they boot, and the test suite checks
their findings after every test.  Each module keeps its
``enabled``/``install_from_env``/``active``/``reset_all`` names as
aliases onto one :class:`EnvChecker`; :func:`install_from_env` installs
every requested checker in one call.
"""

from __future__ import annotations

import atexit
import os
import sys

from repro.vfs import trace

#: Frames in these trees are substrate plumbing; a reported site is the
#: first frame outside them (the app's or the test's line).
_INFRA_MARKERS = ("/repro/vfs/", "/repro/analysis/", "/repro/yancfs/", "/repro/libyanc/")


def call_site() -> str:
    """``file:line`` of the nearest non-substrate frame (the app's site)."""
    frame = sys._getframe(1)
    for _ in range(40):
        if frame is None:
            break
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not any(marker in filename for marker in _INFRA_MARKERS):
            return f"{frame.f_code.co_filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class EnvChecker:
    """The process-wide instance of one checker class, opted in by ``var``."""

    def __init__(self, label: str, var: str, cls: type[trace.Subscriber], *, report_at_exit: bool = False) -> None:
        self.label = label
        self.var = var
        self.cls = cls
        self.report_at_exit = report_at_exit
        self.instance: trace.Subscriber | None = None

    def enabled(self) -> bool:
        """True when the environment variable requests the checker."""
        return os.environ.get(self.var, "") not in ("", "0")

    def install_from_env(self):
        """Install the process-wide instance if requested; idempotent."""
        if not self.enabled():
            return None
        if self.instance is None:
            self.instance = self.cls().install()
            if self.report_at_exit:
                atexit.register(self._report)
        return self.instance

    def active(self):
        """The environment-installed instance, if any."""
        return self.instance

    def installed(self) -> list:
        """Every attached instance of the checker class, env-installed or not."""
        return [s for s in trace.subscribers() if isinstance(s, self.cls)]

    def reset_all(self) -> None:
        """Reset every installed instance (test-isolation helper)."""
        for checker in self.installed():
            checker.reset()

    def _report(self) -> None:
        findings = self.instance.check()
        if findings:
            print(f"{self.label}: {len(findings)} violation(s) at teardown", file=sys.stderr)
            for finding in findings:
                print(f"  {finding}", file=sys.stderr)


def install_from_env() -> list[tuple[str, object]]:
    """Install every checker its environment variable asks for.

    Returns ``(label, instance)`` for each one installed.
    """
    from repro.analysis import race, sanitizer
    from repro.analysis.yancsec import monitor

    installed = []
    for env in (sanitizer.ENV, race.ENV, monitor.ENV):
        instance = env.install_from_env()
        if instance is not None:
            installed.append((env.label, instance))
    return installed
