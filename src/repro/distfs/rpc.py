"""The remote-FS RPC channel.

Client-side file operations execute the server handler directly (both
"machines" live in one simulation), but every call is *priced*: the
channel accumulates round-trip latency and transfer time, and counts
messages, so benchmarks can report the throughput a real deployment with
that latency would see.  This keeps client code synchronous — exactly how
an NFS client appears to its applications — while the cost model stays
explicit.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.perf.counters import PerfCounters
from repro.vfs.cred import Credentials
from repro.vfs.errors import NotPermitted, PermissionDenied, TimedOut

class RpcChannel:
    """One client's connection to a file server."""

    def __init__(
        self,
        handler: Callable[..., Any],
        *,
        latency: float = 2e-4,
        bandwidth: float = 1.25e9,  # bytes/second (10 Gb/s)
        counters: PerfCounters | None = None,
        name: str = "",
        cred: Credentials | None = None,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.handler = handler
        self.latency = latency
        self.bandwidth = bandwidth
        self.counters = counters or PerfCounters()
        self.name = name
        #: The client's identity, sent with every call (AUTH_SYS style):
        #: the server executes each operation under these credentials, not
        #: its own.  ``None`` keeps legacy anonymous channels working —
        #: the server then falls back to its own (least-privilege) creds.
        self.cred = cred
        self.time_spent = 0.0
        self.calls = 0
        self.bytes_moved = 0
        self.connected = True

    def call(self, op: str, *args: object) -> Any:
        """One synchronous RPC: run the handler, charge the round trip."""
        if not self.connected:
            raise TimedOut(detail=f"rpc channel {self.name} is down")
        payload = sum(len(a) for a in args if isinstance(a, (bytes, str)))
        try:
            result = self.handler(op, args, self.cred)
        except (PermissionDenied, NotPermitted):
            self.counters.add("distfs.rpc_denied")
            raise
        returned = len(result) if isinstance(result, (bytes, str)) else 64
        moved = payload + returned
        self.calls += 1
        self.bytes_moved += moved
        self.time_spent += 2 * self.latency + moved / self.bandwidth
        self.counters.add("distfs.rpc")
        self.counters.add(f"distfs.rpc.{op}")
        self.counters.add("distfs.rpc_bytes", moved)
        return result

    def close(self) -> None:
        """Drop the connection; further calls raise ETIMEDOUT."""
        self.connected = False
