"""Monitor: runtime memory supervision of invocations (§5.3.1).

The Monitor periodically reads the sandbox's cgroup statistics (here:
the pressure callback from the compute loop) and can dynamically raise
the memory cap of a sandbox that runs out — but only for invocations
that have been running for at least 3 s, because short invocations are
frequent and the monitoring overhead is not worth it for them.
"""

from __future__ import annotations

from repro.faas.invoker import InvocationContext, Invoker
from repro.faas.records import InvocationRecord

#: Dynamic cap raising only for invocations running at least this long.
MONITOR_MIN_RUNTIME_S = 3.0
#: Headroom added when the Monitor raises a sandbox's cap.
MONITOR_HEADROOM_MB = 32.0


class Monitor:
    """Per-invocation memory monitor."""

    def __init__(self, record: InvocationRecord, invoker: Invoker):
        self.record = record
        self.invoker = invoker

    def on_pressure(
        self, ctx: InvocationContext, usage_mb: float, footprint_mb: float
    ):
        """Called when the invocation's usage crosses its cgroup limit.

        Returns True when the cap was raised (invocation continues),
        False when the OOM killer must act.
        """
        age = ctx.kernel.now - self.record.started_at
        if age < MONITOR_MIN_RUNTIME_S:
            return False
        booked = self.record.booked_memory_mb
        target = min(
            max(footprint_mb, usage_mb) + MONITOR_HEADROOM_MB,
            max(booked, usage_mb + MONITOR_HEADROOM_MB),
        )
        if target <= ctx.sandbox.memory_limit_mb:
            return False
        try:
            yield from self.invoker.resize_sandbox(ctx.sandbox, target)
        except Exception:
            return False
        return True
