"""Monitor: runtime memory supervision of invocations (§5.3.1).

The Monitor periodically reads the sandbox's cgroup statistics (here:
the pressure callback from the compute loop) and can dynamically raise
the memory cap of a sandbox that runs out — but only for invocations
that have been running for at least 3 s, because short invocations are
frequent and the monitoring overhead is not worth it for them.
"""

from __future__ import annotations

from repro.core.config import OFCConfig
from repro.faas.invoker import InvocationContext, Invoker
from repro.faas.records import InvocationRecord


class Monitor:
    """Per-invocation memory monitor."""

    def __init__(
        self,
        record: InvocationRecord,
        invoker: Invoker,
        config: OFCConfig,
    ):
        self.record = record
        self.invoker = invoker
        self.config = config

    def on_pressure(
        self, ctx: InvocationContext, usage_mb: float, footprint_mb: float
    ):
        """Called when the invocation's usage crosses its cgroup limit.

        Returns True when the cap was raised (invocation continues),
        False when the OOM killer must act.
        """
        age = ctx.kernel.now - self.record.started_at
        if age < self.config.monitor_min_runtime_s:
            return False
        booked = self.record.booked_memory_mb
        target = min(
            max(footprint_mb, usage_mb) + self.config.monitor_headroom_mb,
            max(booked, usage_mb + self.config.monitor_headroom_mb),
        )
        if target <= ctx.sandbox.memory_limit_mb:
            return False
        try:
            yield from self.invoker.resize_sandbox(ctx.sandbox, target)
        except Exception:
            return False
        return True
