"""The Transform phase, slice by slice: the oracle of
``InvocationContext.compute``.

This is the loop ``compute`` ran before it went closed-form: sleep one
slice, grow the resident set one step, check the cgroup limit, repeat —
``COMPUTE_SLICES`` kernel occurrences per phase whatever happens in
them.  The production method sleeps straight to the boundaries where
something happens; ``tests/faas/test_compute_oracle.py`` requires both
to wake at the same floats and leave the same record behind.
"""

from repro.faas.errors import OOMKilled
from repro.faas.invoker import _LIMIT_EPS_MB, COMPUTE_SLICES


def reference_compute(ctx, duration: float, footprint_mb: float):
    """Drop-in for ``ctx.compute(duration, footprint_mb)`` (untraced)."""
    if duration < 0 or footprint_mb < 0:
        raise ValueError("duration and footprint must be non-negative")
    start = ctx.kernel.now
    slices = COMPUTE_SLICES if duration > 0 else 1
    for i in range(1, slices + 1):
        if duration > 0:
            yield duration / slices
        usage = footprint_mb * i / slices
        ctx.record.peak_memory_mb = max(ctx.record.peak_memory_mb, usage)
        if usage > ctx.sandbox.memory_limit_mb + _LIMIT_EPS_MB:
            rescued = False
            if ctx.monitor is not None:
                rescued = yield from ctx.monitor.on_pressure(
                    ctx, usage, footprint_mb
                )
            if not rescued:
                ctx.record.peak_memory_mb = max(
                    ctx.record.peak_memory_mb, ctx.sandbox.memory_limit_mb
                )
                raise OOMKilled(
                    f"{ctx.sandbox.sandbox_id}: {usage:.0f} MB > "
                    f"{ctx.sandbox.memory_limit_mb:.0f} MB limit",
                    needed_mb=footprint_mb,
                )
    ctx.record.phases.transform += ctx.kernel.now - start
