"""Function sandboxes (Docker-container semantics).

A sandbox belongs to one (tenant, function) pair, runs one invocation
at a time, has a cgroup-style memory limit, and is kept alive after an
invocation for ``keepalive_s`` in anticipation of the next one (§2.1).
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import inf

_next_id = itertools.count(1)


def reset_sandbox_ids() -> None:
    """Restart the process-global sandbox-id counter (see
    :func:`repro.faas.reset_id_counters`)."""
    global _next_id
    _next_id = itertools.count(1)


class SandboxState(Enum):
    STARTING = "starting"
    IDLE = "idle"
    BUSY = "busy"
    DEAD = "dead"


class Sandbox:
    """One container sandbox on a worker node."""

    def __init__(
        self,
        node_id: str,
        function_key: str,
        memory_limit_mb: float,
        created_at: float,
    ):
        self.sandbox_id = f"sbx-{next(_next_id)}"
        self.node_id = node_id
        self.function_key = function_key
        self.memory_limit_mb = memory_limit_mb
        self.created_at = created_at
        self.last_used_at = created_at
        self.state = SandboxState.STARTING
        #: Number of invocations served (warm reuse counter).
        self.invocations = 0
        #: Keep-alive deadline: the instant an idle sandbox is reaped,
        #: set by the invoker at every invocation end.
        self.reap_at = inf
        #: When the sandbox's one pending reap timer fires (``inf``: none
        #: pending).  A timer that fires at any other instant was
        #: superseded by an earlier deadline and does nothing.
        self.reap_timer_at = inf

    @property
    def alive(self) -> bool:
        return self.state not in (SandboxState.DEAD,)

    @property
    def idle(self) -> bool:
        return self.state == SandboxState.IDLE

    def reserve(self) -> None:
        """Claim an idle sandbox for an incoming invocation.

        Must be called synchronously at selection time (before any
        simulation yield) so that two concurrent invocations can never
        pick the same sandbox.
        """
        if self.state != SandboxState.IDLE:
            raise RuntimeError(
                f"{self.sandbox_id}: reserve in state {self.state}"
            )
        self.state = SandboxState.BUSY

    def begin_invocation(self, now: float) -> None:
        if self.state != SandboxState.BUSY:
            raise RuntimeError(
                f"{self.sandbox_id}: begin_invocation in state {self.state}"
            )
        self.last_used_at = now
        self.invocations += 1

    def end_invocation(self, now: float) -> None:
        if self.state != SandboxState.BUSY:
            raise RuntimeError(
                f"{self.sandbox_id}: end_invocation in state {self.state}"
            )
        self.state = SandboxState.IDLE
        self.last_used_at = now

    def set_limit(self, memory_mb: float) -> None:
        """Apply a new cgroup memory limit (the latency of the docker
        update path is charged by the caller, asynchronously per §6.4)."""
        if memory_mb <= 0:
            raise ValueError("memory limit must be positive")
        self.memory_limit_mb = memory_mb

    def kill(self) -> None:
        self.state = SandboxState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Sandbox {self.sandbox_id} fn={self.function_key} "
            f"{self.state.value} limit={self.memory_limit_mb}MB>"
        )
