"""One reap timer per invocation end: the oracle of the keep-alive
deadline.

This is the reaper ``Invoker`` ran before each sandbox kept one
deadline: every invocation end armed its own ``call_later`` timer for
``timeout_for(sandbox)`` seconds, and a timer reaped its sandbox only if
the sandbox was still alive, idle and unused since that end.  The
production invoker keeps one deadline and at most one pending timer per
sandbox; ``tests/faas/test_reap_oracle.py`` requires both to reap the
same sandboxes at the same instants.

The deleted code told "unused since" by a generation counter bumped at
``reserve`` and at ``end_invocation``.  This copy reads
``Sandbox.invocations`` (bumped at ``begin_invocation``) instead: a
sandbox reserved but not yet begun is busy, which no timer reaps
either way.
"""

from repro.faas.invoker import Invoker


class ReferenceReapInvoker(Invoker):
    """An :class:`Invoker` whose keep-alive arms a timer per invocation."""

    def _schedule_reap(self, sandbox) -> None:
        served = sandbox.invocations
        timeout_s = self.keepalive_policy.timeout_for(sandbox)

        def reap(_event):
            if sandbox.alive and sandbox.idle and sandbox.invocations == served:
                self.destroy_sandbox(sandbox, reaped=True)

        self.kernel.call_later(lambda: timeout_s, reap)
