"""What one warm invocation costs the kernel, as exact counts.

The invocation path schedules one bare delay per modelled latency and
allocates an event only where something waits on it.  These counts are
the machine-independent guard of that: a Transform phase simulated
slice by slice again, or an RSDS operation that goes back to
``kernel.timeout()``, moves them.

A warm stock invocation builds, per attempt, no ``DirectStoreClient``
(the platform shares one), no ``SizingDecision`` (none without a sizing
policy) and no plain :class:`Event` for its two uncontended RSDS slot
grants, which are bare ``0.0`` delays.  What it still allocates per
invocation:

* the ``InvocationRequest`` and ``InvocationRecord`` (with its
  ``Phases`` and a one-ref ``output_refs`` tuple; the ``features`` and a
  discrete function's ``args`` are shared values, not built per call);
* the invocation's :class:`Process` and ``InvocationContext``;
* on the data plane, the PUT's stored object and its metadata (the GET
  and the PUT return the stored records themselves, not copies);
* the generator frames of the body and of the data-plane calls.

Nothing for the keep-alive: the invocation end moves the sandbox's
deadline later, and the one reap timer the cold start armed stays
pending until it fires (and re-arms onto the deadline).

The request, record, phases, context, stored objects and metadata are
all slotted (``repro.slotted``, or ``__slots__`` on
``InvocationContext``), so none of them allocates an instance
``__dict__``: the only dicts and lists above are field values.
"""

import sys

import numpy as np

from repro.bench.envs import build_owk_swift_env
from repro.faas.dataclient import DirectStoreClient
from repro.faas.platform import SizingDecision
from repro.faas.records import InvocationRequest
from repro.faas.sandbox import Sandbox
from repro.sim.kernel import Event, Kernel, Process
from repro.sim.latency import KB
from repro.workloads.faasload import FaaSLoad, TenantSpec
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus
from tests.faas.conftest import logging_resumptions


def test_one_warm_invocation_event_budget(monkeypatch):
    env = build_owk_swift_env(seed=0)
    kernel, store, platform = env.kernel, env.store, env.platform
    model = get_function_model("wand_blur")
    spec = model.spec(tenant="t0", booked_mb=2048)
    resumptions = []
    spec.body = logging_resumptions(spec.body, resumptions)
    platform.register_function(spec)
    media = MediaCorpus(np.random.default_rng(0)).image(64 * KB)
    args = model.sample_args(np.random.default_rng(0))

    def invoke():
        request = InvocationRequest(
            function="wand_blur", tenant="t0", args=args, input_ref="inputs/in"
        )
        return kernel.run_until(kernel.process(platform.invoke(request)))

    seed_input = store.put(
        "inputs", "in", media, size=media.size, user_meta=media.features()
    )
    kernel.run_until(kernel.process(seed_input))
    assert invoke().cold_start
    del resumptions[:]

    processes = []
    timeouts = []  # the module that asked for each Kernel.timeout
    process_init, timeout_factory = Process.__init__, Kernel.timeout

    def counted_process(self, *a, **kw):
        processes.append(self)
        process_init(self, *a, **kw)

    def counted_timeout_factory(self, *a, **kw):
        timeouts.append(sys._getframe(1).f_globals["__name__"])
        return timeout_factory(self, *a, **kw)

    monkeypatch.setattr(Process, "__init__", counted_process)
    monkeypatch.setattr(Kernel, "timeout", counted_timeout_factory)

    # Plain events and call_later timers, by the module that asked for
    # each.
    events, timers = [], []
    per_attempt = []  # data clients and sizing decisions
    event_init, event_factory, call_later = (
        Event.__init__, Kernel.event, Kernel.call_later,
    )
    client_init, decision_init = DirectStoreClient.__init__, SizingDecision.__init__

    def counted_event_init(self, *a, **kw):
        events.append(sys._getframe(1).f_globals["__name__"])
        event_init(self, *a, **kw)

    def counted_event_factory(self, *a, **kw):
        events.append(sys._getframe(1).f_globals["__name__"])
        return event_factory(self, *a, **kw)

    def counted_call_later(self, *a, **kw):
        timers.append(sys._getframe(1).f_globals["__name__"])
        return call_later(self, *a, **kw)

    def counted(init):
        def construct(self, *a, **kw):
            per_attempt.append(type(self).__name__)
            init(self, *a, **kw)

        return construct

    monkeypatch.setattr(Event, "__init__", counted_event_init)
    monkeypatch.setattr(Kernel, "event", counted_event_factory)
    monkeypatch.setattr(Kernel, "call_later", counted_call_later)
    monkeypatch.setattr(DirectStoreClient, "__init__", counted(client_init))
    monkeypatch.setattr(SizingDecision, "__init__", counted(decision_init))

    record = invoke()

    assert record.status == "ok" and not record.cold_start
    # The invocation itself; docker-update (no resize here) is call_later.
    assert len(processes) == 1
    # No timer and no timeout: the sandbox's reap timer is already
    # armed for an earlier instant than the new deadline, and the RSDS
    # read and write (repro.storage.object_store) sleep on bare delays.
    assert timers == []
    assert timeouts == []
    # No plain event: the two uncontended slot grants allocate none.
    assert events == []
    assert per_attempt == []
    # Extract: slot grant + GET latency.  Transform: one sleep (no limit
    # crossing).  Load: slot grant + PUT latency.
    assert len(resumptions) == 5
    assert resumptions[2] - resumptions[1] == record.phases.transform


def test_pending_reap_timers_are_one_per_live_sandbox():
    """After a FaaSLoad run has drained, the heap holds nothing but
    keep-alive reap timers, at most one per live sandbox."""
    env = build_owk_swift_env(nodes=2, node_mb=16384.0, seed=0)
    load = FaaSLoad(env.kernel, env.platform, env.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(
                tenant_id=f"tenant-{function}",
                workload=function,
                mean_interval_s=2.0,
                arrival="exponential",
                input_sizes=[16 * KB, 64 * KB],
                n_inputs=2,
            )
            for function in ("wand_blur", "wand_sepia", "wand_resize", "wand_edge")
        ]
    )
    load.run(180.0)
    live = [s for invoker in env.platform.invokers for s in invoker.sandboxes]
    assert sum(t.invocations_fired for t in load.tenants) > 300
    assert len(live) >= 4
    timers = [entry[2]._value for entry in env.kernel._queue]
    assert all(type(sandbox) is Sandbox for sandbox in timers)
    assert len({id(sandbox) for sandbox in timers}) == len(timers) <= len(live)
