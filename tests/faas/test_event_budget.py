"""What one warm invocation costs the kernel, as exact counts.

The invocation path schedules one bare delay per modelled latency and
allocates an event only where something waits on it.  These counts are
the machine-independent guard of that: a Transform phase simulated
slice by slice again, or an RSDS operation that goes back to
``kernel.timeout()``, moves them.
"""

import sys

import numpy as np

from repro.bench.envs import build_owk_swift_env
from repro.faas.records import InvocationRequest
from repro.sim.kernel import Kernel, Process, Timeout
from repro.sim.latency import KB
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
    timeouts = []  # the module that asked for each Timeout
    process_init, timeout_init, timeout_factory = (
        Process.__init__, Timeout.__init__, Kernel.timeout,
    )

    def counted_process(self, *a, **kw):
        processes.append(self)
        process_init(self, *a, **kw)

    def counted_timeout_init(self, *a, **kw):
        timeouts.append(sys._getframe(1).f_globals["__name__"])
        timeout_init(self, *a, **kw)

    def counted_timeout_factory(self, *a, **kw):
        timeouts.append(sys._getframe(1).f_globals["__name__"])
        return timeout_factory(self, *a, **kw)

    monkeypatch.setattr(Process, "__init__", counted_process)
    monkeypatch.setattr(Timeout, "__init__", counted_timeout_init)
    monkeypatch.setattr(Kernel, "timeout", counted_timeout_factory)

    record = invoke()

    assert record.status == "ok" and not record.cold_start
    # The invocation itself; reap timer and docker-update are call_later.
    assert len(processes) == 1
    # The keep-alive reap timer's fire event, armed by call_later; the
    # RSDS read and write sleep on bare delays.
    assert timeouts == ["repro.sim.kernel"]
    # Extract: slot grant + GET latency.  Transform: one sleep (no limit
    # crossing).  Load: slot grant + PUT latency.
    assert len(resumptions) == 5
    assert resumptions[2] - resumptions[1] == record.phases.transform
