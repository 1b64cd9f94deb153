"""``Resource.acquire()`` against the grant it replaced.

A free unit is granted as the bare delay ``0.0``; the oracle below is
the older form, a fresh :class:`Event` that ``succeed()``s at once.  A
process that yields either is re-queued on the FIFO at the same slot
and resumes with ``None``, so every schedule must be the same: the
(time, tag) log of every process, the final clock, and the heap
sequence numbers the run mints, under both the drain loop
(``Kernel.run``) and the ``step()`` loop of
:mod:`tests.sim.reference_kernel`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Kernel, Resource
from tests.sim.reference_kernel import StepKernel


class GrantResource(Resource):
    """The oracle: every ``acquire()`` builds an Event, succeeded when a
    unit is free."""

    def acquire(self):
        event = Event(self.kernel)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event


N_EVENTS = 2
#: Few distinct values, so equal instants are common; the ints take the
#: ``cls is int`` branch of the sleep arm.
_delays = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 2.5])
_event_ids = st.integers(0, N_EVENTS - 1)
#: Something a process does around its grant that touches the kernel.
_side_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), _delays),
        st.tuples(st.just("timeout"), _delays),
        st.tuples(st.just("wait"), _event_ids),
        st.tuples(st.just("succeed"), _event_ids),
    ),
    max_size=2,
)
_acquirers = st.lists(
    st.tuples(
        _delays,  # arrival
        _side_ops,  # before acquiring
        st.sampled_from(["sleep", "timeout"]),  # how the unit is held
        _delays,  # hold, zero or positive
        _side_ops,  # while holding
    ),
    min_size=1,
    max_size=8,
)
#: Processes that never touch the resource: interleaved plain traffic.
_bystanders = st.lists(_side_ops, max_size=3)


def _execute(kernel_cls, resource_cls, capacity, acquirers, bystanders, until):
    k = kernel_cls()
    mints = []
    minted = k._seqn

    def logged_mint():
        n = minted()
        mints.append((k.now, n))
        return n

    k._seqn = logged_mint
    resource = resource_cls(k, capacity)
    events = [k.event() for _ in range(N_EVENTS)]
    log = []

    def side(pid, ops):
        for n, (kind, arg) in enumerate(ops):
            if kind == "sleep":
                yield arg
            elif kind == "timeout":
                yield k.timeout(arg)
            elif kind == "wait":
                got = yield events[arg]
                log.append((k.now, pid, n, "woken", got))
            elif not events[arg].triggered:
                events[arg].succeed((pid, n))
            log.append((k.now, pid, n, kind))

    def acquirer(pid, arrival, before, hold_kind, hold, during):
        yield arrival
        yield from side(pid, before)
        got = yield resource.acquire()
        log.append((k.now, pid, "granted", got, resource.in_use))
        if hold_kind == "sleep":
            yield hold
        else:
            yield k.timeout(hold)
        yield from side(pid, during)
        resource.release()
        log.append((k.now, pid, "released", resource.in_use))

    for pid, spec in enumerate(acquirers):
        k.process(acquirer(pid, *spec))
    for pid, ops in enumerate(bystanders, start=len(acquirers)):
        k.process(side(pid, ops))
    if until is not None:
        k.run(until=until)
        log.append((k.now, "sliced", resource.in_use, len(resource._waiters)))
    k.run()
    return log, k.now, resource.in_use, len(resource._waiters), mints


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    _acquirers,
    _bystanders,
    st.one_of(st.none(), _delays),
)
def test_zero_delay_grant_equals_event_grant(capacity, acquirers, bystanders, until):
    outcomes = {}
    for kernel_cls in (Kernel, StepKernel):
        ours = _execute(kernel_cls, Resource, capacity, acquirers, bystanders, until)
        oracle = _execute(
            kernel_cls, GrantResource, capacity, acquirers, bystanders, until
        )
        assert ours == oracle, kernel_cls.__name__
        outcomes[kernel_cls] = ours[:4]
    # Direct resume mints differently on the two loops; nothing else may.
    assert outcomes[Kernel] == outcomes[StepKernel]


def test_only_a_queued_acquirer_gets_an_event():
    kernel = Kernel()
    resource = Resource(kernel, capacity=2)
    assert resource.acquire() == 0.0 and resource.acquire() == 0.0
    waiting = resource.acquire()
    assert isinstance(waiting, Event) and not waiting.triggered
    resource.release()
    assert waiting.triggered and resource.in_use == 2
