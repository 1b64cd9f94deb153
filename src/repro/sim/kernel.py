"""Event loop and process machinery for the discrete-event simulator.

The design follows the classic process-interaction style: simulation
logic is written as Python generators that ``yield`` :class:`Event`
objects.  When a yielded event triggers, the process resumes with the
event's value; if the event failed, the exception is thrown into the
generator at the yield point.

Time is a float in **seconds**.  All ordering is deterministic: events
scheduled for the same instant fire in schedule order.

Hot-path notes
--------------
This module is the innermost loop of every experiment, so it trades a
little uniformity for speed:

* every event class uses ``__slots__`` and flattened constructors (no
  ``super().__init__`` chain on the per-occurrence path), and the
  constructors skip fields that are never read for that class (a
  :class:`Timeout` cannot fail, so ``defused`` is never consulted);
* ``callbacks`` stores ``None`` (no waiter), a single callable (the
  overwhelmingly common case: the one process blocked on the event) or
  a list (fan-in), avoiding a list allocation per event;
* occurrences scheduled for the *current* instant — process starts and
  terminations, ``succeed()``/``fail()``, zero timeouts — go to a FIFO
  deque (``_immediate``) instead of the heap: no entry tuple, no
  sequence number, O(1) at both ends.  Heap entries for a time ``T``
  are always older (pushed while the clock was still behind ``T``)
  than immediate entries created at ``T``, so draining heap-then-FIFO
  preserves the exact global schedule order;
* :meth:`Kernel.run` and :meth:`Kernel.run_until` are generated: one
  flat loop with callback delivery and the process resume inlined (see
  :mod:`repro.sim.fastpath`, which holds their source and is compiled
  and attached at the bottom of this module).  The plain spelling of
  the same loop is :meth:`Kernel.step` → :meth:`Event._run_callbacks`
  → :meth:`Process._resume`; tests drive it as the reference;
* tracing is decided once per kernel and costs nothing when off: a
  :class:`Process` carries no span state, and a kernel constructed with
  tracing on only has :meth:`Kernel.process` register one extra
  callback on the process's termination;
* starting a process enqueues the process object itself instead of a
  bootstrap :class:`Event`, and waiting on an already-processed event
  reuses the event's own delivery slot (``_redeliver``) instead of
  allocating a proxy :class:`Event` where that preserves ordering.

All of this changes wall-clock behaviour only: the delivery order of
every occurrence is identical to the straightforward implementation,
so seeded simulations produce bit-identical results (CI enforces this
against ``scripts/bench_baseline.json``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from math import inf, nextafter
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.obs.trace import tracer_for_clock

_INF = inf


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules its callbacks to run at the current
    simulation time.

    ``callbacks`` is a compact union: ``None`` when nobody waits, a bare
    callable for a single waiter, or a list for several.  Register
    through :meth:`wait`; never append to it directly.
    """

    __slots__ = (
        "kernel",
        "callbacks",
        "_state",
        "_value",
        "_exception",
        "defused",
        "_redeliver",
    )

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.callbacks: Any = None
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Set to True by a waiter (Process/AllOf) that consumed the failure,
        #: suppressing the "unhandled failed event" error.
        self.defused = False
        # Late-wait delivery slot (see wait()).
        self._redeliver: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event triggered successfully."""
        if self._state == _PENDING:
            raise SimulationError("event has not triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event has not triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.kernel._ipush(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        # (Re)initialize here so subclasses whose constructors skip the
        # field (Process) are safe to fail externally.
        self.defused = False
        self._state = _TRIGGERED
        self.kernel._ipush(self)
        return self

    def _run_callbacks(self) -> None:
        # NOTE: the generated Kernel.run/run_until inline the _TRIGGERED
        # arm of this method (fastpath._DISPATCH_ARMS); any change here
        # must be mirrored there.
        if self._state == _PROCESSED:
            # Redelivery slot for a waiter that registered after this
            # event was processed (see wait()); the failure, if any, was
            # already surfaced or defused the first time around.  A
            # processed event is on the queue only because wait() put
            # it there, so the slot is set.
            callbacks = self._redeliver
            self._redeliver = None
            for callback in callbacks:
                callback(self)
            return
        self._state = _PROCESSED
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self._state != _PROCESSED:
            callbacks = self.callbacks
            if callbacks is None:
                self.callbacks = callback
            elif callbacks.__class__ is list:
                callbacks.append(callback)
            else:
                self.callbacks = [callbacks, callback]
            return
        # Already done: deliver on a fresh queue slot, preserving the
        # invariant that callbacks never run re-entrantly.  The slot is
        # read guarded because flattened constructors skip it.
        try:
            redeliver = self._redeliver
        except AttributeError:
            redeliver = None
        if redeliver is None:
            # The event carries its own redelivery slot: no proxy Event.
            self._redeliver = [callback]
            self.kernel._ipush(self)
        else:
            # A redelivery is already in flight; a second late waiter
            # needs its own, later queue slot to keep the historical
            # delivery order, so fall back to a proxy event.
            proxy = Event(self.kernel)
            proxy.callbacks = callback
            proxy._value = self._value
            proxy._exception = self._exception
            if self._exception is not None:
                proxy.defused = True  # the original already surfaced/defused
            proxy._state = _TRIGGERED
            self.kernel._ipush(proxy)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    A timeout is born triggered and can never fail, so the flattened
    constructor skips ``defused``/``_redeliver`` (every read of those
    fields is either unreachable for timeouts or guarded).
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.kernel = kernel
        self.callbacks = None
        self._state = _TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        now = kernel.now
        when = now + delay
        if when == now:
            kernel._ipush(self)
        else:
            heappush(kernel._queue, (when, kernel._seqn(), self))


class Process(Event):
    """A running generator; also an event that triggers on termination.

    Besides events, a process may ``yield`` a bare ``float``/``int``
    delay — the fast sleep path.  The process itself is enqueued for
    the wake instant (no Timeout object, no callback registration),
    consuming exactly the sequence number the equivalent
    ``kernel.timeout(delay)`` would have, so the global schedule order
    is unchanged.  Nothing can take a process off the event or the
    sleep it is blocked on, so a pending process found on the queue is
    always due: its bootstrap slot or the end of its sleep.
    """

    __slots__ = ("generator", "name", "_cb", "_send", "_throw")

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        try:
            # Cached bound methods: saves an attribute lookup plus a
            # method-object allocation on every resume.
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError("Process requires a generator") from None
        self.kernel = kernel
        self.callbacks = None
        self._state = _PENDING
        self._value = None
        self._exception = None
        # defused is initialized by the failure-termination paths in
        # _resume — the only flows that ever read it for a process.
        self.generator = generator
        if name:
            self.name = name
        else:
            try:
                self.name = generator.__name__
            except AttributeError:
                self.name = "process"
        # The one bound resume callback this process ever registers;
        # binding it once avoids a method-object allocation per yield.
        self._cb = self._resume
        # Bootstrap: the process object itself takes the queue slot the
        # first resume fires from (no kick Event needed).
        kernel._ipush(self)

    def _run_callbacks(self) -> None:
        if self._state == _PENDING:
            # A pending process on the queue is its bootstrap slot or
            # its sleep wake: resumable either way.
            self._resume(_BOOTSTRAP)
            return
        Event._run_callbacks(self)

    def _resume(self, event: Event) -> None:
        """Advance the generator once.

        NOTE: the generated Kernel.run/run_until inline this method
        (fastpath._ADVANCE); any change here must be mirrored there.
        """
        kernel = self.kernel
        try:
            exc = event._exception
            if exc is None:
                target = self._send(event._value)
            else:
                event.defused = True
                target = self._throw(exc)
        except StopIteration as stop:
            self._value = stop.value
            self._state = _TRIGGERED
            kernel._ipush(self)
            return
        except BaseException as failure:  # noqa: BLE001 - propagate via event
            # Any escape terminates the process as a failure of its event.
            self._exception = failure
            self.defused = False
            self._state = _TRIGGERED
            kernel._ipush(self)
            return
        # Fast sleep path: a bare delay re-enqueues the process itself.
        cls = target.__class__
        if cls is float or cls is int:
            if target < 0:
                raise SimulationError(f"negative sleep delay: {target}")
            now = kernel.now
            when = now + target
            if when == now:
                kernel._ipush(self)
            else:
                heappush(kernel._queue, (when, kernel._seqn(), self))
            return
        # Duck-typed Event check: every Event carries ``kernel``, so the
        # identity test doubles as the type test (saves an isinstance per
        # yield on the hot path).
        try:
            foreign = target.kernel is not kernel
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            ) from None
        if foreign:
            raise SimulationError("yielded an event from another kernel")
        if target._state != _PROCESSED:
            callbacks = target.callbacks
            if callbacks is None:
                target.callbacks = self._cb
            elif callbacks.__class__ is list:
                callbacks.append(self._cb)
            else:
                target.callbacks = [callbacks, self._cb]
        else:
            target.wait(self._cb)


#: Shared sentinel delivered on a process's first resume: a bare Event
#: shell whose only readable fields are a None value and no exception.
_BOOTSTRAP = Event.__new__(Event)
_BOOTSTRAP._value = None
_BOOTSTRAP._exception = None


class AllOf(Event):
    """Triggers when all constituent events have triggered.

    Fails as soon as any constituent fails.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._pending = 0
        for event in self.events:
            if event.kernel is not self.kernel:
                raise SimulationError("mixing events of different kernels")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            self._pending += 1
            event.wait(self._check)

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if self._state != _PENDING:
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        elif self._pending == 0:
            # Every member has been processed (a Timeout is born
            # triggered, but has not occurred until its callbacks run)
            # and none failed.
            self.succeed({member: member._value for member in self.events})


class Kernel:
    """The event loop.

    Future occurrences live on a heap of ``(time, seq, event)``;
    occurrences for the current instant live on the ``_immediate`` FIFO.
    At any instant the heap's same-time entries are strictly older than
    every ``_immediate`` entry, so the drain order heap-then-FIFO equals
    the classic single-heap schedule order.
    """

    __slots__ = (
        "now",
        "_queue",
        "_immediate",
        "_ipush",
        "_seqn",
        "tracer",
        "_tracing",
    )

    def __init__(self):
        #: The virtual clock, in seconds.  A plain slot, not a property:
        #: every layer reads it several times per operation.  Only the
        #: dispatch loop (``run``/``run_until``/``step``) writes it.
        self.now = 0.0
        self._queue: List = []
        self._immediate: deque = deque()
        # Cached bound methods for the hot push paths: `kernel._ipush(e)`
        # appends to the FIFO, `kernel._seqn()` mints the next heap
        # sequence number (monotonic from 1, so schedule order ties break
        # identically to the classic counter).
        self._ipush = self._immediate.append
        self._seqn = count(1).__next__
        #: Observability hook: the shared no-op tracer unless tracing was
        #: globally enabled (see :mod:`repro.obs.trace`) before this
        #: kernel was built.  Components reach it as ``kernel.tracer``.
        self.tracer = tracer_for_clock(lambda: self.now)
        # Cached once: whether process() attaches a span (see below).
        self._tracing = self.tracer.enabled

    # -- factories -------------------------------------------------------

    def event(self, _new=Event.__new__, _cls=Event) -> Event:
        # Flattened copy of Event.__init__ (same trick as timeout()).
        event = _new(_cls)
        event.kernel = self
        event.callbacks = None
        event._state = _PENDING
        event._value = None
        event._exception = None
        event.defused = False
        event._redeliver = None
        return event

    def timeout(
        self,
        delay: float,
        value: Any = None,
        _new=Timeout.__new__,
        _cls=Timeout,
        _push=heappush,
    ) -> Timeout:
        # Flattened copy of Timeout.__init__: timeouts dominate event
        # traffic, so the factory skips the extra constructor frame (and
        # binds its globals as defaults — the classic CPython trick).
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        timeout = _new(_cls)
        timeout.kernel = self
        timeout.callbacks = None
        timeout._state = _TRIGGERED
        timeout._value = value
        timeout._exception = None
        timeout.delay = delay
        now = self.now
        when = now + delay
        if when == now:
            self._ipush(timeout)
        else:
            _push(self._queue, (when, self._seqn(), timeout))
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        proc = Process(self, generator, name=name)
        if self._tracing:
            # The ``sim.process`` span closes from a callback on the
            # process's own termination event, so a traced kernel runs
            # the same loop, arm for arm, as an untraced one.
            span = self.tracer.start("sim.process", process=proc.name)

            def close_span(_event: Event) -> None:
                span.finish(status="ok" if proc._exception is None else "failed")

            proc.callbacks = close_span
        return proc

    def call_later(
        self,
        delay_fn: Callable[[], float],
        callback: Optional[Callable[[Event], None]] = None,
        _new=Event.__new__,
        _cls=Event,
    ) -> None:
        """Run ``callback`` after ``delay_fn()`` sim-seconds, cheaply.

        Drop-in replacement for the fire-and-forget pattern

            def task():
                yield delay_fn()
                callback_body()
            kernel.process(task())  # handle discarded

        without the generator, Process, or two resume frames — while
        consuming *exactly* the queue slots of that process, so
        schedules stay bit-identical:

        * an arming event on the FIFO **now**, whose callback runs at
          the process's bootstrap-resume position and evaluates
          ``delay_fn`` there (RNG draws land at the same point in the
          stream as the generator body would draw them);
        * the fire event on the heap (or FIFO for a zero/underflowed
          delay), minting its sequence number at that same position —
          ``callback`` runs where the post-sleep body would.

        The generic process also ipushes a no-op termination event; with
        the handle discarded it has no callbacks and no observable
        effect, so it is elided.  Exceptions from ``callback`` surface
        out of ``run()`` at the wake instant, like a process failure.
        """
        kernel = self

        def _arm(_event: Event) -> None:
            fire = kernel.timeout(delay_fn())
            if callback is not None:
                fire.callbacks = callback

        arming = _new(_cls)
        arming.kernel = kernel
        arming.callbacks = _arm
        arming._state = _TRIGGERED
        arming._value = None
        arming._exception = None
        arming.defused = False
        self._ipush(arming)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process exactly one occurrence, the straightforward way.

        ``run``/``run_until`` do not call this (they inline it); it is
        the reference they are tested against, and a debugging aid.
        """
        queue = self._queue
        immediate = self._immediate
        if queue and (not immediate or queue[0][0] == self.now):
            when, _seq, event = heappop(queue)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
        else:
            event = immediate.popleft()  # IndexError mirrors empty heap
        event._run_callbacks()

    # run() and run_until() are generated: see the bottom of the module.

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if proc._state == _PENDING:
            raise SimulationError(
                f"process {proc.name!r} deadlocked (queue drained while waiting)"
            )
        return proc.value


def delay_until(now: float, t: float) -> float:
    """The bare delay that takes a process sleeping at ``now`` to ``t``.

    A process that yields the float ``d`` wakes at ``now + d``; a model
    that has computed the wake instant ``t`` itself (several float
    additions folded in a fixed order, say) needs the ``d >= 0`` with
    ``now + d == t`` to land on it in one kernel occurrence.  For
    ``t / 2 <= now <= t`` the subtraction is exact (Sterbenz) and
    ``t - now`` is that delay.  Below ``t / 2`` it may be off by one
    rounding, so the neighbouring floats are tried; and for about one
    such pair in twenty *no* float works (every ``now + d`` near ``t``
    is a rounding tie that resolves to ``t``'s even neighbours).  Then
    the result stops just short, ``t / 2 <= now + d < t``, from where a
    second call is exact — callers loop until the clock reads ``t``.
    The result never overshoots.
    """
    d = t - now
    if now + d != t:
        for near in (nextafter(d, inf), nextafter(d, 0.0)):
            if now + near == t:
                return near
        while now + d > t:
            d = nextafter(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# Kernel.run / Kernel.run_until: generated by repro.sim.fastpath from one
# dispatch template and compiled once per interpreter.  Imported last so
# the fastpath module can be handed this module's internals without a
# circular import.
from repro.sim import fastpath as _fastpath  # noqa: E402

Kernel.run, Kernel.run_until = _fastpath.compile_dispatch(
    {
        "heappop": heappop,
        "heappush": heappush,
        "_PENDING": _PENDING,
        "_TRIGGERED": _TRIGGERED,
        "_PROCESSED": _PROCESSED,
        "_INF": _INF,
        # The fused delivery arms recognize a process-resume callback by
        # identity: a bound method whose function is Process._resume.
        "_MethodType": type(_BOOTSTRAP._run_callbacks),
        "_PROC_RESUME": Process._resume,
        "SimulationError": SimulationError,
    }
)
