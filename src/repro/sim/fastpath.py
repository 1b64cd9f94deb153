"""The source of :meth:`Kernel.run` and :meth:`Kernel.run_until`.

The event-dispatch loop is emitted as Python source at import time,
``exec``-compiled once, and the two resulting functions *are*
``Kernel.run`` and ``Kernel.run_until`` (assigned at the bottom of
:mod:`repro.sim.kernel`).  There is no other loop and no switch: every
kernel — clean, fault-injected, traced — executes this code.

What is generated, and why
--------------------------
The per-occurrence dispatch (:data:`_DISPATCH_ARMS`, about 190 lines
once expanded) has three call sites — the heap drain and the FIFO drain
of ``run``, and the single drain of ``run_until`` — that differ in two
guards only (``run`` bounds direct resume by its ``until`` limit,
``run_until`` refuses it while delivering the awaited event).  A
function call per occurrence is what the loop exists to avoid, so the
arms are pasted inline at each site from one template.  Inside the
arms, the three places a generator is advanced (a process wake, a
single-waiter delivery, each element of a fan-in delivery) are one
template too: :data:`_ADVANCE`.

What the loop fuses, relative to dispatching every occurrence through
``Event._run_callbacks`` → ``Process._resume``:

* the heap/FIFO drain, the ``_TRIGGERED`` delivery arm and the process
  resume are one flat function — a process wake runs the generator
  ``send`` directly (two frames per event saved);
* **fused callback delivery**: a triggered event whose waiter is a
  :class:`Process` (the overwhelmingly common case — one process
  blocked on a timeout, an event or another process; a process waits as
  itself, so the class test is the whole check) delivers by running the
  generator ``send``/``throw`` inline, and list (fan-in) deliveries
  inline each process element the same way;
  only foreign callables (condition checks, ``call_later`` arms, span
  closers, user hooks) still dispatch through a call;
* **direct resume**: when a resumed process yields a positive delay and
  its wake instant is strictly earlier than everything on the heap
  (with the FIFO empty), the loop advances the clock and resumes the
  generator immediately — no heap push/pop, no sequence number.

All are order-preserving, so schedules are bit-identical to the step
reference below:

* :data:`_ADVANCE` executes the statements of ``Process._resume`` in
  the same order, including the ``defused`` handshake on the throw
  path, so a fused failure delivery can never leave an un-defused
  exception behind;
* direct resume fires only when the woken process would be the next
  occurrence regardless of its sequence number (strictly earliest wake
  time, empty FIFO), and nothing else can run between the skipped push
  and the skipped pop, so no observer exists for the elided heap
  entry.  Skipping the sequence-number mint is safe because sequence
  numbers only break ties between co-resident heap entries and the
  skipped mint leaves every other mint in the same relative order.
  Fan-in deliveries never direct-resume: the clock must not move while
  later callbacks of the same event are still pending delivery.

The step reference
------------------
The straightforward implementation stays in the kernel as ordinary
methods: :meth:`Kernel.step` pops one occurrence and calls
``Event._run_callbacks`` / ``Process._run_callbacks``, which call the
hand-written ``Process._resume``.  ``tests/sim/reference_kernel.py``
wraps ``step()`` in a ``run``/``run_until`` pair (``StepKernel``); the
parity, property and fault-replay suites require this loop and that one
to produce equal traces.
"""

from __future__ import annotations

__all__ = ["compile_dispatch", "dispatch_source"]

# ---------------------------------------------------------------------------
# Source templates.
# ---------------------------------------------------------------------------

#: Advance ``{proc}``'s generator until it blocks, schedules a wake that
#: something else precedes, or terminates — ``Process._resume``, inlined.
#: ``when`` is the current instant (updated in place on direct resume so
#: the enclosing drain keeps using the advanced clock).  ``{first}``
#: sends or throws into the generator; ``{direct_resume}`` is the
#: direct-resume branch or nothing, in which case the ``while`` never
#: loops and only gives every arm the same ``break`` exit.
_ADVANCE = """\
send = {proc}._send
while True:
    try:
{first}
    except StopIteration as stop:
        {proc}._value = stop.value
        {proc}._state = _TRIGGERED
        ipush({proc})
        break
    except BaseException as failure:
        {proc}._exception = failure
        {proc}.defused = False
        {proc}._state = _TRIGGERED
        ipush({proc})
        break
    cls = target.__class__
    if cls is float or cls is int:
        if target < 0:
            raise SimulationError(f"negative sleep delay: {{target}}")
        wake = when + target
        if wake == when:
            ipush({proc})
            break
{direct_resume}
        heappush(queue, (wake, seqn(), {proc}))
        break
    try:
        foreign = target.kernel is not kernel
    except AttributeError:
        raise SimulationError(
            f"process {{{proc}.name!r}} yielded {{target!r}}, "
            "expected an Event"
        ) from None
    if foreign:
        raise SimulationError("yielded an event from another kernel")
    if target._state != _PROCESSED:
        waiters = target.callbacks
        if waiters is None:
            target.callbacks = {proc}
        elif waiters.__class__ is list:
            waiters.append({proc})
        else:
            target.callbacks = [waiters, {proc}]
    else:
        target.wait({proc})
    break"""

#: ``{direct_resume}``: the wake is the next occurrence whatever its
#: sequence number, so skip the heap round trip.  ``value = None`` makes
#: the continuation of a delivery a plain ``send(None)`` (a dead store
#: in the wake instance, which always sends None).
_DIRECT_RESUME = """\
        if not immediate and (not queue or wake < queue[0][0]){guard}:
            kernel.now = when = wake
            value = None
            continue"""

#: ``{first}`` for a process wake (bootstrap or end of a bare sleep).
_SEND_NONE = """\
        target = send(None)"""

#: ``{first}`` for a delivery of ``event`` to ``proc``: the value, or a
#: throw after the ``defused`` handshake when the event failed.
_SEND_OUTCOME = """\
        if exc is None:
            target = send(value)
        else:
            event.defused = True
            target = proc._throw(exc)
            exc = None"""


def _advance(proc: str, first: str, guard=None) -> str:
    """:data:`_ADVANCE` for ``proc``; ``guard`` (extra direct-resume
    conditions, possibly empty) enables direct resume, None omits it."""
    direct = "" if guard is None else _DIRECT_RESUME.format(guard=guard)
    source = _ADVANCE.format(proc=proc, first=first, direct_resume=direct)
    return "\n".join(line for line in source.split("\n") if line)


#: One occurrence.  ``_TRIGGERED``: Event._run_callbacks without the
#: method call, process resumes fused through :data:`_ADVANCE` (the
#: fused single-resume branch skips the unhandled-failure tail: a failed
#: event delivered to a process is defused on the throw path, so the
#: tail can never raise there).  ``_PENDING``: a process bootstrap or
#: sleep wake, always due, so the arm is the bare advance.
#: ``_PROCESSED``: late-wait redelivery, via the method.
_DISPATCH_ARMS = """\
state = event._state
if state == _TRIGGERED:
    event._state = _PROCESSED
    callbacks = event.callbacks
    if callbacks is None:
        exc = event._exception
        if exc is not None and not event.defused:
            raise exc
    elif callbacks.__class__ is Process:
        event.callbacks = None
        proc = callbacks
        value = event._value
        exc = event._exception
{deliver_one}
    else:
        event.callbacks = None
        if callbacks.__class__ is list:
            for callback in callbacks:
                if callback.__class__ is not Process:
                    callback(event)
                    continue
                proc = callback
                value = event._value
                exc = event._exception
{deliver_each}
        else:
            callbacks(event)
        exc = event._exception
        if exc is not None and not event.defused:
            raise exc
elif state == _PENDING:
{wake}
else:
    event._run_callbacks()"""

_RUN_TEMPLATE = '''\
def run(kernel, until=None):
    """Run until the queue drains or the clock reaches ``until``.

    When ``until`` is given, the clock is advanced to exactly
    ``until`` even if the queue drains earlier.
    """
    if until is not None and until < kernel.now:
        raise SimulationError(
            f"until={{until}} is in the past (now={{kernel.now}})"
        )
    limit = _INF if until is None else until
    queue = kernel._queue
    immediate = kernel._immediate
    ipush = kernel._ipush
    seqn = kernel._seqn
    popleft = immediate.popleft
    while True:
        # Pick the next instant.  Leftovers on the FIFO (only after a
        # partial run_until) happen now — and heap entries already at
        # the current instant (same provenance) are older still, so
        # the cold branch drains those first.
        if immediate:
            when = kernel.now
            while queue and queue[0][0] == when:
                heappop(queue)[2]._run_callbacks()
        elif queue:
            # Speculative pop: the heap top is the next instant unless
            # it lies beyond `limit` (rare — push it back).
            entry = heappop(queue)
            when = entry[0]
            if when > limit:
                heappush(queue, entry)
                break
            kernel.now = when
            event = entry[2]
            # Drain the heap at `when`: all entries for this instant
            # are already on the heap (a push while the clock sits at
            # `when` goes to the FIFO).
            while True:
{heap_arms}
                if not queue or queue[0][0] != when:
                    break
                event = heappop(queue)[2]
        else:
            break
        # Then the FIFO, which may grow while draining (strictly
        # younger than every heap entry for this instant).
        while immediate:
            event = popleft()
{fifo_arms}
    if until is not None:
        kernel.now = max(kernel.now, until)
'''

_RUN_UNTIL_TEMPLATE = '''\
def run_until(kernel, target_event):
    """Step the loop only until ``target_event`` completes, then stop.

    Unlike :meth:`run_process`, pending future work (keep-alive
    timers, background persistors, …) is left on the queue, so the
    clock does not race ahead of the event being waited on.
    """
    queue = kernel._queue
    immediate = kernel._immediate
    ipush = kernel._ipush
    seqn = kernel._seqn
    popleft = immediate.popleft
    while target_event._state != _PROCESSED:
        if queue and (not immediate or queue[0][0] == kernel.now):
            entry = heappop(queue)
            when = entry[0]
            kernel.now = when
            event = entry[2]
        elif immediate:
            event = popleft()
            when = kernel.now
        else:
            raise SimulationError(
                "queue drained before the awaited event triggered"
            )
{arms}
    return target_event.value
'''


def _indent(block: str, pad: str) -> str:
    return "\n".join(pad + line for line in block.split("\n"))


def _arms(limit_guard: str, target_guard: str) -> str:
    """The three-state dispatch arms, every advance specialized."""
    return _DISPATCH_ARMS.format(
        wake=_indent(_advance("event", _SEND_NONE, guard=limit_guard), " " * 4),
        deliver_one=_indent(
            _advance("proc", _SEND_OUTCOME, guard=limit_guard + target_guard),
            " " * 8,
        ),
        deliver_each=_indent(_advance("proc", _SEND_OUTCOME), " " * 16),
    )


def dispatch_source() -> str:
    """The generated module source (exposed for tests/inspection)."""
    run_arms = _arms(limit_guard=" and wake <= limit", target_guard="")
    # Delivering the awaited event itself must hand control back to the
    # drain, which stops at this instant.
    until_arms = _arms(
        limit_guard="", target_guard=" and event is not target_event"
    )
    run_src = _RUN_TEMPLATE.format(
        heap_arms=_indent(run_arms, " " * 16),
        fifo_arms=_indent(run_arms, " " * 12),
    )
    until_src = _RUN_UNTIL_TEMPLATE.format(arms=_indent(until_arms, " " * 8))
    return run_src + "\n\n" + until_src


def compile_dispatch(kernel_internals: dict) -> tuple:
    """Exec-compile the loops; returns ``(run, run_until)``.

    Called once from the bottom of :mod:`repro.sim.kernel`;
    ``kernel_internals`` supplies ``heappush``/``heappop``, the event
    state constants, the ``Process`` class the fused delivery arms
    recognize a waiter by and ``SimulationError``, so this module never
    imports the kernel (no circular import).  The pseudo file name
    ``<sim-fastpath>`` is what profiles and tracebacks attribute the
    loop to (``perf/attribution.py`` files it under the ``sim`` layer).
    """
    namespace = dict(kernel_internals)
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(dispatch_source(), "<sim-fastpath>", "exec"), namespace
    )
    return namespace["run"], namespace["run_until"]
