"""The dispatch oracle: ``run``/``run_until`` as plain ``step()`` calls.

``Kernel.step()`` → ``Event/Process._run_callbacks`` → the hand-written
``Process._resume`` is the straightforward spelling of the generated
loop in :mod:`repro.sim.fastpath`.  Suites compare the two on a
:class:`StepKernel`, or — where the kernel is built deep inside a
deployment — with ``monkeypatch.setattr(Kernel, "run", StepKernel.run)``.
"""

from repro.sim.kernel import Kernel, SimulationError


class StepKernel(Kernel):
    __slots__ = ()

    def run(self, until=None):
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        limit = float("inf") if until is None else until
        while self._immediate or (self._queue and self._queue[0][0] <= limit):
            self.step()
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, event):
        while not event.processed:
            if not self._immediate and not self._queue:
                raise SimulationError(
                    "queue drained before the awaited event triggered"
                )
            self.step()
        return event.value


def use_step_dispatch(monkeypatch):
    """Route every ``Kernel`` built from here on through ``step()``."""
    monkeypatch.setattr(Kernel, "run", StepKernel.run)
    monkeypatch.setattr(Kernel, "run_until", StepKernel.run_until)
