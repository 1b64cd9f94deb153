"""History-based consistency checking for the chaos harness.

Two pieces:

* :mod:`repro.checks.history` — a recorder wrapped around the
  platform's dataclient factory, capturing every read/write/delete a
  function body issues (sim-time start/ack, status, payload identity,
  store version at ack) into one columnar :class:`History`;
* :mod:`repro.checks.invariants` — a checker over that history plus
  the deployment's end state: acked-write durability, dirty-final
  audit, no stale/shadow read after ack, read-your-writes within a
  pipeline, write-version monotonicity and a replication-level audit
  after recovery.

The recorder publishes a ``checks`` collector in the deployment's obs
registry, so ``repro report`` and the chaos grid surface violation
counts by invariant.
"""

from repro.checks.history import (
    History,
    HistoryRecorder,
    OpRecord,
    RecordingDataClient,
)
from repro.checks.invariants import Violation, check_history

__all__ = [
    "History",
    "HistoryRecorder",
    "OpRecord",
    "RecordingDataClient",
    "Violation",
    "check_history",
]
