"""Worker nodes: sandbox lifecycle and invocation execution."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.faas.dataclient import DataClient
from repro.faas.errors import FaaSError, OOMKilled, ResourceExhausted
from repro.faas.keepalive import FixedKeepAlive, KeepAlivePolicy
from repro.faas.records import InvocationRecord
from repro.faas.registry import FunctionSpec
from repro.faas.sandbox import Sandbox, SandboxState
from repro.sim.kernel import delay_until, Event, Kernel
from repro.sim.latency import COLD_START, DOCKER_UPDATE, WARM_START

#: Simulation granularity of the Transform phase's memory ramp: the
#: footprint grows linearly across this many slices, and cgroup-limit
#: crossings (OOM, monitor rescue) are detected at slice boundaries.
COMPUTE_SLICES = 20

#: Tolerance on limit checks (cgroup accounting is page-granular).
_LIMIT_EPS_MB = 0.5

#: Tolerance on node memory arithmetic (float MB <-> byte conversions).
_MEM_EPS_MB = 1e-3

_DEAD = SandboxState.DEAD


@dataclass
class InvokerStats:
    cold_starts: int = 0
    warm_starts: int = 0
    sandboxes_created: int = 0
    sandboxes_destroyed: int = 0
    sandboxes_reaped: int = 0
    oom_kills: int = 0
    resizes: int = 0
    capacity_rejections: int = 0


class InvocationContext:
    """What a function body sees while executing.

    Provides the ETL primitives (``read``/``write``/``delete`` via the
    data client, ``compute`` for the Transform phase) and records
    per-phase wall-clock durations into the invocation record.
    """

    __slots__ = ("kernel", "record", "sandbox", "data", "monitor", "args")

    def __init__(
        self,
        kernel: Kernel,
        record: InvocationRecord,
        sandbox: Sandbox,
        data: DataClient,
        monitor: Optional[Any] = None,
    ):
        self.kernel = kernel
        self.record = record
        self.sandbox = sandbox
        self.data = data
        self.monitor = monitor
        #: The request's arguments, read by every function body.
        self.args: Dict[str, Any] = record.request.args

    @property
    def request(self):
        return self.record.request

    def read(self, bucket: str, name: str):
        start = self.kernel.now
        obj = yield from self.data.read(bucket, name)
        self.record.phases.extract += self.kernel.now - start
        self.record.bytes_in += obj.meta.size if hasattr(obj, "meta") else 0
        return obj

    def write(
        self,
        bucket: str,
        name: str,
        payload: Any,
        size: int,
        content_type: str = "application/octet-stream",
        user_meta: Optional[Dict[str, Any]] = None,
        intermediate: Optional[bool] = None,
    ):
        if intermediate is None:
            # Outputs of non-final pipeline stages are intermediate data
            # (removed from the cache when the pipeline ends, §6.3).
            request = self.record.request
            intermediate = (
                request.pipeline_id is not None and not request.final_stage
            )
        start = self.kernel.now
        yield from self.data.write(
            bucket,
            name,
            payload,
            size,
            content_type=content_type,
            user_meta=user_meta,
            intermediate=intermediate,
            pipeline_id=self.record.request.pipeline_id,
        )
        self.record.phases.load += self.kernel.now - start
        self.record.bytes_out += size
        self.record.output_refs += (f"{bucket}/{name}",)

    def delete(self, bucket: str, name: str):
        start = self.kernel.now
        yield from self.data.delete(bucket, name)
        self.record.phases.load += self.kernel.now - start

    def compute(self, duration: float, footprint_mb: float):
        """Run the Transform phase: ``duration`` seconds of work whose
        resident set grows linearly to ``footprint_mb``.

        If the footprint crosses the sandbox's cgroup limit, the OFC
        Monitor (when attached) gets a chance to raise the cap; if it
        does not, the invocation is OOM-killed at the crossing point —
        exactly the failure mode §5.3.1 mitigates.

        The ramp is ``COMPUTE_SLICES`` equal slices and a crossing is
        detected at a slice boundary, but only boundaries where
        something happens are simulated: the phase sleeps straight to
        the first boundary whose usage exceeds the limit (or to the
        last one), one kernel occurrence per stretch.  The wake instant
        is the float that sleeping slice by slice produces (the slice
        length added once per slice, in order), so schedules do not
        depend on the skipping; ``tests/faas/reference_compute.py``
        holds the slice-by-slice loop as the oracle.

        This relies on one invariant: while a sandbox is BUSY its limit
        is changed only by its own invocation's Monitor, from inside
        this method.  The two callers of ``Invoker.resize_sandbox`` on a
        sandbox in use are ``Invoker.execute`` (before the body starts)
        and ``Monitor.on_pressure``; anything else that resizes a busy
        sandbox must wake the phase to re-evaluate the crossing.
        """
        if duration < 0 or footprint_mb < 0:
            raise ValueError("duration and footprint must be non-negative")
        kernel = self.kernel
        record = self.record
        sandbox = self.sandbox
        tracer = kernel.tracer
        span = (
            tracer.start("faas.compute", function=record.request.function)
            if tracer is not None
            else None
        )
        start = now = kernel.now
        slices = COMPUTE_SLICES if duration > 0 else 1
        step = duration / slices
        done = 0
        while done < slices:
            # Usage is monotonic in the slice index: when the last
            # boundary stays under the limit, every boundary does.
            ceiling = sandbox.memory_limit_mb + _LIMIT_EPS_MB
            boundary = slices
            if footprint_mb * slices / slices > ceiling:
                boundary = done + 1
                while footprint_mb * boundary / slices <= ceiling:
                    boundary += 1
            if duration > 0:
                wake = now
                for _ in range(boundary - done):
                    wake += step
                while True:
                    yield delay_until(now, wake)
                    now = kernel.now
                    if now == wake:  # else: see delay_until
                        break
            done = boundary
            usage = footprint_mb * done / slices
            record.peak_memory_mb = max(record.peak_memory_mb, usage)
            if usage > ceiling:
                rescued = False
                if self.monitor is not None:
                    rescued = yield from self.monitor.on_pressure(
                        self, usage, footprint_mb
                    )
                    now = kernel.now
                if not rescued:
                    record.peak_memory_mb = max(
                        record.peak_memory_mb, sandbox.memory_limit_mb
                    )
                    if span is not None:
                        span.finish(status="oom")
                    raise OOMKilled(
                        f"{sandbox.sandbox_id}: {usage:.0f} MB > "
                        f"{sandbox.memory_limit_mb:.0f} MB limit",
                        needed_mb=footprint_mb,
                    )
        record.phases.transform += now - start
        if span is not None:
            span.finish(status="ok")


class Invoker:
    """One worker node: memory arbitration plus sandbox management.

    Node memory is split between sandboxes (``committed_mb``), the OFC
    cache (``cache_reserved_mb``, driven by the CacheAgent), the OFC
    slack pool (``slack_mb``, §6.4) and free memory.  The baselines
    leave the cache and slack at zero.
    """

    def __init__(
        self,
        kernel: Kernel,
        node_id: str,
        total_memory_mb: float,
        keepalive_s: float = 600.0,
        rng=None,
    ):
        self.kernel = kernel
        self.node_id = node_id
        self.total_memory_mb = total_memory_mb
        #: How long an idle sandbox survives (swapped by
        #: :meth:`FaaSPlatform.set_keepalive_policy`).
        self.keepalive_policy: KeepAlivePolicy = FixedKeepAlive(keepalive_s)
        self.rng = rng
        self.sandboxes: List[Sandbox] = []
        #: Creation-ordered sandboxes per function key (a view over
        #: ``sandboxes``): warm-start lookup scans one function's
        #: sandboxes instead of the whole node.
        self._by_function: Dict[str, List[Sandbox]] = {}
        #: Memoized ``committed_mb``; ``None`` marks it stale.  Every
        #: mutation of the committed set funnels through ``_notify``
        #: (create/destroy/resize), which invalidates, and the
        #: recompute evaluates the exact original expression so the
        #: float result is bit-identical to an uncached scan.
        self._committed_cache: Optional[float] = None
        self.cache_reserved_mb = 0.0
        self.slack_mb = 0.0
        #: Hook: generator ``(invoker, needed_mb) -> bool`` that tries to
        #: free node memory (OFC shrinks its cache here).
        self.ensure_capacity: Optional[Callable[..., Generator]] = None
        #: Callbacks ``(event, sandbox)`` with event in {"created",
        #: "destroyed", "resized"}; OFC's CacheAgent listens to retarget
        #: the cache size.
        self.listeners: List[Callable[[str, Sandbox], None]] = []
        self.stats = InvokerStats()

    # -- memory accounting -------------------------------------------------

    @property
    def committed_mb(self) -> float:
        cached = self._committed_cache
        if cached is None:
            # ``Sandbox.alive``, read off the field: this recompute runs
            # on every sandbox event of a busy node.
            cached = self._committed_cache = sum(
                [s.memory_limit_mb for s in self.sandboxes if s.state is not _DEAD]
            )
        return cached

    @property
    def available_mb(self) -> float:
        return (
            self.total_memory_mb
            - self.committed_mb
            - self.cache_reserved_mb
            - self.slack_mb
        )

    def _notify(self, event: str, sandbox: Sandbox) -> None:
        self._committed_cache = None
        for listener in self.listeners:
            listener(event, sandbox)

    def _forget(self, sandbox: Sandbox) -> None:
        """Drop a sandbox from the node lists (idempotent)."""
        if sandbox in self.sandboxes:
            self.sandboxes.remove(sandbox)
        peers = self._by_function.get(sandbox.function_key)
        if peers is not None and sandbox in peers:
            peers.remove(sandbox)

    def audit(self) -> None:
        """Recompute the memoized ``committed_mb`` and the per-function
        index from ``sandboxes`` and raise :class:`FaaSError` naming
        what drifted."""
        drift = []
        committed = sum(s.memory_limit_mb for s in self.sandboxes if s.alive)
        cached = self._committed_cache
        if cached is not None and cached != committed:
            drift.append(f"committed_mb: {cached!r}, recomputed {committed!r}")
        by_function: Dict[str, List[Sandbox]] = {}
        for sandbox in self.sandboxes:
            by_function.setdefault(sandbox.function_key, []).append(sandbox)
        for key in sorted(by_function.keys() | self._by_function.keys()):
            indexed = self._by_function.get(key, [])
            want = by_function.get(key, [])
            if indexed != want:
                drift.append(f"index[{key}]: {indexed!r}, recomputed {want!r}")
        if drift:
            raise FaaSError(
                f"{self.node_id}: invoker accounting drifted: " + "; ".join(drift)
            )

    def _make_room(self, needed_mb: float):
        """Try to free ``needed_mb`` of node memory via the hook."""
        if needed_mb <= self.available_mb + _MEM_EPS_MB:
            return True
        if self.ensure_capacity is None:
            return False
        freed = yield from self.ensure_capacity(self, needed_mb - self.available_mb)
        return bool(freed) and self.available_mb >= needed_mb - _MEM_EPS_MB

    # -- sandbox management ---------------------------------------------------

    def idle_sandboxes(self, function_key: str) -> List[Sandbox]:
        # The per-function view preserves creation order, so this is the
        # exact subsequence the full-node scan produced (ties in
        # find_sandbox resolve to the same sandbox).
        indexed = self._by_function.get(function_key)
        if not indexed:
            return []
        return [s for s in indexed if s.state is SandboxState.IDLE]

    def has_idle_sandbox(self, function_key: str) -> bool:
        """Whether :meth:`idle_sandboxes` is non-empty, without the list."""
        for sandbox in self._by_function.get(function_key, ()):
            if sandbox.state is SandboxState.IDLE:
                return True
        return False

    def find_sandbox(
        self, function_key: str, preferred_mb: Optional[float] = None
    ) -> Optional[Sandbox]:
        """Best idle sandbox for the function, if any.

        With ``preferred_mb`` (OFC), the sandbox whose current limit is
        closest to the predicted size wins (§6.5 criterion i); ties (and
        the baseline) go to the most recently used (criterion iv).
        """
        idle = self.idle_sandboxes(function_key)
        if not idle:
            return None
        if preferred_mb is None:
            return max(idle, key=lambda s: s.last_used_at)
        return min(
            idle,
            key=lambda s: (abs(s.memory_limit_mb - preferred_mb), -s.last_used_at),
        )

    def create_sandbox(
        self, spec: FunctionSpec, memory_mb: float
    ) -> Generator[Any, Any, Sandbox]:
        """Cold-start a new sandbox; raises ResourceExhausted on OOM node.

        The memory is committed (sandbox appended) *before* any yield so
        that concurrent cache retargeting sees the reservation and
        cannot re-grow the cache into it.
        """
        sandbox = Sandbox(self.node_id, spec.key, memory_mb, self.kernel.now)
        self.sandboxes.append(sandbox)
        self._by_function.setdefault(spec.key, []).append(sandbox)
        self._notify("created", sandbox)
        if self.available_mb < -_MEM_EPS_MB:
            fits = yield from self._make_room(0.0)
            if not fits:
                self._forget(sandbox)
                sandbox.kill()
                self._notify("destroyed", sandbox)
                self.stats.capacity_rejections += 1
                raise ResourceExhausted(
                    f"{self.node_id}: no room for {memory_mb:.0f} MB sandbox"
                )
        self.stats.sandboxes_created += 1
        self.stats.cold_starts += 1
        yield COLD_START.sample(self.rng)
        sandbox.state = SandboxState.IDLE
        sandbox.last_used_at = self.kernel.now
        return sandbox

    def resize_sandbox(
        self, sandbox: Sandbox, memory_mb: float
    ) -> Generator[Any, Any, None]:
        """Change a sandbox's cgroup memory limit.

        The accounting change is immediate; the docker-update latency is
        paid in the background (§6.4 performs all adjustments
        asynchronously), so this generator only blocks when node memory
        must be reclaimed first.
        """
        old_limit = sandbox.memory_limit_mb
        sandbox.set_limit(memory_mb)  # commit accounting before yielding
        self._notify("resized", sandbox)
        if memory_mb > old_limit and self.available_mb < -_MEM_EPS_MB:
            fits = yield from self._make_room(0.0)
            if not fits:
                sandbox.set_limit(old_limit)
                self._notify("resized", sandbox)
                self.stats.capacity_rejections += 1
                raise ResourceExhausted(
                    f"{self.node_id}: no room to grow sandbox to "
                    f"{memory_mb:.0f} MB"
                )
        self.stats.resizes += 1
        # Fire-and-forget docker-update sleep: the delay thunk runs at
        # the bootstrap-resume position of the generator process it
        # replaced, so the RNG draw lands at the same point in the
        # stream; nothing waits on the wake, so none is scheduled.
        rng = self.rng
        self.kernel.call_later(lambda: DOCKER_UPDATE.sample(rng))

    def destroy_sandbox(self, sandbox: Sandbox, reaped: bool = False) -> None:
        if not sandbox.alive:
            return
        sandbox.kill()
        self._forget(sandbox)
        self.stats.sandboxes_destroyed += 1
        if reaped:
            self.stats.sandboxes_reaped += 1
        self._notify("destroyed", sandbox)

    def _schedule_reap(self, sandbox: Sandbox) -> None:
        """Move an idle sandbox's keep-alive deadline to ``timeout_for``
        from now.

        A timer is armed only when none is pending or the new deadline
        is earlier than the pending one (an adaptive policy may shorten
        it); a later deadline is left to the pending timer, which sleeps
        on to it when it fires.  ``tests/faas/reference_reap.py`` holds
        the one-timer-per-invocation reaper this replaces as the oracle.
        """
        timeout_s = self.keepalive_policy.timeout_for(sandbox)
        reap_at = sandbox.reap_at = self.kernel.now + timeout_s
        if reap_at < sandbox.reap_timer_at:
            self._arm_reap(sandbox, timeout_s)

    def _arm_reap(self, sandbox: Sandbox, delay: float) -> None:
        kernel = self.kernel
        # The timer's value names its sandbox; ``_reap`` reads it there.
        kernel.timeout(delay, sandbox).callbacks = self._reap
        sandbox.reap_timer_at = kernel.now + delay

    def _reap(self, timer: Event) -> None:
        sandbox = timer.value
        now = self.kernel.now
        if sandbox.reap_timer_at != now:
            return  # superseded by an earlier deadline
        sandbox.reap_timer_at = inf
        if sandbox.state is not SandboxState.IDLE:
            return  # dead, or busy: its next invocation end re-arms
        if now < sandbox.reap_at:
            # Reused since the timer was armed: sleep on to the latest
            # deadline (``delay_until`` may stop short; then hop again).
            self._arm_reap(sandbox, delay_until(now, sandbox.reap_at))
        else:
            self.destroy_sandbox(sandbox, reaped=True)

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        spec: FunctionSpec,
        record: InvocationRecord,
        memory_mb: float,
        data_client: DataClient,
        monitor: Optional[Any] = None,
    ) -> Generator[Any, Any, InvocationRecord]:
        """Run one invocation attempt on this node.

        Raises :class:`OOMKilled` (sandbox destroyed, caller retries) or
        :class:`ResourceExhausted` (no memory for the sandbox).
        """
        tracer = self.kernel.tracer
        span = (
            tracer.start("faas.execute", node=self.node_id, function=spec.key)
            if tracer is not None
            else None
        )
        try:
            sandbox = self.find_sandbox(spec.key, preferred_mb=memory_mb)
            if sandbox is None:
                sandbox = yield from self.create_sandbox(spec, memory_mb)
                record.cold_start = True
                sandbox.reserve()
            else:
                sandbox.reserve()  # before any yield: prevents double-booking
                self.stats.warm_starts += 1
                yield WARM_START.sample(self.rng)
                if abs(sandbox.memory_limit_mb - memory_mb) > _LIMIT_EPS_MB:
                    yield from self.resize_sandbox(sandbox, memory_mb)
            sandbox.begin_invocation(self.kernel.now)
            record.node = self.node_id
            record.sandbox_id = sandbox.sandbox_id
            record.memory_limit_mb = sandbox.memory_limit_mb
            record.started_at = self.kernel.now
            ctx = InvocationContext(
                self.kernel, record, sandbox, data_client, monitor
            )
            try:
                yield from spec.body(ctx)
            except OOMKilled:
                self.stats.oom_kills += 1
                record.oom_kills += 1
                self.destroy_sandbox(sandbox)
                raise
            except BaseException:
                self.destroy_sandbox(sandbox)
                raise
        except OOMKilled:
            if span is not None:
                span.finish(status="oom")
            raise
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        record.finished_at = self.kernel.now
        # The final limit may have been raised mid-flight by the Monitor.
        record.memory_limit_mb = sandbox.memory_limit_mb
        sandbox.end_invocation(self.kernel.now)
        self._schedule_reap(sandbox)
        if span is not None:
            span.finish(status="ok", cold=record.cold_start)
        return record
