"""Discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* Time is an integer number of **nanoseconds** (`Simulator.now`).
* Work is scheduled as callbacks on a binary heap, tie-broken by a
  monotonically increasing sequence number, so two runs of the same model
  produce byte-identical event orderings.
* Concurrency is expressed with generator-based :class:`Process` objects
  (in the style of simpy): a process ``yield``\\ s an :class:`Event` (or a
  plain integer, treated as a timeout in nanoseconds) and is resumed with
  the event's value when it triggers.
* Observability hooks (:class:`repro.obs.hooks.SimHooks`) may be
  installed via :meth:`Simulator.set_hooks`; the default is ``None``
  and every hook site is a single ``is not None`` test, so an
  unobserved run pays nothing and stays byte-identical to the seed.

Performance notes (the ``repro.perf`` hot path):

* Heap entries are ``(time, key, call)`` tuples, so every sift
  comparison during push/pop is a C-level integer compare —
  :class:`ScheduledCall` objects are never compared by the heap.
* The dispatch loops in :meth:`Simulator.run` and
  :meth:`Simulator.run_until_triggered` are inlined with hot names
  bound to locals, and split into a hooks-off fast variant so the
  unobserved run does not re-test ``self.hooks`` against every hook
  site of :meth:`Simulator.step`.
* Dispatched :class:`ScheduledCall` handles are recycled on a
  per-simulator free list.  A handle is only pooled when the dispatch
  loop holds the *sole* remaining reference (checked with
  ``sys.getrefcount``), so a caller that kept the handle — a TCP
  retransmit timer, the CPU model's completion — can never observe
  its object being reused, and a stale ``cancel()`` can never hit a
  recycled entry.
* Lazily-cancelled entries are skipped at a single point, and the heap
  is compacted in place once cancelled entries outnumber live ones
  (the CPU model's preemption leaves dead completions far in the
  future; TCP cancels retransmit/delayed-ack timers constantly).
* A process that is an event's only waiter is parked in
  ``Event._waiter`` rather than registered as a callback; the trigger
  schedules ``Process._resume`` directly, from the same delay-0 slot a
  lone callback would take, so every ``(time, key)`` is unchanged.
  The CPU model's :class:`~repro.sim.cpu.Job` is itself an Event, so
  a CPU charge costs one object, one completion entry and one resume.

Everything else in :mod:`repro` — the CPU model, the device models, the
protocol stack — is built on these primitives.
"""

from __future__ import annotations

import heapq
from sys import getrefcount as _refcount
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Sequence)

from repro.sim.errors import (
    Deadlock,
    EventError,
    ProcessError,
    SchedulingError,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "ScheduledCall",
    "NS_PER_US",
    "us",
    "to_us",
    "tiebreak_keyfn",
]

#: Nanoseconds per microsecond; the paper reports everything in µs.
NS_PER_US = 1000

#: Upper bound on pooled ScheduledCall handles per simulator.
_POOL_MAX = 1024

#: Cancelled-entry compaction is considered every this-many schedules.
_COMPACT_MASK = 0xFFF

#: Heaps smaller than this are never compacted (not worth the scan).
_COMPACT_MIN = 64


def _mix64(seed: int, seq: int) -> int:
    """splitmix64-style integer hash: a deterministic pseudo-random
    permutation of *seq* parameterized by *seed* (no `random` module, so
    the shuffle itself cannot perturb global RNG state)."""
    z = (seed * 0x9E3779B97F4A7C15 + seq * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def tiebreak_keyfn(policy: Optional[str]) -> Optional[Callable[[int], int]]:
    """Resolve a tie-break *policy* to a sequence->sort-key function.

    ``None``/``"fifo"`` return ``None``: the caller should use the raw
    sequence number (insertion order), which is the seed-identical fast
    path.  ``"lifo"`` reverses insertion order among equal-time events;
    ``"shuffle:<seed>"`` applies a seeded deterministic permutation.
    These perturbed orderings are the substrate of the race detector
    (:mod:`repro.analysis.racecheck`): a model whose results change
    under them depends on same-timestamp event ordering.
    """
    if policy is None or policy == "fifo":
        return None
    if policy == "lifo":
        return lambda seq: -seq
    if isinstance(policy, str) and policy.startswith("shuffle:"):
        try:
            seed = int(policy.split(":", 1)[1], 0)
        except ValueError:
            raise SchedulingError(f"bad shuffle seed in {policy!r}")
        return lambda seq: _mix64(seed, seq)
    raise SchedulingError(
        f"unknown tie-break policy {policy!r} "
        "(expected 'fifo', 'lifo' or 'shuffle:<seed>')")


def us(value: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds."""
    return int(round(value * NS_PER_US))


def to_us(ns: int) -> float:
    """Convert integer nanoseconds to microseconds (float)."""
    return ns / NS_PER_US


class ScheduledCall:
    """Handle for a callback sitting in the event queue.

    Cancellation is lazy: the heap entry stays in place and is skipped by
    the main loop once :meth:`cancel` has been called.  This is how the CPU
    model revokes a completion event when a job is preempted.
    """

    __slots__ = ("time", "seq", "key", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable, args: tuple,
                 key: Optional[int] = None):
        self.time = time
        self.seq = seq
        #: Same-timestamp sort key.  Equal to *seq* (insertion order)
        #: under the default FIFO tie-break; a perturbed tie-break
        #: policy (see :func:`tiebreak_keyfn`) substitutes another
        #: deterministic key so the race detector can reorder
        #: logically-concurrent events.
        self.key = seq if key is None else key
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True
        # Drop references eagerly so cancelled chains do not pin memory.
        self.fn = _noop
        self.args = ()

    def __lt__(self, other: "ScheduledCall") -> bool:
        return (self.time, self.key) < (other.time, other.key)


def _noop(*_args: Any) -> None:
    return None


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once, with either a value (:meth:`succeed`) or
    an exception (:meth:`fail`).  Callbacks registered before the trigger
    run at the trigger's simulated time, in registration order; callbacks
    registered after the trigger run immediately (still via the event
    queue, preserving determinism).

    A :class:`Process` that is the first and only party to wait on an
    event parks itself in ``_waiter`` instead of registering a callback,
    and the trigger schedules its resumption directly.  A later
    :meth:`add_callback` moves the waiter to the front of the callback
    list, so registration order is kept either way.
    """

    _PENDING = object()

    __slots__ = ("sim", "_callbacks", "_waiter", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: ``()`` while nothing is registered, a non-empty list once a
        #: callback is, ``None`` once triggered.
        self._callbacks: Optional[Sequence[Callable[["Event"], None]]] = ()
        self._waiter: Optional["Process"] = None
        self._value: Any = Event._PENDING
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._callbacks is None and self._exc is None

    @property
    def value(self) -> Any:
        """The value the event succeeded with."""
        if self._callbacks is not None:
            raise EventError(f"event {self.name!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._callbacks is None:
            raise EventError(f"event {self.name!r} already triggered")
        self._value = value
        self._schedule_callbacks()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self._callbacks is None:
            raise EventError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise EventError("fail() requires an exception instance")
        self._exc = exc
        self._schedule_callbacks()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` once the event triggers."""
        callbacks = self._callbacks
        if callbacks is None:
            # Already triggered and dispatched: run at the current time.
            self.sim.schedule(0, fn, self)
        elif self._waiter is not None:
            self._callbacks = [self._waiter._on_event, fn]
            self._waiter = None
        elif isinstance(callbacks, list):
            callbacks.append(fn)
        else:
            self._callbacks = [fn]

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        waiter = self._waiter
        if waiter is not None:
            # Single waiting process: resume it from the slot a lone
            # callback would take (same queue position, same order).
            self._waiter = None
            exc = self._exc
            self.sim.schedule(0, waiter._resume,
                              None if exc is not None else self._value, exc)
        elif callbacks:
            if len(callbacks) == 1:
                # Single callback: skip the _dispatch wrapper frame.
                self.sim.schedule(0, callbacks[0], self)
            else:
                self.sim.schedule(0, self._dispatch, callbacks)

    def _dispatch(self, callbacks: Iterable[Callable[["Event"], None]]) -> None:
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process(Event):
    """A generator-based simulated process.

    The process *is* an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other
    simply by yielding them.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise ProcessError(
                f"Process requires a generator, got {type(gen).__name__}"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        sim.schedule(0, self._resume, None, None)
        if sim.hooks is not None:
            sim.hooks.on_process_start(sim.now, self)

    @property
    def alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            self._notify_end()
            return
        except BaseException as error:  # noqa: BLE001 - propagate via event
            self.fail(error)
            self._notify_end()
            return
        # Wait on what the generator yielded.
        if isinstance(target, Event):
            callbacks = target._callbacks
            if callbacks is None:
                # Already triggered: resume at the current time.
                failure = target._exc
                self.sim.schedule(0, self._resume,
                                  None if failure is not None
                                  else target._value, failure)
            elif callbacks or target._waiter is not None:
                target.add_callback(self._on_event)
            else:
                target._waiter = self
        elif isinstance(target, int):
            # Plain integers are timeouts in nanoseconds.
            self.sim.schedule(target, self._resume, None, None)
        else:
            self._gen.close()
            self.fail(ProcessError(
                f"process {self.name!r} yielded non-waitable "
                f"{type(target).__name__}: {target!r}"))
            self._notify_end()

    def _notify_end(self) -> None:
        if self.sim.hooks is not None:
            self.sim.hooks.on_process_end(self.sim.now, self)

    def _on_event(self, event: Event) -> None:
        if event._exc is None:
            self._resume(event._value, None)
        else:
            self._resume(None, event._exc)


class Simulator:
    """The event loop: a clock plus a heap of scheduled callbacks."""

    def __init__(self, hooks: Optional[Any] = None,
                 tiebreak: Optional[str] = None) -> None:
        self._now = 0
        #: Heap of ``(time, key, ScheduledCall)``: comparisons stay on
        #: the integer prefix (keys are unique per simulator), so the
        #: heap never falls back to comparing ScheduledCall objects.
        self._queue: List[tuple] = []
        self._seq_next = 0
        self._events_executed = 0
        #: Recycled ScheduledCall handles (see module docstring).
        self._pool: List[ScheduledCall] = []
        #: Observability hooks (repro.obs.hooks.SimHooks) or None.
        #: Read directly by the CPU model; install via set_hooks().
        self.hooks: Optional[Any] = None
        #: Same-timestamp tie-break policy ('fifo' when None); see
        #: :func:`tiebreak_keyfn`.  Only the race detector passes a
        #: non-default value.
        self.tiebreak = tiebreak or "fifo"
        self._keyfn = tiebreak_keyfn(tiebreak)
        if hooks is not None:
            self.set_hooks(hooks)

    def set_hooks(self, hooks: Optional[Any]) -> None:
        """Install observability hooks (``None`` disables them).

        A :class:`repro.obs.hooks.NoopHooks` instance is normalized to
        ``None`` so the "explicitly unobserved" configuration keeps the
        zero-overhead unhooked fast path.
        """
        from repro.obs.hooks import NoopHooks, SimHooks

        if hooks is not None and not isinstance(hooks, SimHooks):
            raise SchedulingError(
                f"hooks must be a SimHooks, got {type(hooks).__name__}")
        if isinstance(hooks, NoopHooks):
            hooks = None
        self.hooks = hooks

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return to_us(self._now)

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (diagnostics)."""
        return self._events_executed

    @property
    def pooled_calls(self) -> int:
        """ScheduledCall handles currently on the free list (diagnostics)."""
        return len(self._pool)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after *delay_ns* nanoseconds."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        seq = self._seq_next
        self._seq_next = seq + 1
        key = seq if self._keyfn is None else self._keyfn(seq)
        time = self._now + int(delay_ns)
        pool = self._pool
        if pool:
            call = pool.pop()
            call.time = time
            call.seq = seq
            call.key = key
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            call = ScheduledCall(time, seq, fn, args, key)
        heapq.heappush(self._queue, (time, key, call))
        if not (seq & _COMPACT_MASK):
            self._maybe_compact()
        if self.hooks is not None:
            self.hooks.on_schedule(self._now, call)
        return call

    def _maybe_compact(self) -> None:
        """Drop lazily-cancelled heap entries once they are the majority.

        Rebuilds **in place** (slice assignment + heapify) because the
        dispatch loops hold a direct reference to the heap list.
        """
        queue = self._queue
        if len(queue) < _COMPACT_MIN:
            return
        live = [entry for entry in queue if not entry[2].cancelled]
        if len(live) * 2 <= len(queue):
            queue[:] = live
            heapq.heapify(queue)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay_ns: int, value: Any = None) -> Event:
        """An event that succeeds with *value* after *delay_ns*.

        Fast path: waiters registered before the deadline are invoked
        directly from the timeout's own dispatch slot — same simulated
        time, same registration order — instead of hopping through a
        second delay-0 event (``succeed`` → ``_dispatch``).  A process
        yielding a timeout therefore resumes one queue operation
        earlier; callbacks added *after* the trigger still go through
        :meth:`Event.add_callback`'s scheduled path.
        """
        ev = Event(self, name="timeout")
        self.schedule(delay_ns, self._trigger_timeout, ev, value)
        return ev

    @staticmethod
    def _trigger_timeout(ev: Event, value: Any) -> None:
        callbacks, ev._callbacks = ev._callbacks, None
        if callbacks is None:
            raise EventError(f"event {ev.name!r} already triggered")
        ev._value = value
        waiter = ev._waiter
        if waiter is not None:
            ev._waiter = None
            waiter._resume(value, None)
        elif callbacks:
            for fn in callbacks:
                fn(ev)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds once every event in *events* has.

        Succeeds with the list of individual values, in input order.
        """
        events = list(events)
        done = Event(self, name="all_of")
        if not events:
            done.succeed([])
            return done
        remaining = [len(events)]
        values: List[Any] = [None] * len(events)

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                if done.triggered:
                    return
                if not ev.ok:
                    done.fail(ev._exc)  # noqa: SLF001 - kernel internal
                    return
                values[index] = ev._value  # noqa: SLF001
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds as soon as any event in *events* does.

        Succeeds with ``(index, value)`` of the first event to trigger.
        """
        events = list(events)
        done = Event(self, name="any_of")
        if not events:
            raise EventError("any_of() requires at least one event")

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                if done.triggered:
                    return
                if not ev.ok:
                    done.fail(ev._exc)  # noqa: SLF001
                    return
                done.succeed((index, ev._value))  # noqa: SLF001

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled callback.  Returns False when
        the queue is empty."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _key, call = pop(queue)
            if call.cancelled:
                if _refcount(call) == 2 and len(self._pool) < _POOL_MAX:
                    call.fn = _noop
                    call.args = ()
                    self._pool.append(call)
                continue
            if time < self._now:
                raise SchedulingError("event queue went backwards in time")
            self._now = time
            self._events_executed += 1
            if self.hooks is not None:
                self.hooks.on_dispatch(time, call)
            call.fn(*call.args)
            # Recycle the handle if the loop holds the only reference
            # left (callers that kept it — timers, CPU completions —
            # keep their object untouched; see module docstring).
            if _refcount(call) == 2 and len(self._pool) < _POOL_MAX:
                call.fn = _noop
                call.args = ()
                self._pool.append(call)
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run the event loop.

        With *until* (nanoseconds), stop once the clock reaches it (or the
        queue drains, whichever comes first) and advance the clock to
        *until*.  Without it, run until the queue is empty.
        """
        if until is None:
            self._run_all()
            return
        if until < self._now:
            raise SchedulingError(f"until={until} is in the past")
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        executed = 0
        try:
            while queue:
                entry = queue[0]
                call = entry[2]
                if call.cancelled:
                    pop(queue)
                    if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                        call.fn = _noop
                        call.args = ()
                        pool.append(call)
                    continue
                time = entry[0]
                if time > until:
                    break
                pop(queue)
                if time < self._now:
                    raise SchedulingError(
                        "event queue went backwards in time")
                self._now = time
                executed += 1
                hooks = self.hooks
                if hooks is not None:
                    hooks.on_dispatch(time, call)
                call.fn(*call.args)
                if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                    call.fn = _noop
                    call.args = ()
                    pool.append(call)
        finally:
            self._events_executed += executed
        self._now = until

    def _run_all(self) -> None:
        """Drain the queue (``run()`` with no deadline), hooks-off fast
        loop with a hooks-aware fallback."""
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        executed = 0
        try:
            while queue:
                if self.hooks is not None:
                    # Hooks installed (possibly mid-run): take the
                    # fully-guarded path for the remaining events.
                    self._events_executed += executed
                    executed = 0
                    while self.step():
                        pass
                    return
                time, _key, call = pop(queue)
                if call.cancelled:
                    if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                        call.fn = _noop
                        call.args = ()
                        pool.append(call)
                    continue
                if time < self._now:
                    raise SchedulingError(
                        "event queue went backwards in time")
                self._now = time
                executed += 1
                call.fn(*call.args)
                if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                    call.fn = _noop
                    call.args = ()
                    pool.append(call)
        finally:
            self._events_executed += executed

    def run_until_triggered(self, event: Event) -> Any:
        """Run until *event* triggers; return its value."""
        pending = Event._PENDING
        if self.hooks is not None:
            while event._value is pending and event._exc is None:
                if not self.step():
                    raise Deadlock(
                        f"event queue drained; {event!r} never triggered"
                    )
            return event.value
        # Hooks-off fast loop: inlined dispatch, hot names in locals.
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        executed = 0
        try:
            while event._value is pending and event._exc is None:
                if self.hooks is not None:
                    # Installed mid-run: fall back to the guarded path.
                    self._events_executed += executed
                    executed = 0
                    if not self.step():
                        raise Deadlock(
                            f"event queue drained; {event!r} never "
                            f"triggered")
                    continue
                while True:
                    if not queue:
                        raise Deadlock(
                            f"event queue drained; {event!r} never "
                            f"triggered")
                    time, _key, call = pop(queue)
                    if not call.cancelled:
                        break
                    if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                        call.fn = _noop
                        call.args = ()
                        pool.append(call)
                if time < self._now:
                    raise SchedulingError(
                        "event queue went backwards in time")
                self._now = time
                executed += 1
                call.fn(*call.args)
                if _refcount(call) == 2 and len(pool) < _POOL_MAX:
                    call.fn = _noop
                    call.args = ()
                    pool.append(call)
        finally:
            self._events_executed += executed
        return event.value


# ----------------------------------------------------------------------
# Optional compiled engine core (repro._native._corec)
# ----------------------------------------------------------------------
# Selected once at import time via repro.perf.native (REPRO_NATIVE=0|1).
# The native Simulator subclasses the pure one — every non-hot method
# (events, processes, timeouts, hook validation) is inherited — and
# delegates the clock, heap, free list and dispatch loops to an
# EngineCore whose semantics are byte-identical (same event order, same
# pooling refcount discipline, same compaction cadence, same error
# classes and messages).  tests/perf_golden/ gates the equivalence.

import repro.perf.native as _native_dispatch

_CORE = _native_dispatch.lib

if _CORE is not None:
    _CORE.engine_install(Event._PENDING, SchedulingError, Deadlock, _noop)

    _PurePythonSimulator = Simulator

    class _NativeSimulator(_PurePythonSimulator):
        """Simulator backed by the compiled EngineCore."""

        def __init__(self, hooks: Optional[Any] = None,
                     tiebreak: Optional[str] = None) -> None:
            self.tiebreak = tiebreak or "fifo"
            self._keyfn = tiebreak_keyfn(tiebreak)
            core = _CORE.EngineCore(self._keyfn)
            self._core = core
            #: Bound C method in the instance dict: callers resolve
            #: `sim.schedule` straight to the compiled entry point.
            self.schedule = core.schedule
            if hooks is not None:
                self.set_hooks(hooks)

        # -- state lives in the core ----------------------------------
        @property
        def hooks(self) -> Optional[Any]:
            return self._core.hooks

        @hooks.setter
        def hooks(self, value: Optional[Any]) -> None:
            self._core.hooks = value

        @property
        def now(self) -> int:
            return self._core.now

        @property
        def now_us(self) -> float:
            return to_us(self._core.now)

        @property
        def events_executed(self) -> int:
            return self._core.events_executed

        @property
        def pooled_calls(self) -> int:
            return self._core.pooled_calls

        @property
        def _now(self) -> int:
            return self._core.now

        @property
        def _queue(self) -> List[tuple]:
            return self._core.queue

        @property
        def _pool(self) -> List[Any]:
            return self._core.pool

        # -- hot loops ------------------------------------------------
        def step(self) -> bool:
            return self._core.step()

        def run(self, until: Optional[int] = None) -> None:
            if until is None:
                self._core.run_all()
            else:
                self._core.run_until(until)

        def run_until_triggered(self, event: Event) -> Any:
            self._core.run_until_triggered(event)
            return event.value

        def _maybe_compact(self) -> None:
            self._core.maybe_compact()

    Simulator = _NativeSimulator  # type: ignore[misc]
