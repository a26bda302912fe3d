"""Preemptive priority CPU model.

The DECstation in the paper has a single R3000 CPU shared by hardware
interrupt handlers, software interrupts (the IP input queue), and user
processes executing in kernel or user mode.  The latency spans the paper
measures — in particular *IPQ* (software-interrupt dispatch latency) and
*Wakeup* (run-queue scheduling latency) — are consequences of this
sharing, so the CPU is modelled explicitly:

* Work is submitted as a :class:`Job` with a duration and a priority
  level (:class:`Priority`).  The job is itself the event that
  triggers when the work is done, so a process ``yield``\\ s it.
* The highest-priority ready job runs; arrival of a strictly
  higher-priority job preempts the running one, which keeps its remaining
  work and resumes later (this is how an ATM receive interrupt steals
  cycles from a user process mid-copy, exactly the "cache effects /
  overlap" structure the paper describes).
* Equal priorities are FIFO and non-preemptive with respect to each
  other, matching the BSD kernel's non-preemptive top half.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.sim.engine import Event, ScheduledCall, Simulator

__all__ = ["Priority", "Job", "CPU"]

_PENDING = Event._PENDING


class Priority:
    """CPU priority levels; lower value = more urgent."""

    HARD_INTR = 0  #: hardware interrupt (device) handlers
    SOFT_INTR = 1  #: software interrupts (e.g. ipintr off the IP queue)
    KERNEL = 2     #: a process executing in the kernel (syscall path)
    USER = 3       #: a process executing user-mode code

    NAMES = {0: "hard_intr", 1: "soft_intr", 2: "kernel", 3: "user"}


class Job(Event):
    """One piece of CPU work: a duration at a priority level.

    The job is its own completion event: it triggers when the CPU has
    dedicated ``duration_ns`` of (possibly non-contiguous) time to it,
    so a process simply ``yield``\\ s the job.  :attr:`name` is the work
    label that :attr:`CPU.busy_by_label` and the observer hooks read.
    """

    __slots__ = ("priority", "seq", "remaining", "started")

    def __init__(self, sim: Simulator, priority: int, seq: int,
                 duration_ns: int, name: str):
        # Event.__init__, inlined: this runs once per charge.
        self.sim = sim
        self.name = name
        self._callbacks = ()
        self._waiter = None
        self._value = _PENDING
        self._exc = None
        self.priority = priority
        self.seq = seq
        self.remaining = duration_ns
        #: Whether the job has ever held the CPU (start vs resume hooks).
        self.started = False

    def __repr__(self) -> str:
        return (f"<Job {self.name!r} prio={self.priority} "
                f"remaining={self.remaining}ns>")


class CPU:
    """A single processor multiplexed between priority levels."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        #: Heap of ``(priority, seq, job)``: ordering stays on the
        #: integer prefix (seqs are unique per CPU).
        self._ready: List[Tuple[int, int, Job]] = []
        self._running: Optional[Job] = None
        self._completion: Optional[ScheduledCall] = None
        self._run_started_at = 0
        self._seq = itertools.count()
        # Accounting (diagnostics and utilization tests).
        self.busy_ns = 0
        self.preemptions = 0
        self.jobs_completed = 0
        #: CPU time by job label (a cycles-profile of the kernel).
        self.busy_by_label: dict = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def run(self, duration_ns: int, priority: int = Priority.KERNEL,
            name: str = "work") -> Job:
        """Submit *duration_ns* of work; returns the job, which is the
        event that triggers when the work is done.

        Typical use from a simulated process::

            yield cpu.run(cost.copyin(n), Priority.KERNEL, "copyin")
        """
        if duration_ns < 0:
            raise ValueError(f"negative CPU work: {duration_ns}")
        job = Job(self.sim, priority, next(self._seq), int(duration_ns),
                  name)
        running = self._running
        if running is None:
            # Completion and preemption start the next job at once, so
            # an idle CPU has nothing ready: the new job runs now.
            self._start(job)
        elif priority < running.priority:
            # The running job outranks everything already ready, so a
            # strictly more urgent arrival is the one to run next.
            self._preempt()
            self._start(job)
        else:
            heapq.heappush(self._ready, (priority, job.seq, job))
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing is running or ready."""
        return self._running is None and not self._ready

    @property
    def running_job(self) -> Optional[Job]:
        """The job currently holding the CPU, if any."""
        return self._running

    def queue_depth(self, priority: Optional[int] = None) -> int:
        """Number of ready (not running) jobs, optionally per priority."""
        if priority is None:
            return len(self._ready)
        return sum(1 for entry in self._ready if entry[0] == priority)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        sim = self.sim
        now = sim.now
        self._running = job
        self._run_started_at = now
        hooks = sim.hooks
        if hooks is not None:
            if job.started:
                hooks.on_job_resume(now, self, job)
            else:
                hooks.on_job_start(now, self, job)
        job.started = True
        self._completion = sim.schedule(job.remaining, self._complete, job)

    def _account(self, job: Job, elapsed: int) -> None:
        self.busy_ns += elapsed
        if elapsed:
            self.busy_by_label[job.name] = (
                self.busy_by_label.get(job.name, 0) + elapsed)

    def _preempt(self) -> None:
        job = self._running
        assert job is not None and self._completion is not None
        now = self.sim.now
        elapsed = now - self._run_started_at
        job.remaining -= elapsed
        self._account(job, elapsed)
        self._completion.cancel()
        self._completion = None
        self._running = None
        self.preemptions += 1
        heapq.heappush(self._ready, (job.priority, job.seq, job))
        hooks = self.sim.hooks
        if hooks is not None:
            hooks.on_job_preempt(now, self, job)

    def _complete(self, job: Job) -> None:
        assert job is self._running
        sim = self.sim
        now = sim.now
        self._account(job, now - self._run_started_at)
        self._running = None
        self._completion = None
        self.jobs_completed += 1
        hooks = sim.hooks
        if hooks is not None:
            hooks.on_job_finish(now, self, job)
        job.succeed()
        if self._ready:
            self._start(heapq.heappop(self._ready)[2])
