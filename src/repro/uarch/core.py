"""The cycle-stepped out-of-order core timing model.

One :class:`Core` models a single clock domain.  ``step()`` advances exactly
one cycle, processing the stages back-to-front (commit, complete, issue,
dispatch, fetch) so that results produced in a cycle can wake consumers in
the same cycle when the configuration's wakeup latency is zero.

The model is trace-driven.  Wrong-path instructions are not simulated: a
mispredicted branch stalls fetch from its own fetch cycle until it resolves,
after which the front-end refill depth is paid naturally through the fetch
queue's fetch-to-dispatch latency.  The paper's checkpointed fetch counter
maps onto this model directly — the fetch counter here never counts
wrong-path instructions, so the scenario-1/scenario-2 comparisons of
Section 4.1.2 are preserved verbatim.

Contesting hooks: a ``contest`` adapter (duck-typed; implemented by
:class:`repro.core.system.ContestingSystem`) is consulted

* once per cycle to drain late results and fire the Figure-5 early
  branch-resolution corner case (``drain``),
* at fetch to pop a matching result for injection (``pop_for_fetch``),
* at store commit for the synchronizing store queue
  (``store_commit_ok`` / ``store_performed``),
* at retirement to broadcast on this core's global result bus
  (``on_retire``), and
* at syscall commit for the semaphore-style parallel exception handler
  (``syscall_ready``).
"""

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.isa.trace import TraceSource
from repro.uarch.branch import make_predictor
from repro.uarch.cache import Cache, CacheHierarchy
from repro.uarch.config import CoreConfig

# Plain-int op classes for the hot loop (must mirror repro.isa.OpClass).
OP_IALU = 0
OP_IMUL = 1
OP_IDIV = 2
OP_LOAD = 3
OP_STORE = 4
OP_BRANCH = 5
OP_SYSCALL = 6
OP_NOP = 7

#: Execution latency in cycles by op class; loads use the cache access
#: latency instead (index kept for alignment).
_EXEC_LAT = (1, 3, 12, 0, 1, 1, 1, 1)

#: Cycles charged by the (parallelised) exception handler at a syscall.
SYSCALL_PENALTY = 200

#: Sentinel returned by :meth:`Core.next_event_cycle` when no future event
#: is scheduled (the core is done, or deadlocked).  Far beyond any reachable
#: cycle count, so ``min()`` arithmetic needs no special-casing.
NO_EVENT = 1 << 62


class _Rec:
    """In-flight instruction state (one per dispatched trace instruction)."""

    __slots__ = (
        "seq",
        "op",
        "is_mem",
        "produces",
        "injected",
        "completed",
        "complete_cycle",
        "issued",
        "pending",
        "waiters",
        "mispredicted",
        "resolved",
        "syscall_charged",
    )

    def __init__(self, seq: int, op: int, is_mem: bool, produces: bool) -> None:
        self.seq = seq
        self.op = op
        self.is_mem = is_mem
        self.produces = produces
        self.injected = False
        self.completed = False
        self.complete_cycle = -1
        self.issued = False
        self.pending = 0
        self.waiters: List["_Rec"] = []
        self.mispredicted = False
        self.resolved = True
        self.syscall_charged = False


@dataclass
class RunStats:
    """Counters accumulated over one core's run."""

    cycles: int = 0
    committed: int = 0
    branches: int = 0
    mispredicts: int = 0
    early_resolved: int = 0
    injected: int = 0
    l1_misses: int = 0
    l1_accesses: int = 0
    l2_misses: int = 0
    fetch_stall_cycles: int = 0
    region_times_ps: List[int] = field(default_factory=list)

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def injection_fraction(self) -> float:
        return self.injected / self.committed if self.committed else 0.0


class Core:
    """A single out-of-order core executing a trace in its own clock domain.

    Parameters
    ----------
    config:
        The core configuration (see :mod:`repro.uarch.config`).
    trace:
        The dynamic instruction trace to execute.
    core_id:
        Identifier within a multi-core system.
    contest:
        Optional contesting adapter (None for standalone execution).
    region_size:
        If non-zero, record the elapsed time (ps) at every ``region_size``-th
        retirement — the Section-2 region log.
    """

    def __init__(
        self,
        config: CoreConfig,
        trace: TraceSource,
        core_id: int = 0,
        # the owning ContestingSystem (annotated loosely: repro.core
        # imports this module, so naming the class here would be circular)
        contest: Optional[Any] = None,
        region_size: int = 0,
        prewarm: bool = True,
        shared_cache: Optional[Cache] = None,
        shared_latency: int = 0,
        # a repro.telemetry.Tracer (annotated loosely: telemetry is an
        # observer layer and the model must not depend on it)
        tracer: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.core_id = core_id
        self.contest = contest
        self.contesting_enabled = contest is not None
        self.halted = False
        self.tracer = tracer
        # live per-op retired counts owned by the tracer; the commit loop
        # increments the plain list so the disabled path stays branch-free
        self._tel_ops: Optional[List[int]] = (
            tracer.register_core(core_id, config.name, config.period_ps)
            if tracer is not None else None
        )

        self.period_ps = config.period_ps
        self.cycle = 0
        self.time_ps = 0

        self.hierarchy = CacheHierarchy(
            config.l1, config.l2, config.mem_latency,
            shared_cache=shared_cache, shared_latency=shared_latency,
        )
        self.predictor = make_predictor(config.predictor, config.predictor_entries)

        # The trace's columns, shared across all cores running it: the hot
        # loop indexes plain lists (or windowed streaming columns) instead
        # of Instr attributes.
        decoded = trace.decoded()
        self._ops = decoded.ops
        self._pcs = decoded.pcs
        self._deps1 = decoded.deps1
        self._deps2 = decoded.deps2
        self._addrs = decoded.addrs
        self._takens = decoded.takens
        self._n = len(trace)
        # Hoisted config scalars (CoreConfig is frozen; reading through the
        # dataclass every cycle costs a dict lookup per field per stage).
        self._width = config.width
        self._rob_cap = config.rob_size
        self._fq_cap = config.fetch_queue_size
        self._fe_depth = config.frontend_depth
        self._sched = config.sched_depth
        self._awaken = config.awaken_latency
        self._l1_latency = config.l1.latency
        self._perfect_caches = config.perfect_caches
        self._perfect_predictor = config.perfect_predictor
        self.fetch_index = 0
        self.commit_count = 0

        self._fetch_q = deque()  # (ready_cycle, rec) FIFO, bounded
        self._rob: List[_Rec] = []
        self._rob_head = 0  # index into _rob (amortised pop-front)
        self._iq_free = config.iq_size
        self._lsq_free = config.lsq_size
        self._ready_heap: List = []   # (ready_cycle, seq, rec)
        self._complete_heap: List = []  # (complete_cycle, seq, rec)
        self._inflight: Dict[int, _Rec] = {}

        self._mshr_heap: List[int] = []   # completion cycles of outstanding misses
        self._mshr_count = config.mshr_count
        #: in-flight store words (8B-aligned addr -> count) for forwarding
        self._store_words: Dict[int, int] = {}
        self._forwarding = config.store_forwarding
        self._fetch_stalled = False       # waiting on a mispredicted branch
        self._stall_branch: Optional[_Rec] = None
        self._syscall_stall = False       # fetch frozen until syscall commits
        self._commit_stall_until = -1

        self.region_size = region_size
        self.stats = RunStats()
        if prewarm:
            self._prewarm()

    def _prewarm(self) -> None:
        """Warm the caches and the branch predictor with one trace pass.

        The paper simulates 100M-instruction SimPoints, so steady-state
        behaviour dominates; our traces are 10^3x shorter and would otherwise
        be dominated by compulsory misses and predictor training.  One
        functional pass (no timing) puts both structures in steady state,
        after which statistics are reset.
        """
        hierarchy = self.hierarchy
        predictor = self.predictor
        addrs = self._addrs
        for seq, op in enumerate(self._ops):
            if op == OP_LOAD:
                hierarchy.access(addrs[seq])
            elif op == OP_STORE:
                hierarchy.write(addrs[seq])
            elif op == OP_BRANCH:
                predictor.update(self._pcs[seq], self._takens[seq])
        hierarchy.reset_stats()

    # ------------------------------------------------------------------
    # public helpers
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the final trace instruction has retired on this core."""
        return self.commit_count >= self._n

    @property
    def rob_occupancy(self) -> int:
        """In-flight instructions currently occupying the ROB."""
        return len(self._rob) - self._rob_head

    def ipt(self) -> float:
        """Instructions per nanosecond over the whole run so far."""
        if self.time_ps == 0:
            return 0.0
        return self.commit_count * 1000.0 / self.time_ps

    def collect_cache_stats(self) -> RunStats:
        """Fold the cache hierarchy's counters into ``stats`` and return it
        (called once, after the run, by every driver)."""
        self.stats.l1_accesses = self.hierarchy.l1.accesses
        self.stats.l1_misses = self.hierarchy.l1.misses
        self.stats.l2_misses = self.hierarchy.l2.misses
        return self.stats

    # ------------------------------------------------------------------
    # contesting entry points (called by the adapter)
    # ------------------------------------------------------------------

    def early_resolve_branch(self, seq: int) -> bool:
        """Resolve an in-flight branch early from another core's result.

        Implements the Figure-5 corner case: a late branch result matches an
        unresolved branch in this core.  If it is the branch fetch is stalled
        on, the stall lifts immediately; the fetch counter restore of the
        paper corresponds to fetch resuming at ``seq + 1``, which is where
        ``fetch_index`` already points in this trace-driven model.
        """
        rec = self._inflight.get(seq)
        if (
            rec is None
            or rec.op != OP_BRANCH
            or rec.resolved
            or not rec.mispredicted
        ):
            # The paper compares the popped outcome against the prediction;
            # only a detected misprediction is resolved early.
            return False
        rec.resolved = True
        rec.completed = True
        rec.complete_cycle = self.cycle
        if not rec.issued:
            rec.issued = True  # lazy-invalidate any ready-heap entry
            self._iq_free += 1
        if self._stall_branch is rec:
            self._fetch_stalled = False
            self._stall_branch = None
        self.stats.early_resolved += 1
        return True

    def disable_contesting(self) -> None:
        """Stop participating in contesting (saturated-lagger remedy)."""
        self.contesting_enabled = False

    def resync(self, target_seq: int, penalty_cycles: int = 0) -> None:
        """Re-fork this core at ``target_seq`` (architectural state copied
        from the leader, as in the paper's terminate-and-refork machinery).

        The pipeline is squashed, all window structures are freed, and both
        the fetch counter (``fetch_index``) and the retirement position jump
        to ``target_seq``.  Private caches and the branch predictor keep
        their (stale) contents — copying them is not what a re-fork does.
        ``penalty_cycles`` charges the state-transfer cost.
        """
        if target_seq < self.commit_count:
            raise ValueError("cannot resync backwards")
        if target_seq > self._n:
            raise ValueError("resync target beyond the trace")
        self._fetch_q.clear()
        self._rob = []
        self._rob_head = 0
        self._inflight.clear()
        self._ready_heap.clear()
        self._complete_heap.clear()
        self._mshr_heap.clear()
        self._store_words.clear()
        self._iq_free = self.config.iq_size
        self._lsq_free = self.config.lsq_size
        self._fetch_stalled = False
        self._stall_branch = None
        self._syscall_stall = False
        self._commit_stall_until = -1
        self.fetch_index = target_seq
        self.commit_count = target_seq
        self.stats.committed = target_seq
        if penalty_cycles > 0:
            self.cycle += penalty_cycles
            self.time_ps += penalty_cycles * self.period_ps
            self.stats.cycles = self.cycle

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def stall_cycle(self) -> None:
        """Burn one clock cycle doing no work (fault-injected hang).

        The clock and wall time advance as in :meth:`step`, but no
        pipeline stage runs — in-flight state is frozen in place.
        """
        if self.halted:
            raise RuntimeError("cannot stall a halted core")
        self.cycle += 1
        self.time_ps += self.period_ps
        self.stats.cycles = self.cycle

    def skip_to(self, cycle: int) -> None:
        """Jump the clock to ``cycle`` without running any pipeline stage.

        Only valid when every cycle in ``[self.cycle, cycle)`` is provably a
        no-op, i.e. ``cycle <= next_event_cycle()`` (and, under contesting,
        no GRB arrival, saturation timer, or fault window falls inside the
        window — :class:`repro.core.system.ContestingSystem` checks those).
        Replicates the one per-cycle side effect a no-op ``step()`` has
        besides the clock itself: the fetch-stall counter.
        """
        delta = cycle - self.cycle
        if delta <= 0:
            return
        if self._fetch_stalled or self._syscall_stall:
            self.stats.fetch_stall_cycles += delta
        if self.tracer is not None:
            self.tracer.skip(
                self.time_ps, self.core_id, self.cycle, cycle,
                delta * self.period_ps,
            )
        self.cycle = cycle
        self.time_ps += delta * self.period_ps
        self.stats.cycles = cycle

    def next_event_cycle(self) -> int:
        """Earliest cycle >= ``self.cycle`` at which ``step()`` could change
        any state (conservatively; returning the current cycle is always
        sound, it just skips nothing).

        An event is anything that lets a stage do work: the ROB head
        becoming committable (or being committable now, including commit
        *attempts* that contesting may reject — those count stalls), a
        completion-heap or wakeup-heap entry maturing, the syscall commit
        stall expiring, a fetch-queue entry reaching dispatch with window
        resources free, or fetch itself being unblocked.  Resource-blocked
        dispatch needs no event of its own: ROB/IQ/LSQ entries free only at
        commit/issue/complete, which are already events.  GRB arrivals and
        fault windows are external to the core and are folded in by
        :class:`repro.core.system.ContestingSystem`.  Returns ``NO_EVENT``
        when nothing is scheduled (done or deadlocked).
        """
        c = self.cycle
        fetch_q = self._fetch_q
        if (
            not self._fetch_stalled
            and not self._syscall_stall
            and self.fetch_index < self._n
            and len(fetch_q) < self._fq_cap
        ):
            return c  # fetch can run: the most common busy reason
        stall_until = self._commit_stall_until
        rob = self._rob
        head = self._rob_head
        if head < len(rob):
            rec = rob[head]
            if rec.completed and rec.resolved and stall_until <= c:
                return c
        nxt = stall_until if stall_until > c else NO_EVENT
        heap = self._complete_heap
        if heap:
            t = heap[0][0]
            if t <= c:
                return c
            if t < nxt:
                nxt = t
        heap = self._ready_heap
        if heap:
            t = heap[0][0]
            if t <= c:
                return c
            if t < nxt:
                nxt = t
        if fetch_q:
            t, rec = fetch_q[0]
            if t <= c:
                if (
                    len(rob) - head < self._rob_cap
                    and (not rec.is_mem or self._lsq_free)
                    and (self._iq_free or rec.injected or rec.op == OP_NOP)
                ):
                    return c
            elif t < nxt:
                nxt = t
        return nxt

    def step(self) -> None:
        """Advance exactly one clock cycle.

        Each stage call is guarded by its own loop's entry condition, so a
        stage with nothing to do costs a comparison instead of a function
        call — the guards replicate the first iteration test of the stage's
        ``while`` loop exactly, never its body, keeping the cycle-by-cycle
        behaviour bit-identical to unconditionally calling every stage.
        """
        if self.halted:
            raise RuntimeError("cannot step a halted core")
        cycle = self.cycle
        contest = self.contest if self.contesting_enabled else None
        if contest is not None:
            contest.drain(self, self.time_ps)

        if self._rob_head < len(self._rob) and self._commit_stall_until <= cycle:
            self._commit(cycle, contest)
        heap = self._complete_heap
        if heap and heap[0][0] <= cycle:
            self._complete(cycle)
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._issue(cycle)
        fetch_q = self._fetch_q
        if fetch_q and fetch_q[0][0] <= cycle:
            self._dispatch(cycle)
        self._fetch(cycle, contest)

        self.cycle = cycle + 1
        self.time_ps += self.period_ps
        self.stats.cycles = self.cycle

    # --- commit --------------------------------------------------------

    def _commit(self, cycle: int, contest: Optional[Any]) -> None:
        if self._commit_stall_until > cycle:
            return
        budget = self._width
        rob = self._rob
        head = self._rob_head
        tel_ops = self._tel_ops
        while budget and head < len(rob):
            rec = rob[head]
            if not rec.completed or not rec.resolved:
                break
            op = rec.op
            if op == OP_STORE:
                if contest is not None and not contest.store_commit_ok(self, rec.seq):
                    break
                addr = self._addrs[rec.seq]
                self.hierarchy.write(addr)
                if self._forwarding:
                    word = addr & ~7
                    left = self._store_words.get(word, 0) - 1
                    if left <= 0:
                        self._store_words.pop(word, None)
                    else:
                        self._store_words[word] = left
                if contest is not None:
                    contest.store_performed(self, rec.seq)
            elif op == OP_SYSCALL:
                if contest is not None and not contest.syscall_ready(self, rec.seq):
                    break
                if not rec.syscall_charged:
                    rec.syscall_charged = True
                    self._commit_stall_until = cycle + SYSCALL_PENALTY
                    break
                self._syscall_stall = False

            head += 1
            del self._inflight[rec.seq]
            if rec.is_mem:
                self._lsq_free += 1
            self.commit_count += 1
            self.stats.committed = self.commit_count
            if rec.injected:
                self.stats.injected += 1
            if self.region_size and self.commit_count % self.region_size == 0:
                # charge through the end of the committing cycle so the last
                # boundary coincides with the run's total time
                self.stats.region_times_ps.append(self.time_ps + self.period_ps)
            if self.contest is not None:
                # Broadcast on this core's GRB even while contesting is
                # disabled for *receiving*; other cores may still benefit.
                self.contest.on_retire(self, rec.seq, self.time_ps)
            if tel_ops is not None:
                tel_ops[op] += 1
            budget -= 1

        self._rob_head = head
        if head > 512 and head * 2 > len(rob):
            del rob[:head]
            self._rob_head = 0

    # --- complete / wakeup ----------------------------------------------

    def _complete(self, cycle: int) -> None:
        heap = self._complete_heap
        awaken = self._awaken
        while heap and heap[0][0] <= cycle:
            _, _, rec = heapq.heappop(heap)
            if rec.completed:
                continue  # resolved early via the GRB corner case
            rec.completed = True
            if rec.op == OP_BRANCH and not rec.resolved:
                rec.resolved = True
                if self._stall_branch is rec:
                    self._fetch_stalled = False
                    self._stall_branch = None
            if rec.waiters:
                ready_cycle = cycle + awaken
                for waiter in rec.waiters:
                    waiter.pending -= 1
                    if waiter.pending == 0 and not waiter.injected:
                        heapq.heappush(
                            self._ready_heap, (ready_cycle, waiter.seq, waiter)
                        )
                rec.waiters = []

    # --- issue -----------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        heap = self._ready_heap
        budget = self._width
        sched = self._sched
        while budget and heap and heap[0][0] <= cycle:
            _, _, rec = heapq.heappop(heap)
            if rec.issued:
                continue  # lazily invalidated
            rec.issued = True
            self._iq_free += 1
            op = rec.op
            if op == OP_LOAD:
                addr = self._addrs[rec.seq]
                if self._forwarding and (addr & ~7) in self._store_words:
                    # store-to-load forwarding from the LSQ
                    rec.complete_cycle = cycle + sched + 1
                    heapq.heappush(
                        self._complete_heap, (rec.complete_cycle, rec.seq, rec)
                    )
                    budget -= 1
                    continue
                if self._perfect_caches:
                    raw = self._l1_latency
                else:
                    raw = self.hierarchy.access(addr)
                if raw > self._l1_latency:
                    # L1 miss: an MSHR bounds concurrent outstanding misses.
                    mshr = self._mshr_heap
                    while mshr and mshr[0] <= cycle:
                        heapq.heappop(mshr)
                    if len(mshr) >= self._mshr_count:
                        start = heapq.heappop(mshr)
                    else:
                        start = cycle
                    done = start + raw
                    heapq.heappush(mshr, done)
                    latency = sched + (done - cycle)
                else:
                    latency = sched + raw
            else:
                latency = sched + _EXEC_LAT[op]
            rec.complete_cycle = cycle + latency
            heapq.heappush(self._complete_heap, (rec.complete_cycle, rec.seq, rec))
            budget -= 1

    # --- dispatch ---------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        budget = self._width
        fetch_q = self._fetch_q
        rob = self._rob
        rob_cap = self._rob_cap
        inflight = self._inflight
        awaken = self._awaken
        while budget and fetch_q and fetch_q[0][0] <= cycle:
            if len(rob) - self._rob_head >= rob_cap:
                break
            _, rec = fetch_q[0]
            if rec.is_mem and self._lsq_free == 0:
                break
            needs_iq = not rec.injected and rec.op != OP_NOP
            if needs_iq and self._iq_free == 0:
                break
            fetch_q.popleft()
            rob.append(rec)
            seq = rec.seq
            inflight[seq] = rec
            if rec.is_mem:
                self._lsq_free -= 1
                if self._forwarding and rec.op == OP_STORE:
                    word = self._addrs[seq] & ~7
                    self._store_words[word] = self._store_words.get(word, 0) + 1

            if rec.injected or rec.op == OP_NOP:
                # Early completion in the rename stage (Section 4.1.3): the
                # popped result is written directly; dependants of this
                # instruction are free immediately.
                rec.completed = True
                rec.complete_cycle = cycle
                budget -= 1
                continue

            self._iq_free -= 1
            ready_cycle = cycle + 1
            for dep in (self._deps1[seq], self._deps2[seq]):
                if dep < 0:
                    continue
                producer = inflight.get(dep)
                if producer is None:
                    continue  # already retired; value in the register file
                if producer.completed:
                    wake = producer.complete_cycle + awaken
                    if wake > ready_cycle:
                        ready_cycle = wake
                else:
                    rec.pending += 1
                    producer.waiters.append(rec)
            if rec.pending == 0:
                heapq.heappush(self._ready_heap, (ready_cycle, seq, rec))
            budget -= 1

    # --- fetch -------------------------------------------------------------

    def _fetch(self, cycle: int, contest: Optional[Any]) -> None:
        if self._fetch_stalled or self._syscall_stall:
            self.stats.fetch_stall_cycles += 1
            return
        budget = self._width
        fq_cap = self._fq_cap
        fetch_q = self._fetch_q
        ops = self._ops
        takens = self._takens
        ready_cycle = cycle + self._fe_depth
        while budget and self.fetch_index < self._n and len(fetch_q) < fq_cap:
            seq = self.fetch_index
            op = ops[seq]

            injected = False
            if (
                contest is not None
                and op != OP_SYSCALL
                and contest.pop_for_fetch(self, seq, self.time_ps)
            ):
                injected = True

            rec = _Rec(
                seq,
                op,
                op == OP_LOAD or op == OP_STORE,
                op <= OP_LOAD,  # IALU/IMUL/IDIV/LOAD write a register
            )
            rec.injected = injected

            taken = False
            if op == OP_BRANCH:
                taken = takens[seq]
                self.stats.branches += 1
                rec.resolved = injected
                # Predict, then train immediately: the trace is correct-path
                # only, so the speculative global history a real front end
                # maintains (with repair on misprediction) is exactly the
                # committed outcome history — training at fetch models it.
                if self._perfect_predictor:
                    prediction = taken
                else:
                    pc = self._pcs[seq]
                    prediction = self.predictor.predict(pc)
                    self.predictor.update(pc, taken)
                if not injected:
                    if prediction != taken:
                        rec.mispredicted = True
                        rec.resolved = False
                        self.stats.mispredicts += 1
                        self._fetch_stalled = True
                        self._stall_branch = rec
                    else:
                        rec.resolved = False  # resolves at execute, no stall
            elif op == OP_SYSCALL:
                self._syscall_stall = True

            fetch_q.append((ready_cycle, rec))
            self.fetch_index = seq + 1
            budget -= 1

            if op == OP_BRANCH:
                if rec.mispredicted:
                    break  # fetch freezes until resolution
                if taken:
                    break  # taken-branch fetch break
            elif op == OP_SYSCALL:
                break
