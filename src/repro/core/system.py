"""The contesting system: GRBs, result FIFOs, and the co-simulation driver.

Implements Section 4 of the paper:

* **Global result buses** (4.1.1): every core broadcasts each retired
  instruction on its own GRB; each other core receives it after the
  configurable core-to-core propagation latency through a synchronizing
  FIFO (the GALS-style synchronizing queue appears here as the arrival
  timestamp being rounded up to the receiver's next clock edge).
* **Pop counters and the fetch counter** (4.1.2): a FIFO's ``next_seq`` *is*
  its pop counter; the receiving core's ``fetch_index`` is the fetch
  counter.  Scenario 1 (core not trailing): arrived results older than the
  fetch counter are popped and discarded — except branches, which are
  checked against unresolved in-flight branches and can resolve a
  misprediction early (the Figure-5 corner case, which flips the core into
  Scenario 2 because fetch resumes exactly at the popped seq + 1).
  Scenario 2 (core trailing): the FIFO head matches the next fetch; the
  result is popped at fetch and paired with the instruction.
* **Injecting results** (4.1.3): a paired branch completes in fetch, a
  paired value-producer completes in rename (handled inside
  :class:`repro.uarch.core.Core`).
* **Lagging distance / saturated laggers** (4.1.4): a FIFO whose occupancy
  exceeds ``max_lag`` marks its receiver as a saturated lagger; contesting
  is disabled for that core (it is halted) and the event recorded.
* **Stores** (4.2): the :class:`SyncStoreQueue`.
* **Exceptions** (4.3): the semaphore-style redundant-thread-aware handler —
  every active core stalls at the syscall's commit until all active cores
  have reached it, then each pays the handler cost.

Time is integer picoseconds.  The driver always steps the core whose current
edge time is smallest, which reproduces the paper's 0.01ns-handshake
round-robin co-simulation without simulating idle base units.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultPlan, XFER_CORRUPT, XFER_DELAY, XFER_DROP, XFER_OK
from repro.isa.instructions import OpClass
from repro.isa.stream import StreamingTrace
from repro.isa.trace import Trace
from repro.core.storequeue import SyncStoreQueue
from repro.uarch.cache import Cache, CacheConfig
from repro.uarch.config import CoreConfig
from repro.uarch.core import NO_EVENT, Core, RunStats
from repro.util.units import ns_to_ps

_OP_BRANCH = int(OpClass.BRANCH)


class ResultFifo:
    """One incoming result FIFO: entries from a single sender's GRB.

    Entries are arrival timestamps (ps); sequence numbers are implicit
    because the sender retires in order and the bus preserves order, so the
    entry at the head always carries the result of instruction ``next_seq``.
    ``next_seq`` doubles as the paper's pop counter.
    """

    __slots__ = (
        "sender_id", "next_seq", "arrivals", "popped_late", "popped_paired",
        "faulted",
    )

    def __init__(self, sender_id: int) -> None:
        self.sender_id = sender_id
        self.next_seq = 0
        self.arrivals: Deque[int] = deque()
        self.popped_late = 0
        self.popped_paired = 0
        #: seq -> XFER_DROP/XFER_CORRUPT for in-flight faulted transfers;
        #: lazily allocated — stays None unless a FaultPlan is injecting
        self.faulted: Optional[Dict[int, int]] = None

    def push(self, arrival_ps: int) -> None:
        """Enqueue the next retired result's arrival timestamp."""
        self.arrivals.append(arrival_ps)

    @property
    def occupancy(self) -> int:
        return len(self.arrivals)


@dataclass
class FaultStats:
    """Diagnostics of one fault-injected run, one typed field per kind.

    Counters count fault *actions applied* (a dropped transfer, a stalled
    cycle, ...); the lists name the cores a kill or standalone flip hit.
    All fields stay at their zero values unless a
    :class:`repro.faults.FaultPlan` is installed.
    """

    #: GRB transfers whose payload was lost in flight
    dropped: int = 0
    #: GRB transfers whose payload was garbled in flight
    corrupted: int = 0
    #: GRB transfers that arrived late by the plan's ``delay_ns``
    delayed: int = 0
    #: garbled payloads a trailing core actually consumed (each triggers
    #: a detection + re-fork recovery)
    corrupt_consumed: int = 0
    #: corruption recoveries performed (resync of the victim)
    recoveries: int = 0
    #: cycles burned inside fault-injected stall windows
    stalled_cycles: int = 0
    #: config names of cores removed by a kill fault
    killed: List[str] = field(default_factory=list)
    #: config names of cores flipped to standalone execution
    flipped: List[str] = field(default_factory=list)

    @property
    def any_faults(self) -> bool:
        """True when any fault action was applied during the run."""
        return bool(
            self.dropped or self.corrupted or self.delayed
            or self.corrupt_consumed or self.recoveries
            or self.stalled_cycles or self.killed or self.flipped
        )


@dataclass
class ContestResult:
    """Outcome of one contested execution."""

    config_names: List[str]
    trace_name: str
    instructions: int
    time_ps: int
    winner: str                      # core that retired the last instruction
    lead_changes: int
    saturated: List[str]             # cores disabled as saturated laggers
    store_stalls: int
    merged_stores: int
    per_core: Dict[str, RunStats] = field(default_factory=dict)
    #: saturated-lagger re-forks performed (non-zero only under the
    #: ``resync`` lagger policy)
    resyncs: int = 0

    @property
    def ipt(self) -> float:
        """Instructions per nanosecond of the contested execution."""
        return self.instructions * 1000.0 / self.time_ps


class ContestingSystem:
    """N-way architectural contesting over a single trace.

    Parameters
    ----------
    configs:
        One :class:`CoreConfig` per participating core (the paper evaluates
        N=2; any N >= 2 is supported).
    trace:
        The dynamic instruction trace all cores execute.
    grb_latency_ns:
        Core-to-core propagation latency of the global result buses
        (Section 5.2 uses 1 ns; Figure 8 sweeps it).
    max_lag:
        Maximum lagging distance in instructions.  ``0`` (default) derives
        ``max(2048, 4 * grb_latency_ns * max peak IPS)`` — the pop/fetch
        counters only need to represent the maximum separation allowed
        between leader and lagger (Section 4.1.4); the default rides out
        transient phase-rate mismatches while still bounding the hardware
        cost of the counters and FIFOs.  A receiver whose FIFO occupancy
        exceeds this *continuously* for ``sat_grace_ns`` is a saturated
        lagger (one that cannot keep up with the leader's retirement rate,
        as opposed to one riding out a transient stall) and is removed from
        contesting, the paper's remedy.
    sat_grace_ns:
        How long the lagging distance must be continuously exceeded before
        the lagger is declared saturated.
    store_queue_capacity:
        Capacity of the synchronizing store queue (Section 4.2).
    prewarm:
        Warm each core's caches/predictor with one functional pass (see
        :meth:`repro.uarch.core.Core._prewarm`).
    faults:
        Optional :class:`repro.faults.FaultPlan` perturbing this run
        (dropped/corrupted/delayed GRB transfers, killed/stalled cores,
        mid-run standalone flips).  ``None`` — the default — takes none
        of the fault paths, keeping the run byte-identical to a build
        without fault injection; diagnostics accumulate in
        ``self.fault_stats`` when a plan is installed.
    skip_ahead:
        Event-driven fast path (default): when no active core can do any
        work at its current clock edge, jump every core straight to the
        first edge at or past the earliest *work* time in the whole
        system (:meth:`_next_work_ps`) instead of round-robin stepping
        through idle edges.  Edges landing exactly on the horizon still
        execute for real, so the driver's tie-break order — and hence
        every cross-core interaction — is preserved exactly; results are
        byte-identical to cycle stepping (pinned by
        ``tests/differential``).
    tracer:
        Optional :class:`repro.telemetry.Tracer` observing the run: lead
        changes, GRB transfers, skip-ahead jumps, faults, saturations and
        re-forks, with simulated timestamps.  ``None`` (default) takes no
        telemetry path anywhere; results are bit-identical either way
        (pinned by ``tests/differential/test_telemetry.py``).
    """

    def __init__(
        self,
        configs: Sequence[CoreConfig],
        trace: Union[Trace, StreamingTrace],
        grb_latency_ns: float = 1.0,
        max_lag: int = 0,
        store_queue_capacity: int = 512,
        prewarm: bool = True,
        sat_grace_ns: float = 400.0,
        early_branch_resolution: bool = True,
        lagger_policy: str = "disable",
        resync_penalty_cycles: int = 100,
        shared_l3: Optional[CacheConfig] = None,
        shared_l3_latency_ns: float = 4.0,
        faults: Optional[FaultPlan] = None,
        skip_ahead: bool = True,
        # a repro.telemetry.Tracer (annotated loosely: telemetry is an
        # observer layer and the model must not depend on it)
        tracer: Optional[Any] = None,
    ) -> None:
        if len(configs) < 2:
            raise ValueError("contesting requires at least two cores")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0 (0 derives a default)")
        if lagger_policy not in ("disable", "resync"):
            raise ValueError(
                f"unknown lagger_policy {lagger_policy!r}; "
                "expected 'disable' or 'resync'"
            )
        # Contested execution re-forks cores at arbitrary trace points and
        # scans store prefixes up front, so a streaming trace is
        # materialised once here rather than thrashing its chunk window.
        if isinstance(trace, StreamingTrace):
            trace = trace.materialise()
        self.trace = trace
        self.latency_ps = ns_to_ps(grb_latency_ns)
        #: Figure-5 corner case on/off (ablation hook; the paper's design
        #: always has it on)
        self.early_branch_resolution = early_branch_resolution
        #: what to do with a saturated lagger: "disable" (the paper's
        #: remedy: remove it from contesting) or "resync" (extension:
        #: re-fork it at the leader's retirement point, as the paper's
        #: exception handling machinery re-forks threads)
        self.lagger_policy = lagger_policy
        self.resync_penalty_cycles = resync_penalty_cycles
        self.resyncs = 0
        peak_ips = max(cfg.peak_ips for cfg in configs)
        self.max_lag = max_lag or max(2048, int(4 * grb_latency_ns * peak_ips))
        self._grace_ps = ns_to_ps(sat_grace_ns)
        self._over_since: Dict[int, Optional[int]] = {
            i: None for i in range(len(configs))
        }

        #: optional shared cache level beyond the private L2s (Section
        #: 4.2's "shared cache level"); merged stores are performed to it
        #: and every core's L2 misses probe it with a per-clock-domain
        #: cycle latency derived from ``shared_l3_latency_ns``
        self.shared_l3: Optional[Cache] = None
        if shared_l3 is not None:
            self.shared_l3 = Cache(shared_l3)
        self.tracer = tracer
        self.cores: List[Core] = [
            Core(
                cfg, trace, core_id=i, contest=self, prewarm=prewarm,
                shared_cache=self.shared_l3,
                shared_latency=(
                    max(1, round(shared_l3_latency_ns / cfg.clock_period_ns))
                    if self.shared_l3 is not None
                    else 0
                ),
                tracer=tracer,
            )
            for i, cfg in enumerate(configs)
        ]
        if tracer is not None:
            tracer.set_initial_leader(self.cores[0].core_id)
        self._active: List[Core] = list(self.cores)
        #: fifos[receiver_id] -> list of ResultFifo (one per other core)
        self.fifos: Dict[int, List[ResultFifo]] = {
            c.core_id: [
                ResultFifo(o.core_id) for o in self.cores if o is not c
            ]
            for c in self.cores
        }
        #: fifo_index[receiver_id][sender_id] -> ResultFifo (fast GRB sink lookup)
        self._fifo_index: Dict[int, Dict[int, ResultFifo]] = {
            rid: {f.sender_id: f for f in flist}
            for rid, flist in self.fifos.items()
        }
        self.store_queue = SyncStoreQueue(
            [c.core_id for c in self.cores], store_queue_capacity
        )

        self._ops = trace.ops
        self.skip_ahead = skip_ahead
        # prefix store counts (stores in trace[:k]) for re-fork accounting,
        # and the ordered store addresses for merged-store write-through to
        # the shared level
        self._store_prefix = [0] * (len(trace) + 1)
        self._store_addr_list: List[int] = []
        acc = 0
        addrs = trace.addrs
        for k, op in enumerate(trace.ops):
            if op == 4:  # OP_STORE
                acc += 1
                self._store_addr_list.append(addrs[k])
            self._store_prefix[k + 1] = acc
        self._merged_written = 0
        self._leader: Core = self.cores[0]
        self.lead_changes = 0
        self.saturated: List[str] = []

        #: the installed FaultPlan (None = no fault paths taken anywhere)
        self.faults = faults
        #: the plan again iff it makes per-transfer decisions, so a plan
        #: that only kills/stalls cores costs nothing on the GRB hot path
        self._xfer_faults = (
            faults if faults is not None and faults.perturbs_transfers
            else None
        )
        self._fault_delay_ps = (
            ns_to_ps(faults.delay_ns) if faults is not None else 0
        )
        self._fault_killed = False
        self._fault_flipped = False
        self._pending_corruption: Optional[Core] = None
        #: fault diagnostics (populated only when a plan is installed)
        self.fault_stats = FaultStats()

    # ------------------------------------------------------------------
    # adapter interface (called from Core)
    # ------------------------------------------------------------------

    def drain(self, core: Core, now_ps: int) -> None:
        """Scenario-1 processing at the start of a receiver cycle.

        Pops every *late* arrived result (seq older than the core's fetch
        counter) and discards it, except that branch results are offered for
        early misprediction resolution (Figure 5).  Also detects saturated
        laggers.
        """
        fetch_index = core.fetch_index
        ops = self._ops
        worst = 0
        for fifo in self.fifos[core.core_id]:
            arrivals = fifo.arrivals
            while (
                arrivals
                and arrivals[0] <= now_ps
                and fifo.next_seq < fetch_index
            ):
                arrivals.popleft()
                seq = fifo.next_seq
                fifo.next_seq = seq + 1
                fifo.popped_late += 1
                if fifo.faulted is not None and fifo.faulted.pop(seq, 0):
                    continue  # payload lost/garbled in flight: discard
                if (
                    self.early_branch_resolution
                    and ops[seq] == _OP_BRANCH
                ):
                    core.early_resolve_branch(seq)
            if fifo.occupancy > worst:
                worst = fifo.occupancy
        if worst > self.max_lag:
            since = self._over_since[core.core_id]
            if since is None:
                self._over_since[core.core_id] = now_ps
            elif now_ps - since > self._grace_ps:
                self._saturate(core)
        else:
            self._over_since[core.core_id] = None

    def pop_for_fetch(self, core: Core, seq: int, now_ps: int) -> bool:
        """Scenario-2 check at fetch: pop a result pairing with ``seq``.

        Returns True when some FIFO's head holds the result of exactly the
        instruction being fetched and it has already arrived — the core is
        trailing and the instruction completes early via injection.
        """
        for fifo in self.fifos[core.core_id]:
            if (
                fifo.next_seq == seq
                and fifo.arrivals
                and fifo.arrivals[0] <= now_ps
            ):
                fifo.arrivals.popleft()
                fifo.next_seq = seq + 1
                if fifo.faulted is not None:
                    flag = fifo.faulted.pop(seq, 0)
                    if flag == XFER_DROP:
                        continue  # lost in flight: nothing usable arrived
                    if flag == XFER_CORRUPT:
                        # The garbled value is consumed, then caught by
                        # the checking machinery: the receiver recovers
                        # via the existing resync path after this step.
                        self.fault_stats.corrupt_consumed += 1
                        self._pending_corruption = core
                        return False
                fifo.popped_paired += 1
                return True
        return False

    def on_retire(self, core: Core, seq: int, now_ps: int) -> None:
        """Broadcast a retired instruction on ``core``'s GRB."""
        arrival = now_ps + self.latency_ps
        sender = core.core_id
        xfer_faults = self._xfer_faults
        tracer = self.tracer
        if xfer_faults is None:
            for receiver in self._active:
                if receiver is core or not receiver.contesting_enabled:
                    continue
                fifo = self._fifo_index[receiver.core_id][sender]
                fifo.push(arrival)
                if tracer is not None:
                    tracer.grb_transfer(
                        now_ps, sender, receiver.core_id, seq,
                        len(fifo.arrivals),
                    )
        else:
            stats = self.fault_stats
            for receiver in self._active:
                if receiver is core or not receiver.contesting_enabled:
                    continue
                fifo = self._fifo_index[receiver.core_id][sender]
                flag = xfer_faults.transfer_fault(
                    sender, receiver.core_id, seq
                )
                if flag == XFER_OK:
                    fifo.push(arrival)
                elif flag == XFER_DELAY:
                    stats.delayed += 1
                    fifo.push(arrival + self._fault_delay_ps)
                else:
                    # the entry still occupies its FIFO slot (sequence
                    # numbering is implicit), but its payload is marked
                    # lost (DROP) or garbled (CORRUPT) for the pop paths
                    if fifo.faulted is None:
                        fifo.faulted = {}
                    fifo.faulted[seq] = flag
                    if flag == XFER_DROP:
                        stats.dropped += 1
                    else:
                        stats.corrupted += 1
                    fifo.push(arrival)
                if tracer is not None:
                    tracer.grb_transfer(
                        now_ps, sender, receiver.core_id, seq,
                        len(fifo.arrivals), fate=flag,
                    )
        # Emergent-leadership bookkeeping (diagnostics only).
        if core is not self._leader and core.commit_count > self._leader.commit_count:
            prev = self._leader
            self._leader = core
            self.lead_changes += 1
            if tracer is not None:
                tracer.lead_change(now_ps, prev.core_id, core.core_id, seq)
                for c in self._active:
                    tracer.rob_occupancy(now_ps, c.core_id, c.rob_occupancy)

    def store_commit_ok(self, core: Core, seq: int) -> bool:
        """Whether the synchronizing store queue admits the next store."""
        return self.store_queue.can_commit(core.core_id)

    def store_performed(self, core: Core, seq: int) -> None:
        """Record a privately performed store; merge when all cores have."""
        self.store_queue.perform(core.core_id)
        self._write_merged_to_shared()

    def _write_merged_to_shared(self) -> None:
        """Perform newly merged stores to the shared level (Section 4.2:
        the single merged instance is performed to the shared cache)."""
        if self.shared_l3 is None:
            return
        while self._merged_written < self.store_queue.merged:
            self.shared_l3.lookup(self._store_addr_list[self._merged_written])
            self._merged_written += 1

    def syscall_ready(self, core: Core, seq: int) -> bool:
        """Semaphore check of the parallelized exception handler (4.3):
        the handler may run once every active core has reached the
        exception."""
        return all(c.commit_count >= seq for c in self._active)

    # ------------------------------------------------------------------

    def _saturate(self, core: Core) -> None:
        """Handle a saturated lagger (Section 4.1.4).

        Under the paper's policy the lagger is disabled; under the
        "resync" extension it is re-forked at the leader's retirement
        point and keeps contesting.
        """
        if self.lagger_policy == "resync":
            self._resync(core)
            return
        if self.tracer is not None:
            self.tracer.saturated(core.time_ps, core.core_id, core.config.name)
        self._remove_core(core)

    def _remove_core(self, core: Core) -> None:
        """Take a core out of the run entirely (saturation or fault kill):
        halt it, release the store queue, and drop its queued results."""
        core.disable_contesting()
        core.halted = True
        self.saturated.append(core.config.name)
        self._active = [c for c in self._active if c is not core]
        self.store_queue.deactivate(core.core_id)
        self._write_merged_to_shared()
        # Drop its queued results; it will not consume them.
        for fifo in self.fifos[core.core_id]:
            fifo.arrivals.clear()

    def _resync(self, core: Core) -> None:
        """Re-fork a saturated lagger at the most advanced retire point."""
        target = max(
            (c.commit_count for c in self._active if c is not core),
            default=core.commit_count,
        )
        if target <= core.commit_count:
            return
        self._refork(core, target)
        if self.tracer is not None:
            self.tracer.resync(core.time_ps, core.core_id, target)

    def _refork(self, core: Core, target: int) -> None:
        """Re-fork ``core`` at retirement point ``target``: restart it
        there (charging ``resync_penalty_cycles``), realign its receive
        FIFOs and store-queue progress, and reset its saturation timer."""
        core.resync(target, penalty_cycles=self.resync_penalty_cycles)
        for fifo in self.fifos[core.core_id]:
            fifo.arrivals.clear()
            if fifo.next_seq < target:
                fifo.next_seq = target
        self.store_queue.set_progress(
            core.core_id, self._store_prefix[target]
        )
        self._write_merged_to_shared()
        self._over_since[core.core_id] = None
        self.resyncs += 1

    # ------------------------------------------------------------------
    # fault orchestration (every path below requires an installed plan)
    # ------------------------------------------------------------------

    def _fault_preempt(self, core: Core, faults: FaultPlan) -> bool:
        """Apply core-level faults due at this core's current edge.

        Returns True when the scheduled step must be skipped (the core was
        killed, or this cycle is inside its stall window).  A standalone
        flip falls through — the core still steps, it just stops receiving.
        """
        cid = core.core_id
        if (
            faults.kill_core == cid
            and not self._fault_killed
            and core.commit_count >= faults.kill_at_commit
        ):
            self._fault_killed = True
            if self.tracer is not None:
                self.tracer.fault(
                    core.time_ps, cid, "kill", core.config.name
                )
            self._remove_core(core)
            self.fault_stats.killed.append(core.config.name)
            return True
        if (
            faults.standalone_core == cid
            and not self._fault_flipped
            and core.commit_count >= faults.standalone_at_commit
        ):
            self._fault_flipped = True
            core.disable_contesting()
            self.fault_stats.flipped.append(core.config.name)
            if self.tracer is not None:
                self.tracer.fault(
                    core.time_ps, cid, "flip", core.config.name
                )
            # it no longer consumes its queued results
            for fifo in self.fifos[cid]:
                fifo.arrivals.clear()
        if (
            faults.stall_core == cid
            and faults.stall_cycles > 0
            and faults.stall_at_cycle
            <= core.cycle
            < faults.stall_at_cycle + faults.stall_cycles
        ):
            if (
                self.tracer is not None
                and core.cycle == faults.stall_at_cycle
            ):
                # one event per window, not one per stalled cycle
                self.tracer.fault(
                    core.time_ps, cid, "stall",
                    f"{faults.stall_cycles} cycles",
                )
            core.stall_cycle()
            self.fault_stats.stalled_cycles += 1
            return True
        return False

    def _recover_corruption(self, core: Core) -> None:
        """Recover a core that consumed a garbled GRB result.

        Detection terminates and re-forks the victim at the most advanced
        retirement point — the same :meth:`_refork` a resynced saturated
        lagger gets, charging ``resync_penalty_cycles``.  Re-forking
        in place (at the victim's own retirement point) is *not* enough:
        its receive FIFOs would stay misaligned and fill while it
        refetched the squashed window, tripping the saturation detector.
        """
        if core.halted or core.done:
            return
        target = max(
            (c.commit_count for c in self._active), default=core.commit_count
        )
        self._refork(core, target)
        self.fault_stats.recoveries += 1
        if self.tracer is not None:
            self.tracer.fault(
                core.time_ps, core.core_id, "recovery", f"refork@{target}"
            )
            self.tracer.resync(core.time_ps, core.core_id, target)

    # ------------------------------------------------------------------
    # event-driven skip-ahead
    # ------------------------------------------------------------------

    def _core_has_work_now(
        self, core: Core, faults: Optional[FaultPlan]
    ) -> bool:
        """Whether stepping ``core`` at its current clock edge could change
        any state (so the edge must be executed for real, not skipped).

        Mirrors everything a scheduled iteration of :meth:`run` can do at
        this edge: a core-level fault preemption, any pipeline stage doing
        work (:meth:`repro.uarch.core.Core.next_event_cycle`), and — for a
        receiving core — the ``drain`` side of contesting: a matured late
        arrival to pop, a lagging-distance state transition, or an expired
        saturation grace period.  Matured arrivals the core is *trailing*
        on (``next_seq >= fetch_index``) need no entry: only fetch consumes
        them, and a core that can fetch is already busy by the pipeline
        check.
        """
        if faults is not None and faults.next_core_fault_cycle(
            core.core_id, core.cycle, core.commit_count,
            self._fault_killed, self._fault_flipped,
        ) == core.cycle:
            return True
        if core.next_event_cycle() <= core.cycle:
            return True
        if core.contesting_enabled:
            now = core.time_ps
            fetch_index = core.fetch_index
            worst = 0
            for fifo in self.fifos[core.core_id]:
                arrivals = fifo.arrivals
                if arrivals:
                    if fifo.next_seq < fetch_index and arrivals[0] <= now:
                        return True
                    if len(arrivals) > worst:
                        worst = len(arrivals)
            over_since = self._over_since[core.core_id]
            if (worst > self.max_lag) != (over_since is not None):
                return True  # drain would flip the lagging-distance state
            if over_since is not None and now - over_since > self._grace_ps:
                return True  # saturation fires at this edge
        return False

    def _skip_idle_gap(
        self, active: List[Core], faults: Optional[FaultPlan]
    ) -> bool:
        """Jump every active core to its first clock edge at or past the
        earliest future work time anywhere in the system.

        Only called when no active core has work at its current edge, i.e.
        every cycle strictly before the horizon is a provable no-op on
        every core (occupancies, fetch counters and commit counts are all
        frozen while nothing steps).  Edges landing exactly on the horizon
        are *not* executed here — the driver's normal min-time scan runs
        them for real, preserving its tie-break order and hence every
        cross-core interaction.  Returns False when no future event exists
        anywhere (deadlock): the caller falls back to cycle stepping, which
        reproduces the reference loop's step-budget diagnostics exactly.
        """
        horizon: Optional[int] = None
        for core in active:
            period = core.period_ps
            now = core.time_ps
            cycle = core.cycle
            nxt = core.next_event_cycle()
            if nxt != NO_EVENT:
                t = now + (nxt - cycle) * period
                if horizon is None or t < horizon:
                    horizon = t
            if faults is not None:
                fault_cycle = faults.next_core_fault_cycle(
                    core.core_id, cycle, core.commit_count,
                    self._fault_killed, self._fault_flipped,
                )
                if fault_cycle is not None:
                    t = now + (fault_cycle - cycle) * period
                    if horizon is None or t < horizon:
                        horizon = t
            if core.contesting_enabled:
                fetch_index = core.fetch_index
                for fifo in self.fifos[core.core_id]:
                    if fifo.arrivals and fifo.next_seq < fetch_index:
                        t = fifo.arrivals[0]
                        if horizon is None or t < horizon:
                            horizon = t
                over_since = self._over_since[core.core_id]
                if over_since is not None:
                    # saturation fires at the first edge where
                    # now - over_since > grace; times are integer ps
                    t = over_since + self._grace_ps + 1
                    if horizon is None or t < horizon:
                        horizon = t
        if horizon is None:
            return False
        for core in active:
            gap = horizon - core.time_ps
            if gap > 0:
                period = core.period_ps
                core.skip_to(core.cycle + (gap + period - 1) // period)
        return True

    # ------------------------------------------------------------------

    def run(self, max_steps: int = 0) -> ContestResult:
        """Co-simulate until the first core retires the last instruction."""
        trace_len = len(self.trace)
        limit = max_steps or (
            trace_len * (max(c.config.mem_latency for c in self.cores) + 64)
            * len(self.cores)
            + 1_000_000
        )
        faults = self.faults
        skip_ahead = self.skip_ahead
        steps = 0
        active = self._active
        winner: Optional[Core] = None
        # Idle-gap probing is pure optimisation — probing less often only
        # skips less, never changes results — so back off exponentially
        # while the system keeps refusing to go idle: a compute-bound
        # contest pays one probe per ~32 steps instead of one per step,
        # and a stall is still caught within one backoff window of the
        # last work edge.
        probe_in = 0
        probe_backoff = 1
        while winner is None:
            if skip_ahead:
                if probe_in > 0:
                    probe_in -= 1
                elif any(self._core_has_work_now(c, faults) for c in active):
                    probe_in = probe_backoff
                    if probe_backoff < 128:
                        probe_backoff *= 2
                elif self._skip_idle_gap(active, faults):
                    # The whole system jumped to the next event; at least
                    # one core landed on a work edge, so a real step
                    # follows immediately.
                    probe_backoff = 1
                    continue
                else:
                    # Dead system: no future event anywhere.  Stop probing
                    # and cycle-step into the step-budget diagnostics,
                    # exactly as the reference loop would.
                    skip_ahead = False
            # Step the core whose current clock edge is earliest.
            core = active[0]
            t = core.time_ps
            for other in active[1:]:
                if other.time_ps < t:
                    core = other
                    t = other.time_ps
            if faults is not None and self._fault_preempt(core, faults):
                active = self._active  # may shrink on a kill
                if not active:
                    raise RuntimeError(
                        "fault plan removed every core; no progress possible"
                    )
                steps += 1
                if steps > limit:
                    raise RuntimeError(
                        "contesting co-simulation exceeded its step budget: "
                        "likely deadlock"
                    )
                continue
            core.step()
            if faults is not None and self._pending_corruption is not None:
                victim = self._pending_corruption
                self._pending_corruption = None
                self._recover_corruption(victim)
            if core.done:
                winner = core
                break
            active = self._active  # may shrink on saturation
            if not active:
                raise RuntimeError("all cores saturated; no progress possible")
            steps += 1
            if steps > limit:
                raise RuntimeError(
                    "contesting co-simulation exceeded its step budget: "
                    "likely deadlock"
                )
        for c in self.cores:
            c.collect_cache_stats()
        if self.tracer is not None:
            for c in self.cores:
                self.tracer.finalise_core(
                    c.core_id, c.stats.committed, c.cycle, c.time_ps
                )
            self.tracer.finish(winner.time_ps)
        return ContestResult(
            config_names=[c.config.name for c in self.cores],
            trace_name=self.trace.name,
            instructions=trace_len,
            time_ps=winner.time_ps,
            winner=winner.config.name,
            lead_changes=self.lead_changes,
            saturated=list(self.saturated),
            store_stalls=self.store_queue.stalls,
            merged_stores=self.store_queue.merged,
            per_core={
                f"{c.core_id}:{c.config.name}": c.stats for c in self.cores
            },
            resyncs=self.resyncs,
        )


def run_contest(
    config_a: CoreConfig,
    config_b: CoreConfig,
    trace: Union[Trace, StreamingTrace],
    grb_latency_ns: float = 1.0,
    **kwargs: Any,
) -> ContestResult:
    """Run 2-way contesting (the configuration the paper evaluates)."""
    system = ContestingSystem(
        [config_a, config_b], trace, grb_latency_ns=grb_latency_ns, **kwargs
    )
    return system.run()
