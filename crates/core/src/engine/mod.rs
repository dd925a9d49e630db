//! Event-driven protocol engine: concurrent per-node protocol state
//! machines replacing the world-driving blocking loops.
//!
//! Each in-flight operation (finite transfer, reliable transfer, stream
//! send, RPC, am4 message) is a state machine whose `step` performs
//! exactly one iteration of the corresponding blocking driver loop —
//! minus the `advance(1)` the blocking loop used to pass time. The
//! [`Engine`] owns the clock. Its default scheduler is readiness-driven
//! ([`SchedMode::EventDriven`]): it steps only ready operations, puts an
//! operation whose step idles to sleep until a packet touches one of its
//! endpoints or its own timer comes due, and, once every running
//! operation sleeps, advances the substrate — one cycle while packets
//! are in flight, otherwise straight to the next timer. A waking
//! operation receives the timer ticks it slept through in one batch;
//! those ticks drive retry windows from
//! [`RecoveryPolicy`](crate::RecoveryPolicy) and stream retransmission
//! timeouts. The retained reference scheduler
//! ([`SchedMode::ReferenceRoundRobin`]) steps every running operation
//! on each pass and ticks each one once per idle cycle; the two produce
//! the identical trace and per-feature bills.
//!
//! Because a single-operation engine run performs the same instruction
//! sequence as the old blocking loop, the blocking entry points
//! ([`Machine::xfer`], [`Machine::stream_send`], [`Machine::rpc_call`],
//! …) are now thin run-to-completion wrappers over the engine and stay
//! cost-identical per feature — the paper's tables regenerate exactly.
//!
//! ## The substrate may be sharded; the engine is unchanged
//!
//! The engine is single-threaded by design: one thread owns the
//! machine, steps operations, and calls `advance` on the shared
//! substrate handle. The sharded network
//! ([`ShardedNetwork`](timego_netsim::ShardedNetwork)) steps its
//! shards in index order *inside* `advance`, then presents merged
//! wakes in ascending node-id order and reduced statistics, so from
//! here it is one more substrate. Nothing in the pump changes:
//! injections happen between advances (which is exactly the property
//! the sharded substrate's determinism argument rests on), and idle
//! clock-jumps hand the substrate one big `advance(n)`.
//!
//! ## Concurrency model
//!
//! Operations are admitted in submission order. Two operations conflict
//! when they would consume each other's packets: finite transfers
//! (plain or reliable) between the same ordered `(src, dst)` pair, and
//! stream sends between the same ordered pair. Conflicting operations
//! are serialized; everything else interleaves freely. RPCs never
//! conflict — replies are correlated by call id, so any number of
//! concurrent calls (even between the same pair) sort themselves out.
//!
//! Packet consumption is *gated*: an operation only issues the receive
//! sequence when a cost-free NI peek
//! ([`RxMeta`](timego_netsim::RxMeta)) shows that the
//! packet at the head of its node's queue belongs to it. Reserved-tag
//! packets claimed by no active operation (stale duplicates of
//! completed operations) are discarded by the engine with the same
//! instruction shape the blocking recovery paths charged for stray
//! discards.
//!
//! ## Submission
//!
//! [`Engine::submit`] is the one entry point. An [`Op`] constructor
//! names the protocol family and its payload (`Op::xfer`,
//! `Op::reliable`, `Op::stream`, `Op::rpc`, `Op::am4`), and four
//! modifiers on the resulting [`Submit`] compose with every family and
//! with each other: [`Submit::after`] (run-after dependencies),
//! [`Submit::recovering`] (engine-native re-execution),
//! [`Submit::deadline`] (supervision) and [`Submit::class`] (per-class
//! cost attribution). Each family's checks run in one place, before an
//! id is assigned, so a rejected submission leaves no trace.
//!
//! ## Run-after dependencies
//!
//! Every operation can name predecessors with
//! [`Submit::after`]. A dependent operation stays **held** — submitted
//! but not admissible — until every predecessor completes successfully;
//! the moment the last one does, the scheduler records
//! [`EngineEvent::Released`] and the operation joins the ordinary
//! admission queue (conflict-key FIFO applies from that point, not
//! before: a held operation does not occupy its conflict key). If a
//! predecessor fails, the dependent fails immediately with
//! [`ProtocolError::DependencyFailed`] naming that predecessor, and the
//! failure cascades through every transitive dependent. Dependencies
//! must name already-submitted operations — `OpId`s are handed out at
//! submission, so a forward edge (and therefore a cycle) is rejected at
//! submission time.
//!
//! ## Supervision: deadlines, watchdog, cancellation
//!
//! Liveness is enforced per operation, not globally. Every operation
//! can carry a *deadline* ([`Submit::deadline`]): when the substrate
//! clock passes it, the operation — running, pending, or held — is
//! settled with the retryable [`ProtocolError::DeadlineExceeded`],
//! freeing its conflict key so queued work proceeds. Independently, a
//! *watchdog* (default bound 4 × `max_wait_cycles`, override with
//! [`Engine::set_watchdog`]) settles any individual running operation
//! that has gone that many cycles without making progress — the
//! protocol state machines' own retry timeouts fire first in any sane
//! configuration, so the watchdog only catches operations wedged
//! outside their own envelope. [`Engine::cancel`] settles one
//! operation with [`ProtocolError::Cancelled`] (cascading
//! `DependencyFailed` to its dependents), and [`Engine::quiesce`]
//! drains the whole engine gracefully: not-yet-started work is
//! cancelled, admitted work runs to completion, and residual fabric
//! state is swept.
//!
//! ## Session epochs
//!
//! Reliable transfers stamp every handshake and control packet with a
//! per-ordered-pair monotonic *session epoch* (allocated at admission
//! from [`Machine::next_session_epoch`]). The data-packet nonce is
//! derived from the epoch, and both endpoints discard — under
//! `Feature::FaultTol`, with the stray-discard instruction shape — any
//! packet carrying a stale epoch. This closes the duplicate-poisoning
//! hole: a jitter-delayed duplicate of an *earlier* same-pair
//! handshake can no longer be mistaken for the current session's
//! traffic. Epoch stamps ride in header words the protocol already
//! paid to send, so a clean run bills exactly what the unstamped
//! protocol billed.

mod class;
mod op;
mod pump;
mod recovery;
mod supervise;

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use timego_cost::CostVector;
use timego_netsim::{LatencyStats, NodeId};

use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::sched::{SchedCounters, SchedMode, SchedProfiler, Slab, TimingWheel};
use crate::stream::StreamOutcome;
use crate::xfer::XferOutcome;
use crate::xfer_reliable::ReliableOutcome;

use op::{ConflictKey, OpKind, OpSpec, Route};
use pump::{RunSlot, WheelItem};
use recovery::{RecoveryState, RetryBudgetState};

pub use op::{Op, Submit};
pub(crate) use op::{check_restart, pairwise, peek_is, win, Stepped};

/// Identifies one submitted operation within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

impl OpId {
    /// The raw id (monotonically increasing in submission order).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Mint an id from a raw value (crate-internal test helper).
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> Self {
        OpId(raw)
    }
}

/// What a completed operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A finite-sequence transfer completed.
    Xfer(XferOutcome),
    /// A fault-tolerant finite-sequence transfer completed.
    Reliable(ReliableOutcome),
    /// A stream send completed.
    Stream(StreamOutcome),
    /// An RPC completed with these reply words.
    Rpc([u32; 4]),
    /// A single four-word active message was delivered. The words are
    /// what the destination actually read off its NI (zeroed when a
    /// registered handler consumed the message instead of handing it
    /// back).
    Am4([u32; 4]),
}

/// Scheduler trace events, in order. Tests use the interleaving of
/// `Progressed` events to prove operations ran concurrently rather than
/// back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The operation was accepted into the engine.
    Submitted(OpId),
    /// Every run-after predecessor of the operation completed
    /// successfully: the operation became admissible and joined the
    /// admission queue. Operations submitted with no outstanding
    /// dependencies are released immediately after submission.
    Released(OpId),
    /// The operation was admitted (its conflict key was free) and
    /// started executing.
    Started(OpId),
    /// The operation's step made protocol progress (sent, received, or
    /// transitioned).
    Progressed(OpId),
    /// The operation finished; `true` means it produced an outcome,
    /// `false` an error.
    Completed(OpId, bool),
    /// The operation settled with a retryable error but carries a
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) with budget left:
    /// instead of completing, the engine parked it for the backoff
    /// window and will re-execute it under the same `OpId` with a fresh
    /// session epoch. Run-after
    /// dependents stay held across re-executions and release only when
    /// the operation finally completes successfully.
    Recovering(OpId),
    /// The operation was cancelled ([`Engine::cancel`] or
    /// [`Engine::quiesce`]) — recorded uniformly whether the operation
    /// was running, pending, dependency-held, or parked for recovery,
    /// immediately before the `Completed(id, false)` it settles with.
    Cancelled(OpId),
}

/// One scheduler trace entry: an [`EngineEvent`] stamped with the
/// substrate clock (network cycles) at the moment it was recorded.
///
/// The stamps turn the trace into a measurement instrument: the
/// distance from an operation's `Submitted` stamp to its `Completed`
/// stamp is its *completion time* — queueing delay included — which is
/// what an open-loop offered-load study needs (see
/// [`Engine::completion_times`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Substrate clock when the event was recorded, in network cycles.
    pub at: u64,
    /// The scheduler event itself.
    pub event: EngineEvent,
}

/// A submitted operation with its state machine and route, queued,
/// held or running.
struct ActiveOp {
    id: OpId,
    op: OpKind,
    route: Route,
    /// Substrate clock at admission / last step that made progress —
    /// what the no-progress watchdog measures against.
    last_progress_at: u64,
}

/// A submitted operation still waiting on run-after predecessors.
struct HeldOp {
    op: ActiveOp,
    waiting_on: HashSet<OpId>,
}

/// The substrate clock, as raw network cycles (cost-free introspection).
pub(crate) fn clock(m: &Machine) -> u64 {
    m.network().borrow().now().cycles()
}

/// The protocol engine: a scheduler interleaving NI polls, timer
/// expiries, and injections across every submitted operation.
///
/// Build operations with the [`Op`] constructors and [`Submit`]
/// modifiers, hand them to [`Engine::submit`], drive them to completion
/// with [`Engine::run`], and collect `OpId`-keyed results with
/// [`Engine::take_outcome`]:
///
/// ```
/// use timego_am::{CmamConfig, Engine, Machine, Op, OpOutcome, RecoveryPolicy};
/// use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
/// use timego_ni::share;
///
/// # fn main() -> Result<(), timego_am::ProtocolError> {
/// let net = share(ScriptedNetwork::new(3, DeliveryScript::InOrder));
/// let mut m = Machine::new(net, 3, CmamConfig::default());
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
///
/// let mut eng = Engine::new();
/// let first = eng.submit_xfer(&m, a, b, &[1, 2, 3])?;
/// let second = eng.submit(
///     &m,
///     Op::reliable(b, c, &[4, 5, 6], &RecoveryPolicy::retransmit())
///         .after(&[first])
///         .recovering(&RecoveryPolicy::default())
///         .deadline(100_000)
///         .class(1),
/// )?;
/// eng.run(&mut m);
/// assert!(matches!(eng.take_outcome(second), Some(Ok(OpOutcome::Reliable(_)))));
/// assert!(eng.class_bill(1).total() > 0);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    next_id: u64,
    pending: VecDeque<ActiveOp>,
    // Running ops live in a slot-stable arena; `run_order` preserves
    // admission order (what the sweep and the watchdog scan follow).
    slots: Slab<RunSlot>,
    run_order: Vec<u32>,
    next_inc: u64,
    mode: SchedMode,
    // Timing wheel carrying op wakes, deadlines, watchdogs, and
    // park-resume markers (event mode only; empty under the reference
    // round-robin).
    wheel: TimingWheel<WheelItem>,
    // Wheel expiries harvested by `absorb_wakes`, pending validation in
    // `supervise_event`. Watchdog tuples are `(slot, inc)`.
    fired_deadlines: Vec<OpId>,
    fired_watchdogs: Vec<(u32, u64)>,
    // node index -> `(slot, inc, endpoint idx)` entries for ops
    // currently *sleeping* on packet activity at that node. Pushed by
    // `sleep_slot`, drained wholesale by `touch_node` (waking each
    // still-valid sleeper), so the total list work is bounded by the
    // number of sleeps rather than touches x lifetime subscribers —
    // the difference between O(n) and O(n^2) under hotspot traffic.
    node_subs: Vec<Vec<(u32, u64, u8)>>,
    // Nodes whose rx queue saw activity since the orphan sweep last
    // proved their head clean. Invariant: any node whose queue head is
    // a discardable unclaimed packet is in this set, so scanning it
    // ascending finds the same node a full 0..N scan would.
    orphan_dirty: BTreeSet<usize>,
    // Engine-advance time: total cycles advanced by the *scheduler's
    // own* idle advances (each of which ticks every op once per cycle in
    // the reference). Cycles burned inside an op's step — blocking NI
    // waits advance the substrate clock mid-pass — tick nobody, so the
    // lazy-tick accounting anchors here rather than on the raw clock.
    tick_epoch: u64,
    counters: SchedCounters,
    profiler: Option<SchedProfiler>,
    busy: HashSet<ConflictKey>,
    // Held operations (run-after dependencies outstanding), keyed by id
    // so releases happen in submission order when one completion frees
    // several dependents at once.
    held: BTreeMap<OpId, HeldOp>,
    // Predecessor -> held dependents, for O(dependents) release.
    dependents: BTreeMap<OpId, Vec<OpId>>,
    // Completion ledger. `outcomes` is drained by `take_outcome`, so
    // dependency resolution needs its own persistent record.
    done_ok: HashSet<OpId>,
    done_err: HashSet<OpId>,
    outcomes: BTreeMap<OpId, Result<OpOutcome, ProtocolError>>,
    // Flattened root-cause error per failed op, kept (unlike `outcomes`,
    // which `take_outcome` drains) so late-submitted dependents can
    // carry the root in their `DependencyFailed`.
    root_errors: BTreeMap<OpId, ProtocolError>,
    // Per-op deadline: (absolute expiry on the substrate clock, the
    // budget it was set with — reported in the error).
    deadlines: BTreeMap<OpId, (u64, u64)>,
    // No-progress watchdog bound in cycles; `None` derives
    // 4 × max_wait_cycles from the machine config at enforcement time.
    watchdog: Option<u64>,
    // Engine-native recovery plane: per-op re-execution recipe and
    // budget, armed by `Submit::recovering` and dropped at settlement,
    // when a nonzero re-execution count moves to `re_executed` so
    // `recovery_executions` stays answerable.
    recovery: BTreeMap<OpId, RecoveryState>,
    re_executed: BTreeMap<OpId, u32>,
    // Ops waiting out a recovery backoff window: id -> (absolute
    // substrate clock at which to re-execute, route). A parked op keeps its
    // conflict key busy so queued same-key work cannot overtake the
    // re-execution (stream sequence ranges would otherwise collide).
    parked: BTreeMap<OpId, (u64, Route)>,
    trace: Vec<TracedEvent>,
    // Consecutive no-progress cycles, persisted across `pump` calls
    // (diagnostic context for the defensive held-op sweep).
    idle_streak: u64,
    // Request-class plane (see `Submit::class`): op id -> caller-assigned
    // class tag, and the accumulated per-class cost split. Both empty
    // unless a caller tags ops, and every hot-path hook is gated on
    // that emptiness — untagged workloads pay nothing.
    class_of: BTreeMap<OpId, u8>,
    class_bills: BTreeMap<u8, CostVector>,
    // Per-class retry budgets (see `set_retry_budget`): a token bucket
    // consulted before every engine-native re-execution of a tagged
    // op. Empty unless a caller arms one — ops of unbudgeted classes
    // (and untagged ops) recover exactly as before.
    retry_budgets: BTreeMap<u8, RetryBudgetState>,
}

impl Machine {
    /// Run one operation — an [`Op`] constructor with any mix of
    /// [`Submit`] modifiers — to completion on a fresh engine: the body
    /// of every blocking protocol call. Returns the outcome and the
    /// number of engine-native re-executions it took (zero without
    /// [`Submit::recovering`]).
    ///
    /// # Errors
    ///
    /// The operation's own error, or a submission error as
    /// [`Engine::submit`].
    ///
    /// # Panics
    ///
    /// As [`Engine::submit`].
    pub fn run(&mut self, s: Submit) -> Result<(OpOutcome, u32), ProtocolError> {
        let mut eng = Engine::new();
        let op = eng.submit(self, s)?;
        eng.run(self);
        let re_executions = eng.recovery_executions(op);
        eng.take_outcome(op).expect("op completed").map(|out| (out, re_executions))
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An empty engine running the default readiness-driven scheduler.
    #[must_use]
    pub fn new() -> Self {
        Engine::with_mode(SchedMode::EventDriven)
    }

    /// An empty engine with an explicit scheduler mode (see
    /// [`SchedMode`]). Both modes produce the identical trace and
    /// per-feature bills; [`SchedMode::ReferenceRoundRobin`] is kept as
    /// the equivalence baseline and for benchmarking.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        Engine {
            next_id: 0,
            pending: VecDeque::new(),
            slots: Slab::new(),
            run_order: Vec::new(),
            next_inc: 0,
            mode,
            wheel: TimingWheel::new(),
            fired_deadlines: Vec::new(),
            fired_watchdogs: Vec::new(),
            node_subs: Vec::new(),
            orphan_dirty: BTreeSet::new(),
            tick_epoch: 0,
            counters: SchedCounters::default(),
            profiler: None,
            busy: HashSet::new(),
            held: BTreeMap::new(),
            dependents: BTreeMap::new(),
            done_ok: HashSet::new(),
            done_err: HashSet::new(),
            outcomes: BTreeMap::new(),
            root_errors: BTreeMap::new(),
            deadlines: BTreeMap::new(),
            watchdog: None,
            recovery: BTreeMap::new(),
            re_executed: BTreeMap::new(),
            parked: BTreeMap::new(),
            trace: Vec::new(),
            idle_streak: 0,
            class_of: BTreeMap::new(),
            class_bills: BTreeMap::new(),
            retry_budgets: BTreeMap::new(),
        }
    }

    /// The scheduler mode this engine runs.
    #[must_use]
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// Always-on scheduler counters (step invocations, quanta, wakes,
    /// idle jumps). The bench harness' acceptance metric.
    #[must_use]
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// Attach a self-profiling ring buffer of `capacity` samples; each
    /// pump quantum then records per-phase wall times (see
    /// [`SchedPhase`](crate::SchedPhase)). Off by default — profiling costs two `Instant`
    /// reads per phase per quantum.
    pub fn enable_profiling(&mut self, capacity: usize) {
        self.profiler = Some(SchedProfiler::new(capacity));
    }

    /// The attached profiler, if [`Engine::enable_profiling`] was
    /// called. Flush and read totals between runs, outside the hot path.
    pub fn profiler_mut(&mut self) -> Option<&mut SchedProfiler> {
        self.profiler.as_mut()
    }

    pub(super) fn record(&mut self, m: &Machine, event: EngineEvent) {
        self.trace.push(TracedEvent { at: clock(m), event });
    }

    /// Submit one operation: an [`Op`] constructor's recipe with any
    /// mix of the [`Submit`] modifiers. The family's checks run first,
    /// then the run-after edges are validated, then the call id or
    /// delivery token is allocated, and only then is the [`OpId`]
    /// assigned — a rejected submission leaves the engine and the
    /// machine untouched. The operation is either released into the
    /// admission queue or held until its predecessors complete.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data, a reliable
    /// payload too large for the 20-bit offset encoding, a reserved am4
    /// tag, a recovery policy on a plain transfer, or a dependency on
    /// an id this engine has not submitted (forward references — the
    /// only way to express a cycle — are rejected at submission).
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are equal or out of range, a stream id is
    /// stale, or a protocol or recovery policy has `max_attempts == 0`.
    pub fn submit(&mut self, m: &Machine, s: Submit) -> Result<OpId, ProtocolError> {
        let Submit { mut spec, after, recovery, deadline, class } = s;
        spec.check(m, recovery.as_ref())?;
        for dep in &after {
            // Ids are handed out densely at submission, so any id at or
            // past `next_id` is a forward (or self) reference — the only
            // way a dependency cycle could ever be expressed.
            if dep.raw() >= self.next_id {
                return Err(ProtocolError::BadTransfer(format!(
                    "run-after dependency on op {} which this engine has not submitted; \
                     edges must point backward, so dependency cycles are rejected at submission",
                    dep.raw()
                )));
            }
        }
        match &mut spec {
            OpSpec::Rpc { call_id, .. } => *call_id = m.alloc_call_id(),
            // Allocated from the same counter as RPC call ids; the high
            // bit keeps it nonzero, which is what distinguishes a
            // recovery-stamped message from plain header-0 user traffic.
            OpSpec::Am4 { token, .. } if recovery.is_some() => {
                *token = (m.alloc_call_id() as u32) | 0x8000_0000;
            }
            _ => {}
        }
        let route = spec.route(m);
        // A plain submission moves its recipe into the op; only an op
        // with re-executions to spend keeps one to rebuild from.
        let managed = recovery.is_some();
        let (op, armed) = match recovery {
            Some(policy) if policy.max_attempts > 1 => {
                let op = spec.clone().into_kind(m, true);
                (op, Some(RecoveryState { spec, policy, re_executions: 0 }))
            }
            _ => (spec.into_kind(m, managed), None),
        };
        let id = self.enqueue(m, op, route, &after);
        if let Some(class) = class {
            self.class_of.insert(id, class);
        }
        // An op that settled at submission (a predecessor had already
        // failed) arms neither recovery nor a deadline.
        if !self.done_err.contains(&id) {
            if let Some(state) = armed {
                self.recovery.insert(id, state);
            }
            if let Some(cycles) = deadline {
                self.arm_deadline(m, id, cycles);
            }
        }
        Ok(id)
    }

    /// Shorthand for `submit(m, Op::xfer(src, dst, data))`.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    ///
    /// # Panics
    ///
    /// As [`Engine::submit`].
    pub fn submit_xfer(
        &mut self,
        m: &Machine,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
    ) -> Result<OpId, ProtocolError> {
        self.submit(m, Op::xfer(src, dst, data))
    }

    /// Assign an id to a checked operation, then either release it into
    /// the admission queue or hold it until its predecessors complete.
    fn enqueue(&mut self, m: &Machine, op: OpKind, route: Route, after: &[OpId]) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.record(m, EngineEvent::Submitted(id));
        // A predecessor that already failed fells the dependent at
        // submission — same outcome it would get if the failure happened
        // while it was held.
        if let Some(&failed) = after.iter().find(|d| self.done_err.contains(d)) {
            let root = self
                .root_errors
                .get(&failed)
                .cloned()
                .unwrap_or_else(|| ProtocolError::timeout("predecessor outcome", 0));
            self.settle(m, id, Err(ProtocolError::dependency_failed(failed, &root)));
            return id;
        }
        let waiting_on: HashSet<OpId> =
            after.iter().copied().filter(|d| !self.done_ok.contains(d)).collect();
        let op = ActiveOp { id, op, route, last_progress_at: 0 };
        if waiting_on.is_empty() {
            self.record(m, EngineEvent::Released(id));
            self.pending.push_back(op);
        } else {
            for dep in &waiting_on {
                self.dependents.entry(*dep).or_default().push(id);
            }
            self.held.insert(id, HeldOp { op, waiting_on });
        }
        id
    }

    /// Number of operations not yet finished (held operations and ops
    /// parked between recovery executions included).
    #[must_use]
    pub fn unfinished(&self) -> usize {
        self.pending.len() + self.run_order.len() + self.held.len() + self.parked.len()
    }

    /// Number of operations currently held behind unfinished run-after
    /// predecessors.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// The scheduler trace so far, every event stamped with the
    /// substrate clock at the moment it was recorded.
    #[must_use]
    pub fn trace(&self) -> &[TracedEvent] {
        &self.trace
    }

    /// Per-operation completion times derived from the cycle-stamped
    /// trace: for every operation that has completed (successfully or
    /// not), the network cycles from its `Submitted` event to its
    /// `Completed` event.
    ///
    /// Submission — not admission — anchors the interval, so for
    /// operations queued behind a busy conflict key the reported time
    /// includes the queueing delay. That is deliberate: under an
    /// open-loop offered load this is the latency an injected operation
    /// actually experiences. The same holds for run-after dependencies:
    /// cycles an operation spends **held** behind unfinished
    /// predecessors are *included* in its completion time — the trace's
    /// `Released` stamps (see [`Engine::hold_times`]) let a caller
    /// subtract the held span when it wants pure execution latency.
    #[must_use]
    pub fn completion_times(&self) -> Vec<(OpId, u64)> {
        self.spans_to(|e| match e {
            EngineEvent::Completed(id, _) => Some(id),
            _ => None,
        })
    }

    /// Per-operation hold times derived from the cycle-stamped trace:
    /// for every operation that was released, the network cycles from
    /// its `Submitted` event to its `Released` event. Operations
    /// submitted with no outstanding dependencies report `0` (they are
    /// released immediately); operations failed before release (a
    /// predecessor failed, or the wedge backstop fired) do not appear.
    #[must_use]
    pub fn hold_times(&self) -> Vec<(OpId, u64)> {
        self.spans_to(|e| match e {
            EngineEvent::Released(id) => Some(id),
            _ => None,
        })
    }

    /// For every trace event `end` maps to an op id, the cycles since
    /// that op's `Submitted` stamp.
    fn spans_to(&self, end: impl Fn(EngineEvent) -> Option<OpId>) -> Vec<(OpId, u64)> {
        let mut submitted: BTreeMap<OpId, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for e in &self.trace {
            if let EngineEvent::Submitted(id) = e.event {
                submitted.insert(id, e.at);
            } else if let Some(id) = end(e.event) {
                if let Some(&at) = submitted.get(&id) {
                    out.push((id, e.at.saturating_sub(at)));
                }
            }
        }
        out
    }

    /// The [`completion_times`](Engine::completion_times) distribution
    /// folded into a [`LatencyStats`] histogram, ready for percentile
    /// queries (`quantile(0.99)` etc.).
    #[must_use]
    pub fn completion_stats(&self) -> LatencyStats {
        latency_stats(self.completion_times())
    }

    /// Incremental completion harvest: every `Completed` trace event
    /// recorded since `cursor`, as `(id, ok, at)` tuples, advancing
    /// `cursor` to the end of the trace. This is the first-win
    /// primitive for drivers racing several submissions for one logical
    /// request (hedging): harvest after each pump, settle the request
    /// on its first successful leg, and [`Engine::cancel`] the losers —
    /// whose cancellations then show up in the *next* harvest.
    pub fn completions_since(&self, cursor: &mut usize) -> Vec<(OpId, bool, u64)> {
        let mut out = Vec::new();
        for e in &self.trace[*cursor..] {
            if let EngineEvent::Completed(id, ok) = e.event {
                out.push((id, ok, e.at));
            }
        }
        *cursor = self.trace.len();
        out
    }

    /// Take the outcome of a finished operation (at most once).
    pub fn take_outcome(&mut self, id: OpId) -> Option<Result<OpOutcome, ProtocolError>> {
        self.outcomes.remove(&id)
    }

    /// Record an operation's final outcome and propagate it along
    /// run-after edges. Success releases each dependent whose *last*
    /// outstanding predecessor this was (held → pending, with a
    /// `Released` trace event); failure fails every direct dependent
    /// with [`ProtocolError::DependencyFailed`] naming this operation,
    /// which recurses through *their* dependents so the whole downstream
    /// cone settles in one pass.
    pub(super) fn settle(
        &mut self,
        m: &Machine,
        id: OpId,
        result: Result<OpOutcome, ProtocolError>,
    ) {
        let ok = result.is_ok();
        let err = result.as_ref().err().cloned();
        self.record(m, EngineEvent::Completed(id, ok));
        self.outcomes.insert(id, result);
        self.deadlines.remove(&id);
        if let Some(state) = self.recovery.remove(&id) {
            if state.re_executions > 0 {
                self.re_executed.insert(id, state.re_executions);
            }
        }
        if ok {
            self.done_ok.insert(id);
        } else {
            self.done_err.insert(id);
        }
        if let Some(e) = &err {
            // Keep the flattened root cause so dependents — including
            // ones submitted after this settles — can carry it.
            let root = match e {
                ProtocolError::DependencyFailed { root, .. } => (**root).clone(),
                other => other.clone(),
            };
            self.root_errors.insert(id, root);
        }
        let Some(deps) = self.dependents.remove(&id) else {
            return;
        };
        for dep in deps {
            if ok {
                let release = match self.held.get_mut(&dep) {
                    Some(h) => {
                        h.waiting_on.remove(&id);
                        h.waiting_on.is_empty()
                    }
                    None => false,
                };
                if release {
                    let h = self.held.remove(&dep).expect("held entry just seen");
                    self.record(m, EngineEvent::Released(dep));
                    self.pending.push_back(h.op);
                }
            } else if self.held.remove(&dep).is_some() {
                let root = err.clone().expect("failure settles with an error");
                self.settle(m, dep, Err(ProtocolError::dependency_failed(id, &root)));
            }
        }
    }
}

/// Fold `(op, cycles)` samples into a [`LatencyStats`] histogram.
fn latency_stats(times: Vec<(OpId, u64)>) -> LatencyStats {
    let mut stats = LatencyStats::default();
    for (_, cycles) in times {
        stats.record(cycles);
    }
    stats
}
