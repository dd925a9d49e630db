//! What one operation is: the [`Op`] constructors and [`Submit`]
//! modifiers callers build it from, the [`OpSpec`] recipe the engine
//! builds and rebuilds its state machine from, and the [`OpKind`]
//! dispatch over the five protocol families. Each family's state
//! machine and the rule for which packets it claims live in the
//! family's own module.

use timego_netsim::{NodeId, RxMeta};

use super::{OpId, OpOutcome};
use crate::am::Am4Op;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::retry::RecoveryPolicy;
use crate::rpc::RpcOp;
use crate::stream::{StreamId, StreamOp};
use crate::xfer::{PayloadEngine, XferOp};
use crate::xfer_reliable::{ReliableOp, OFFSET_BITS};

/// One step's verdict.
pub(crate) enum Stepped {
    /// The operation did real protocol work this step.
    Progress,
    /// Nothing to do until the world changes (a packet arrives or a
    /// cycle passes).
    Idle,
    /// The operation finished.
    Done(OpOutcome),
}

/// Conflict key: operations with equal keys are serialized.
pub(super) type ConflictKey = (u8, NodeId, NodeId);

const CLASS_XFER: u8 = 0;
const CLASS_STREAM: u8 = 1;
const CLASS_AM: u8 = 2;

/// Where an operation runs: its `(source, destination)` nodes and the
/// conflict key that serializes it. Worked out once at submission and
/// kept with the op while it is queued, running or parked.
#[derive(Clone, Copy)]
pub(super) struct Route {
    pub(super) endpoints: (NodeId, NodeId),
    pub(super) key: Option<ConflictKey>,
}

/// Constructors for [`Submit`], one per protocol family. `Op` itself is
/// never instantiated: `Op::xfer(src, dst, &data)` reads as "the
/// operation", and the [`Submit`] it returns takes the modifiers.
pub enum Op {}

impl Op {
    /// A finite-sequence transfer (the engine form of
    /// [`Machine::xfer`]).
    pub fn xfer(src: NodeId, dst: NodeId, data: &[u32]) -> Submit {
        Op::xfer_with(src, dst, data, PayloadEngine::Cpu)
    }

    pub(crate) fn xfer_with(
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        engine: PayloadEngine,
    ) -> Submit {
        Submit::new(OpSpec::Xfer { src, dst, data: data.to_vec(), engine })
    }

    /// A fault-tolerant finite-sequence transfer (the engine form of
    /// [`Machine::xfer_reliable`]); `policy.max_attempts` bounds each
    /// protocol phase's retransmissions.
    pub fn reliable(src: NodeId, dst: NodeId, data: &[u32], policy: &RecoveryPolicy) -> Submit {
        Submit::new(OpSpec::Reliable { src, dst, data: data.to_vec(), policy: policy.clone() })
    }

    /// A stream send (the engine form of [`Machine::stream_send`]).
    /// Sends on the same stream (or between the same node pair) are
    /// serialized in submission order.
    pub fn stream(id: StreamId, data: &[u32]) -> Submit {
        Submit::new(OpSpec::Stream { id, data: data.to_vec(), base_seq: None })
    }

    /// An RPC (the engine form of [`Machine::rpc_call`]). With a
    /// policy, a lost request or reply is retransmitted up to
    /// `policy.max_attempts` attempts. The call id is allocated at
    /// submission, so replies of concurrent calls — even between the
    /// same pair of nodes — are matched by correlation id.
    pub fn rpc(
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        policy: Option<&RecoveryPolicy>,
    ) -> Submit {
        Submit::new(OpSpec::Rpc { src, dst, tag, args, call_id: 0, policy: policy.cloned() })
    }

    /// A single four-word active message (the engine form of
    /// [`Machine::am4_send`] plus the destination's gated poll). The
    /// source pays Table 1's 20-instruction injection path (again on
    /// every backpressure retry, exactly like the blocking call); the
    /// destination pays the 27-instruction poll-with-message path when
    /// the packet is latched — never an idle poll, because consumption
    /// is peek-gated. The outcome carries the words the destination
    /// read ([`OpOutcome::Am4`]). Messages between the same ordered
    /// pair are serialized in submission order, so two concurrent sends
    /// with the same tag cannot swap deliveries.
    pub fn am4(src: NodeId, dst: NodeId, tag: u8, words: [u32; 4]) -> Submit {
        Submit::new(OpSpec::Am4 { src, dst, tag, words, token: 0 })
    }
}

/// One operation for [`Engine::submit`](super::Engine::submit): a
/// protocol-family recipe from an [`Op`] constructor plus four
/// orthogonal modifiers, each of which composes with every family and
/// every other modifier.
#[derive(Debug, Clone)]
#[must_use = "an operation does nothing until it is passed to Engine::submit"]
pub struct Submit {
    pub(super) spec: OpSpec,
    pub(super) after: Vec<OpId>,
    pub(super) recovery: Option<RecoveryPolicy>,
    pub(super) deadline: Option<u64>,
    pub(super) class: Option<u8>,
}

impl Submit {
    fn new(spec: OpSpec) -> Self {
        Submit { spec, after: Vec::new(), recovery: None, deadline: None, class: None }
    }

    /// Run-after dependencies: the operation stays held until every
    /// operation in `after` completes successfully, and fails with
    /// [`ProtocolError::DependencyFailed`] if one of them fails.
    /// Repeated calls accumulate.
    pub fn after(mut self, after: &[OpId]) -> Self {
        self.after.extend_from_slice(after);
        self
    }

    /// Engine-native recovery: if the operation settles with a
    /// retryable error (`SessionReset`, `Timeout`, `DeadlineExceeded`),
    /// the scheduler re-executes it under the same [`OpId`], up to
    /// `policy.max_attempts` executions in all, parking
    /// `policy.backoff(k)` cycles before re-execution `k + 1` and
    /// billing the session-restart shape to `Feature::FaultTol` at the
    /// source. The protocol policy of [`Op::reliable`] or [`Op::rpc`]
    /// still bounds each execution's retransmissions. Dependents stay
    /// held across re-executions. A reliable transfer re-runs under a
    /// fresh session epoch; a stream send resumes at the receiver's
    /// contiguous mark; an RPC reuses its call id, so the callee's
    /// reply cache keeps the handler at most once per callee
    /// incarnation; an am4 rides a nonzero delivery token in its
    /// header, so a duplicate left by a crash-straddling re-execution
    /// is orphan-discarded instead of mistaken for a later same-pair
    /// message. Plain transfers take no recovery (submit
    /// [`Op::reliable`] instead).
    pub fn recovering(mut self, policy: &RecoveryPolicy) -> Self {
        self.recovery = Some(policy.clone());
        self
    }

    /// A completion deadline `cycles` substrate cycles after
    /// submission: an operation still unfinished then — running,
    /// pending, held or parked — settles with the retryable
    /// [`ProtocolError::DeadlineExceeded`], cascading
    /// [`ProtocolError::DependencyFailed`] into its dependents. An
    /// operation that settles at submission (a predecessor already
    /// failed) never arms one. Supervision charges no simulated
    /// instructions.
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.deadline = Some(cycles);
        self
    }

    /// Tag the operation with a *request class* (QoS tier, tenant,
    /// priority band — any `u8`). Every instruction the operation
    /// causes at either endpoint — admission `start`, every `step`
    /// (including callee handler work an RPC drives at its
    /// destination), and engine-native recovery restarts — is *also*
    /// accumulated into that class's
    /// [`CostVector`](timego_cost::CostVector)
    /// ([`Engine::class_bill`](super::Engine::class_bill)). The split is
    /// attribution, not double-billing: node recorders are untouched,
    /// and on clean runs the per-class bills sum exactly to the node
    /// totals. Untagged operations are never snapshotted, and a fully
    /// untagged engine skips the class plane entirely.
    pub fn class(mut self, class: u8) -> Self {
        self.class = Some(class);
        self
    }
}

/// One protocol family's recipe: everything needed to build the
/// operation's state machine, once at submission and again for every
/// engine-native re-execution. A rebuild is from first principles — a
/// fresh `start` allocates a fresh session epoch — except where
/// exactly-once semantics need continuity: a stream re-execution
/// resumes at the receiver's contiguous mark instead of re-sending
/// delivered packets, and an RPC re-execution reuses its call id so the
/// callee's reply cache deduplicates a handler that already ran.
#[derive(Debug, Clone)]
pub(super) enum OpSpec {
    Xfer {
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        engine: PayloadEngine,
    },
    Reliable {
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        policy: RecoveryPolicy,
    },
    Stream {
        id: StreamId,
        data: Vec<u32>,
        /// First sequence number of the burst, learned from the first
        /// execution's `start` (earlier same-stream sends may still be
        /// advancing the sequence at submission time).
        base_seq: Option<u64>,
    },
    Rpc {
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        /// Allocated at submission.
        call_id: u64,
        policy: Option<RecoveryPolicy>,
    },
    Am4 {
        src: NodeId,
        dst: NodeId,
        tag: u8,
        words: [u32; 4],
        /// Header delivery token: allocated at submission for a
        /// recovery-armed send, `0` for plain user traffic.
        token: u32,
    },
}

impl OpSpec {
    /// The family's submission checks. This is the only place they run,
    /// and [`Engine::submit`](super::Engine::submit) runs it before
    /// handing out an id, a call id or a token.
    pub(super) fn check(
        &self,
        m: &Machine,
        recovery: Option<&RecoveryPolicy>,
    ) -> Result<(), ProtocolError> {
        if let Some(r) = recovery {
            assert!(r.max_attempts >= 1, "need at least one execution");
        }
        let endpoints = |what: &str, src: NodeId, dst: NodeId| {
            assert_ne!(src, dst, "{what} endpoints must differ");
            assert!(src.index() < m.num_nodes() && dst.index() < m.num_nodes());
        };
        let attempts =
            |p: &RecoveryPolicy| assert!(p.max_attempts >= 1, "need at least one attempt");
        let reject = |why: String| Err(ProtocolError::BadTransfer(why));
        match self {
            OpSpec::Xfer { src, dst, data, .. } => {
                endpoints("transfer", *src, *dst);
                if data.is_empty() {
                    return reject("empty transfer".into());
                }
                if recovery.is_some() {
                    return reject("plain transfers take no recovery; submit Op::reliable".into());
                }
            }
            OpSpec::Reliable { src, dst, data, policy } => {
                endpoints("transfer", *src, *dst);
                attempts(policy);
                if data.is_empty() {
                    return reject("empty transfer".into());
                }
                if data.len() >= (1 << OFFSET_BITS) {
                    return reject(format!(
                        "reliable transfer caps at {} words, got {}",
                        (1 << OFFSET_BITS) - 1,
                        data.len()
                    ));
                }
            }
            OpSpec::Stream { id, data, .. } => {
                if data.is_empty() {
                    return reject("empty stream send".into());
                }
                // Panics on a stale id.
                m.stream_state(*id);
            }
            OpSpec::Rpc { src, dst, policy, .. } => {
                endpoints("rpc", *src, *dst);
                if let Some(p) = policy {
                    attempts(p);
                }
            }
            OpSpec::Am4 { src, dst, tag, .. } => {
                endpoints("am4", *src, *dst);
                if *tag < Tags::USER_BASE {
                    return reject(format!(
                        "am4 tag {tag} is in the reserved protocol range (< {})",
                        Tags::USER_BASE
                    ));
                }
            }
        }
        Ok(())
    }

    /// The operation's endpoints and conflict key. Transfers (plain or
    /// reliable) between the same ordered pair conflict, as do stream
    /// sends and am4 messages; RPCs never conflict, because replies are
    /// correlated by call id.
    pub(super) fn route(&self, m: &Machine) -> Route {
        let (class, src, dst) = match self {
            OpSpec::Xfer { src, dst, .. } | OpSpec::Reliable { src, dst, .. } => {
                (Some(CLASS_XFER), *src, *dst)
            }
            OpSpec::Stream { id, .. } => {
                let st = m.stream_state(*id);
                (Some(CLASS_STREAM), st.src, st.dst)
            }
            OpSpec::Rpc { src, dst, .. } => (None, *src, *dst),
            OpSpec::Am4 { src, dst, .. } => (Some(CLASS_AM), *src, *dst),
        };
        Route { endpoints: (src, dst), key: class.map(|c| (c, src, dst)) }
    }

    /// Build the operation's state machine — the one place an
    /// [`OpKind`] is made. `managed` marks a recovery-armed submission:
    /// its RPC or am4 fails fast with `SessionReset` when an endpoint
    /// crash-restarts mid-flight.
    pub(super) fn into_kind(self, m: &Machine, managed: bool) -> OpKind {
        let n = m.config().packet_words;
        match self {
            OpSpec::Xfer { src, dst, data, engine } => {
                OpKind::Xfer(XferOp::new(src, dst, data, engine, n))
            }
            OpSpec::Reliable { src, dst, data, policy } => {
                OpKind::Reliable(ReliableOp::new(src, dst, data, n, policy))
            }
            OpSpec::Stream { id, data, base_seq } => {
                OpKind::Stream(StreamOp::new(m, id, data, base_seq))
            }
            OpSpec::Rpc { src, dst, tag, args, call_id, policy } => {
                OpKind::Rpc(RpcOp::new(src, dst, tag, args, call_id, policy, managed))
            }
            OpSpec::Am4 { src, dst, tag, words, token } => {
                OpKind::Am4(Am4Op::new(src, dst, tag, words, token, managed))
            }
        }
    }
}

/// A live operation's state machine. An enum, not a trait object, so
/// the scheduler's hot path dispatches statically.
pub(super) enum OpKind {
    Xfer(XferOp),
    Reliable(ReliableOp),
    Stream(StreamOp),
    Rpc(RpcOp),
    Am4(Am4Op),
}

// The scheduler calls the per-step hooks (`tick_n`, `wake_in`,
// `claims` here and in each family, and the shared helpers at the end of
// this file) once per op per step or orphan scan, from other modules;
// `#[inline]` keeps them inlined across codegen units.
impl OpKind {
    pub(super) fn start(&mut self, m: &mut Machine) {
        match self {
            OpKind::Xfer(op) => op.start(m),
            OpKind::Reliable(op) => op.start(m),
            OpKind::Stream(op) => op.start(m),
            OpKind::Rpc(op) => op.start(m),
            OpKind::Am4(op) => op.start(m),
        }
    }

    pub(super) fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        match self {
            OpKind::Xfer(op) => op.step(m),
            OpKind::Reliable(op) => op.step(m),
            OpKind::Stream(op) => op.step(m),
            OpKind::Rpc(op) => op.step(m),
            OpKind::Am4(op) => op.step(m),
        }
    }

    /// Deliver `k` timer ticks at once — exactly what `k` single ticks
    /// with no intervening steps would do. The reference scheduler
    /// ticks every running op once per idle cycle; the event scheduler
    /// ticks sleeping ops lazily on wake, and a sleeping op by
    /// construction takes no steps in between, so the per-op closed
    /// forms are exact. `k == 0` is a no-op: a same-cycle wake must
    /// preserve `stalled` (the reference only clears it when a cycle
    /// actually passes).
    #[inline]
    pub(super) fn tick_n(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        match self {
            OpKind::Xfer(op) => op.tick_n(k),
            OpKind::Reliable(op) => op.tick_n(k),
            OpKind::Stream(op) => op.tick_n(k),
            OpKind::Rpc(op) => op.tick_n(k),
            OpKind::Am4(op) => op.tick_n(k),
        }
    }

    /// Cycles until this op's next step could be anything but a
    /// cost-free `Idle`, absent packet activity at its endpoints (which
    /// wakes it earlier). `u64::MAX` means purely packet-driven — no
    /// timer tick alone can change its behavior (the no-progress
    /// watchdog still bounds how long it can sleep). Conservative by
    /// design: waking early costs one traceless idle step; waking late
    /// would diverge from the reference scheduler.
    #[inline]
    pub(super) fn wake_in(&self, m: &Machine) -> u64 {
        let max_wait = m.config().max_wait_cycles;
        match self {
            OpKind::Xfer(op) => op.wake_in(max_wait),
            OpKind::Reliable(op) => op.wake_in(max_wait),
            OpKind::Stream(op) => op.wake_in(max_wait),
            OpKind::Rpc(op) => op.wake_in(max_wait),
            OpKind::Am4(op) => op.wake_in(max_wait),
        }
    }

    /// Does a reserved-tag packet at `node`'s queue head belong to this
    /// operation? Claims are pair-wide and conservative: anything an
    /// operation might still consume must be claimed, or the engine's
    /// orphan discard would eat it.
    #[inline]
    pub(super) fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        match self {
            OpKind::Xfer(op) => op.claims(node, meta),
            OpKind::Reliable(op) => op.claims(node, meta),
            OpKind::Stream(op) => op.claims(node, meta),
            OpKind::Rpc(op) => op.claims(node, meta),
            OpKind::Am4(op) => op.claims(node, meta),
        }
    }
}

/// Is `node` one end of the pair `a`–`b`, and the packet from the
/// other (or the same) end?
#[inline]
pub(crate) fn pairwise(node: NodeId, pkt_src: NodeId, a: NodeId, b: NodeId) -> bool {
    (node == a || node == b) && (pkt_src == a || pkt_src == b)
}

/// Ticks until a `waited`-style counter first *exceeds* `bound` (the
/// protocols' window checks are all `waited > bound`), clamped to at
/// least one cycle out.
#[inline]
pub(crate) fn win(bound: u64, waited: u64) -> u64 {
    bound.saturating_add(1).saturating_sub(waited).max(1)
}

/// Cost-free gate: is the packet at `node`'s queue head from `from`
/// with tag `tag`?
#[inline]
pub(crate) fn peek_is(m: &mut Machine, node: NodeId, from: NodeId, tag: u8) -> bool {
    m.rx_peek_at(node).is_some_and(|meta| meta.src == from && meta.tag == tag)
}

/// Compare both endpoints' crash-restart counters against the values
/// `seen` at the operation's start. A mismatch means that peer crashed
/// and lost its protocol state mid-flight: fail fast with the retryable
/// [`ProtocolError::SessionReset`] instead of timing out against a node
/// that no longer remembers the session. Pure host-side comparison —
/// no simulated instructions.
#[inline]
pub(crate) fn check_restart(
    m: &Machine,
    src: NodeId,
    dst: NodeId,
    seen: (u32, u32),
) -> Result<(), ProtocolError> {
    if m.restarts_of(src) != seen.0 {
        return Err(ProtocolError::SessionReset { node: src });
    }
    if m.restarts_of(dst) != seen.1 {
        return Err(ProtocolError::SessionReset { node: dst });
    }
    Ok(())
}
