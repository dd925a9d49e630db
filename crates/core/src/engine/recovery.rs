//! Engine-native recovery: parking a failed recovery-armed operation
//! for its backoff window and re-executing it, the per-class retry
//! budgets that cap those re-executions, and the receiver-side garbage
//! collection of state that crashed peers leave behind.

use std::collections::HashSet;

use timego_cost::{Feature, Fine};
use timego_netsim::NodeId;

use super::op::{OpKind, OpSpec, Route};
use super::pump::WheelItem;
use super::{clock, ActiveOp, Engine, EngineEvent, OpId, OpOutcome};
use crate::costs::recovery;
use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::retry::RecoveryPolicy;
use crate::sched::SchedMode;

/// Re-execution recipe and budget for one recovery-armed operation
/// (see [`Submit::recovering`](super::Submit::recovering)), kept only
/// until the operation settles.
pub(super) struct RecoveryState {
    pub(super) spec: OpSpec,
    pub(super) policy: RecoveryPolicy,
    /// Re-executions performed so far (0 while the first execution is
    /// still the only one).
    pub(super) re_executions: u32,
}

/// Token-bucket state of one class's retry budget. Tokens are held in
/// milli-units (1000 = one re-execution) so slow refills stay integer
/// and deterministic.
#[derive(Debug, Clone)]
pub(super) struct RetryBudgetState {
    capacity_milli: u64,
    refill_milli_per_kcycle: u64,
    tokens_milli: u64,
    // Substrate clock of the last *spend* — refills are computed from
    // here on demand, so precision is lost only when tokens move.
    last_spend_at: u64,
    denied: u64,
}

impl RetryBudgetState {
    fn available_milli(&self, now: u64) -> u64 {
        let gained = u64::try_from(
            u128::from(now.saturating_sub(self.last_spend_at))
                * u128::from(self.refill_milli_per_kcycle)
                / 1000,
        )
        .unwrap_or(u64::MAX);
        self.tokens_milli.saturating_add(gained).min(self.capacity_milli)
    }
}

impl Engine {
    /// How many engine-native re-executions `id` has undergone so far
    /// (0 for clean runs and for ops submitted without a
    /// [`RecoveryPolicy`]). Stays answerable after the op settles.
    #[must_use]
    pub fn recovery_executions(&self, id: OpId) -> u32 {
        match self.recovery.get(&id) {
            Some(s) => s.re_executions,
            None => self.re_executed.get(&id).copied().unwrap_or(0),
        }
    }

    /// Number of operations currently parked between recovery
    /// executions (waiting out a backoff window).
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Arm a *retry budget* for `class`: a token bucket holding at most
    /// `capacity` re-execution tokens, refilled at
    /// `refill_milli_per_kcycle` milli-tokens per thousand substrate
    /// cycles (1000 = one full re-execution per kilocycle). Every
    /// engine-native re-execution of an op tagged with `class` (via
    /// [`Submit::class`](super::Submit::class)) spends one token
    /// *before* parking; when the bucket is dry the recovery is
    /// **denied** — the op settles with its retryable error exactly as
    /// if its [`RecoveryPolicy`] budget were exhausted — and the denial
    /// is counted ([`Engine::retry_budget_denied`]).
    ///
    /// This is the serving plane's cap on *recovery amplification*: a
    /// correlated failure (a crashed server absorbing a whole class's
    /// requests) otherwise multiplies every request into
    /// `max_attempts` executions at the worst possible time. The bucket
    /// starts full. Re-arming a class resets its bucket and counter.
    /// Ops of classes without a budget — and untagged ops — are never
    /// consulted.
    pub fn set_retry_budget(&mut self, class: u8, capacity: u32, refill_milli_per_kcycle: u32) {
        self.retry_budgets.insert(
            class,
            RetryBudgetState {
                capacity_milli: u64::from(capacity) * 1000,
                refill_milli_per_kcycle: u64::from(refill_milli_per_kcycle),
                tokens_milli: u64::from(capacity) * 1000,
                last_spend_at: 0,
                denied: 0,
            },
        );
    }

    /// How many re-executions the retry budget of `class` has denied so
    /// far (0 for classes without a budget).
    #[must_use]
    pub fn retry_budget_denied(&self, class: u8) -> u64 {
        self.retry_budgets.get(&class).map_or(0, |b| b.denied)
    }

    /// Spend one re-execution token from `id`'s class budget, if its
    /// class carries one. Returns `false` — and counts the denial — if
    /// the bucket is dry; the caller then lets the failure settle.
    fn charge_retry_budget(&mut self, m: &Machine, id: OpId) -> bool {
        if self.retry_budgets.is_empty() {
            return true;
        }
        let Some(&class) = self.class_of.get(&id) else { return true };
        let Some(b) = self.retry_budgets.get_mut(&class) else { return true };
        let now = clock(m);
        let available = b.available_milli(now);
        if available < 1000 {
            b.denied += 1;
            return false;
        }
        b.tokens_milli = available - 1000;
        b.last_spend_at = now;
        true
    }

    /// Engine-native recovery decision: a retryable failure of a
    /// recovery-armed op with budget left *parks* the op for its
    /// backoff window instead of settling it, billing the
    /// session-restart instruction shape to `Feature::FaultTol` at the
    /// op's source — the same shape (and feature) the caller-side
    /// restart loop this replaces used to bill. Returns `true` if the
    /// op was parked.
    pub(super) fn try_recover(
        &mut self,
        m: &Machine,
        id: OpId,
        route: Route,
        op: Option<&OpKind>,
        result: &Result<OpOutcome, ProtocolError>,
    ) -> bool {
        let Err(err) = result else { return false };
        if !err.is_retryable() {
            return false;
        }
        {
            let Some(state) = self.recovery.get(&id) else { return false };
            if state.re_executions + 1 >= state.policy.max_attempts {
                return false;
            }
        }
        // The class retry budget is spent *before* parking: a denial
        // means the failure settles normally (and is counted), capping
        // recovery amplification under correlated failure.
        if !self.charge_retry_budget(m, id) {
            return false;
        }
        let state = self.recovery.get_mut(&id).expect("recovery state just checked");
        // A failed first execution teaches the stream spec its base
        // sequence, so re-executions resume the burst (exactly-once)
        // instead of restarting it at a fresh sequence range.
        if let (OpSpec::Stream { base_seq, .. }, Some(OpKind::Stream(s))) = (&mut state.spec, op) {
            base_seq.get_or_insert(s.first_seq);
        }
        let wait = state.policy.backoff(state.re_executions);
        state.re_executions += 1;
        let src = route.endpoints.0;
        let cpu = m.cpu(src);
        let cls = self.class_pre(m, id, (src, src));
        cpu.with_feature(Feature::FaultTol, |c| {
            c.reg(Fine::RegOp, recovery::SESSION_RESTART_REG);
            c.mem_store(recovery::SESSION_RESTART_MEM);
        });
        self.class_post(m, cls, (src, src));
        self.record(m, EngineEvent::Recovering(id));
        let resume_at = clock(m).saturating_add(wait);
        self.parked.insert(id, (resume_at, route));
        if self.mode == SchedMode::EventDriven {
            // Jump-bound marker only: release is decided from `parked`
            // itself, but the idle jump must not overshoot the resume.
            self.wheel.insert(resume_at, WheelItem::ParkResume);
        }
        true
    }

    /// Re-launch parked ops whose backoff window has closed, rebuilt
    /// from their recovery spec (a fresh session epoch is allocated in
    /// `start`). Their conflict key never left `busy`.
    pub(super) fn release_recovered(&mut self, m: &mut Machine) {
        let now = clock(m);
        let due: Vec<OpId> = self
            .parked
            .iter()
            .filter(|&(_, &(at, _))| at <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let (_, route) = self.parked.remove(&id).expect("due ops are parked");
            let spec = &self.recovery.get(&id).expect("parked ops are recovery-armed").spec;
            let op = spec.clone().into_kind(m, true);
            self.launch(m, ActiveOp { id, op, route, last_progress_at: 0 });
        }
    }

    /// Epoch-TTL sweep of receiver-side tables (dead sessions left by
    /// crashed senders, reply-cache entries of long-settled calls).
    /// Sessions and replies belonging to live operations are exempt —
    /// including replies awaited by *parked* RPCs, so re-execution
    /// still deduplicates against a handler that already ran. The
    /// sweep itself happens in [`Machine::gc_expired`], billed to
    /// `Feature::FaultTol` at each reclaiming receiver.
    pub(super) fn collect_garbage(&mut self, m: &mut Machine) {
        // Fast path: nothing is past its TTL, so the sweep would
        // reclaim (and bill) nothing. The check is conservative —
        // ignoring live-set exemptions — so a `false` is always exact.
        if !m.gc_has_expired() {
            return;
        }
        let mut live_sessions: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut live_replies: HashSet<(NodeId, NodeId, u32)> = HashSet::new();
        let live_ops = self
            .run_order
            .iter()
            .map(|&s| &self.slots[s].a)
            .chain(self.pending.iter())
            .chain(self.held.values().map(|h| &h.op));
        for a in live_ops {
            let (src, dst) = a.route.endpoints;
            match &a.op {
                OpKind::Xfer(_) | OpKind::Reliable(_) => {
                    live_sessions.insert((dst, src));
                }
                OpKind::Rpc(o) => {
                    live_replies.insert((dst, src, o.call_id as u32));
                }
                OpKind::Stream(_) | OpKind::Am4(_) => {}
            }
        }
        // Parked reliable transfers are deliberately *not* exempt: the
        // next execution opens a fresh epoch, so the receiver's
        // stale-epoch session is exactly what the sweep should reclaim.
        for id in self.parked.keys() {
            if let Some(RecoveryState { spec: OpSpec::Rpc { src, dst, call_id, .. }, .. }) =
                self.recovery.get(id)
            {
                live_replies.insert((*dst, *src, *call_id as u32));
            }
        }
        m.gc_expired(&live_sessions, &live_replies);
    }
}

#[cfg(test)]
mod tests {
    use timego_netsim::{
        CrashWindow, FaultConfig, Mesh2D, NodeId, SwitchedConfig, SwitchedNetwork,
    };
    use timego_ni::share;

    use super::super::{Engine, EngineEvent, Op};
    use crate::machine::{CmamConfig, Machine};
    use crate::retry::RecoveryPolicy;

    /// The recovery ledger is bounded by the live ops: once an op
    /// settles, its spec (payload copy included) and policy are gone,
    /// and only a nonzero re-execution count stays behind for
    /// `recovery_executions`, which still matches the trace.
    #[test]
    fn settled_ops_keep_no_recovery_spec() {
        let n = NodeId::new;
        let fault = FaultConfig {
            crashes: vec![CrashWindow { node: n(1), start: 0, end: u64::MAX }],
            ..FaultConfig::default()
        };
        let net = SwitchedNetwork::new(
            Mesh2D::new(2, 2),
            SwitchedConfig { fault, seed: 1, ..SwitchedConfig::default() },
        );
        let mut m = Machine::new(share(net), 4, CmamConfig::default());
        let data: Vec<u32> = (0..64).collect();
        let protocol =
            RecoveryPolicy { max_attempts: 2, base_wait: 256, ..RecoveryPolicy::default() };
        let recovery = RecoveryPolicy { max_attempts: 3, ..RecoveryPolicy::default() };
        let mut eng = Engine::new();
        let ids = [
            // Into the node that is dark for the whole run: every
            // execution fails, so the budget is spent.
            eng.submit(&m, Op::reliable(n(0), n(1), &data, &protocol).recovering(&recovery)),
            // Clean: armed, never re-executed.
            eng.submit(&m, Op::reliable(n(2), n(3), &data, &protocol).recovering(&recovery)),
            eng.submit(&m, Op::rpc(n(3), n(1), 40, [0; 4], Some(&protocol)).recovering(&recovery)),
        ]
        .map(Result::unwrap);
        eng.run(&mut m);
        assert!(eng.recovery.is_empty(), "no settled op may still hold a spec");
        let recovering = |id| {
            eng.trace().iter().filter(|e| e.event == EngineEvent::Recovering(id)).count() as u32
        };
        let counts = ids.map(|id| eng.recovery_executions(id));
        assert_eq!(counts, ids.map(recovering));
        assert_eq!(counts, [2, 0, 2]);
        assert_eq!(eng.re_executed.len(), 2, "only nonzero counts are kept");
    }
}
