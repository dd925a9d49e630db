//! Service-plane actors: the gateway tier and the server pool.
//!
//! [`crate::service`] owns the policies and the open-loop driver; this
//! module owns the two node-resident actors the driver wires together:
//!
//! * [`Gateway`] — admission control and routing *cost*. The routing
//!   decision itself lives in [`Balancer`](crate::service::Balancer);
//!   the gateway bills the instruction shape of each decision at the
//!   gateway node (admission checks and routing under
//!   `Feature::BufferMgmt` — it is queue management — and the shed
//!   path under `Feature::FaultTol`, the feature that owns
//!   load-shedding in the paper's taxonomy) and attributes every
//!   instruction to the request's QoS class, so gateway overhead shows
//!   up in the per-class "where does the time go" split alongside the
//!   engine's own attribution. The gateway *owns* the in-flight
//!   ledger: the admission window is either tier-global (one bound
//!   shared by every gateway node) or per-gateway (each node bounds
//!   its own slice), and a brownout [`BreakerSpec`] sheds
//!   brownout-sheddable classes outright when the healthy-server
//!   fraction the failure detector reports drops below its threshold.
//! * [`ServerPool`] — registers the RPC handler on every pool node
//!   (spares included, so a mid-run migration finds its recruits
//!   ready). The handler performs the request's application work —
//!   `work` units of a fixed load/store/ALU shape billed at the callee
//!   — and counts its runs per server, which is what the exactly-once
//!   invariant measures across crash re-executions. A pool-wide
//!   *idempotency ledger* (modelling the durable request-id dedup
//!   table a real tier keeps) suppresses the application work of a
//!   request whose handler already ran on **another** server — the
//!   case hedged requests create, which the per-node reply cache
//!   cannot see.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use timego_am::Machine;
use timego_cost::{CostVector, Feature, Fine};
use timego_netsim::NodeId;

use crate::service::BalancerPolicy;

/// Instruction shapes of the gateway actor, in the calibrated-constant
/// style of `timego_am`'s protocol costs.
pub mod cost {
    /// Admission check: load the in-flight counter and bound, compare,
    /// branch.
    pub const ADMIT_REG: u64 = 4;
    /// Admission check memory traffic (counter + bound).
    pub const ADMIT_MEM: u64 = 2;
    /// Shed path: reject branch, per-class shed counter update.
    pub const SHED_REG: u64 = 3;
    /// Shed path memory traffic (counter store).
    pub const SHED_MEM: u64 = 1;
    /// Brownout-breaker check: load the healthy fraction and threshold,
    /// compare, branch.
    pub const BREAKER_REG: u64 = 3;
    /// Brownout-breaker check memory traffic (healthy-fraction load).
    pub const BREAKER_MEM: u64 = 1;
    /// Random pick: RNG step and bound fold.
    pub const PICK_RANDOM_REG: u64 = 4;
    /// Round-robin pick: cursor increment and wrap.
    pub const PICK_RR_REG: u64 = 2;
    /// Round-robin cursor load/store.
    pub const PICK_RR_MEM: u64 = 2;
    /// Least-loaded scan, per live server: compare and conditional
    /// move.
    pub const PICK_SCAN_REG_PER_SERVER: u64 = 2;
    /// Least-loaded scan, per live server: load of the load-table
    /// entry.
    pub const PICK_SCAN_MEM_PER_SERVER: u64 = 1;
    /// Consistent hash: SplitMix64 mix of the client key.
    pub const PICK_HASH_REG: u64 = 9;
    /// Consistent hash: per ring-search probe (binary search step).
    pub const PICK_PROBE_REG: u64 = 2;
    /// Consistent hash: per ring-search probe memory load.
    pub const PICK_PROBE_MEM: u64 = 1;
    /// Dispatch bookkeeping on the admitted path: request-context
    /// store.
    pub const DISPATCH_MEM: u64 = 2;
    /// Hedge dispatch: deadline-quantile compare, hedge-context store.
    pub const HEDGE_REG: u64 = 4;
    /// Hedge dispatch memory traffic (hedge-context store).
    pub const HEDGE_MEM: u64 = 2;
    /// Failure-detector bookkeeping per probe verdict: suspicion
    /// counter update, threshold compare.
    pub const PROBE_BOOK_REG: u64 = 3;
    /// Failure-detector bookkeeping memory traffic.
    pub const PROBE_BOOK_MEM: u64 = 1;
    /// Idempotency-ledger probe at the server: hash the request id,
    /// one table lookup.
    pub const DEDUP_REG: u64 = 2;
    /// Idempotency-ledger probe memory traffic.
    pub const DEDUP_MEM: u64 = 1;
}

/// How the admission window bounds in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionWindow {
    /// One bound shared by the whole gateway tier: an arrival is shed
    /// when the tier-wide in-flight count has reached the bound,
    /// regardless of which gateway it lands on.
    TierGlobal(usize),
    /// Each gateway node bounds its own in-flight slice: an arrival is
    /// shed when *its* gateway has reached the bound, even if the tier
    /// as a whole has room (the price of not sharing a counter).
    PerGateway(usize),
}

impl AdmissionWindow {
    /// Short stable name, used in report keys.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionWindow::TierGlobal(_) => "tier_global",
            AdmissionWindow::PerGateway(_) => "per_gateway",
        }
    }
}

/// The gateway brownout breaker: when the failure detector reports the
/// healthy-server fraction below `min_healthy_milli` (per mille), the
/// gateway sheds every arrival of a brownout-sheddable class outright —
/// billed exactly like an admission shed — so the surviving servers'
/// capacity goes to the classes that must not degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSpec {
    /// Healthy-fraction threshold in per mille (500 = half the pool).
    pub min_healthy_milli: u32,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec { min_healthy_milli: 500 }
    }
}

/// The gateway's admission verdict for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Under the bound: route and submit it.
    Granted,
    /// Over the bound (or the brownout breaker is open): shed at the
    /// gateway, never submitted.
    Shed,
}

/// The gateway-tier actor: the admission window (tier-global or
/// per-gateway), the in-flight ledger it bounds, the brownout breaker,
/// per-class shed counts, and per-class attribution of every gateway
/// instruction.
#[derive(Debug)]
pub struct Gateway {
    window: AdmissionWindow,
    breaker: Option<BreakerSpec>,
    // Healthy-server fraction in per mille, as last reported by
    // `note_health`. Starts at 1000 (everything healthy).
    healthy_milli: u32,
    // In-flight ledger: per-gateway counts plus the tier total.
    in_flight: BTreeMap<usize, usize>,
    total: usize,
    peak_total: usize,
    peak_per_gateway: BTreeMap<usize, usize>,
    shed: Vec<usize>,
    breaker_shed: Vec<usize>,
    bills: Vec<CostVector>,
}

impl Gateway {
    /// A gateway tier with the given admission window, serving
    /// `nclasses` QoS classes, with no brownout breaker.
    #[must_use]
    pub fn new(window: AdmissionWindow, nclasses: usize) -> Self {
        Gateway {
            window,
            breaker: None,
            healthy_milli: 1000,
            in_flight: BTreeMap::new(),
            total: 0,
            peak_total: 0,
            peak_per_gateway: BTreeMap::new(),
            shed: vec![0; nclasses],
            breaker_shed: vec![0; nclasses],
            bills: vec![CostVector::new(); nclasses],
        }
    }

    /// Arm the brownout breaker.
    pub fn set_breaker(&mut self, spec: BreakerSpec) {
        self.breaker = Some(spec);
    }

    /// Report the detector's current view of the pool: `healthy` live
    /// servers out of `total` members. Host-side bookkeeping (the
    /// detector already billed its probes); charges nothing.
    pub fn note_health(&mut self, healthy: usize, total: usize) {
        self.healthy_milli =
            (healthy * 1000).checked_div(total).unwrap_or(0) as u32;
    }

    /// Decide one arrival of class `ci` at gateway node `gw`.
    /// `sheddable` marks the class brownout-sheddable (the breaker only
    /// sheds those). Bills the admission check — and the shed path,
    /// when taken — at the gateway node and attributes it to the class.
    /// A granted arrival is charged to the in-flight ledger; pair every
    /// grant with a [`Gateway::complete`] when the request settles.
    pub fn admit(&mut self, m: &Machine, gw: NodeId, ci: usize, sheddable: bool) -> Admission {
        let cpu = m.cpu(gw);
        let before = cpu.snapshot();
        cpu.with_feature(Feature::BufferMgmt, |c| {
            c.reg(Fine::RegOp, cost::ADMIT_REG);
            c.mem_load(cost::ADMIT_MEM);
        });
        let mut tripped = false;
        if let Some(b) = self.breaker {
            if sheddable {
                cpu.with_feature(Feature::FaultTol, |c| {
                    c.reg(Fine::RegOp, cost::BREAKER_REG);
                    c.mem_load(cost::BREAKER_MEM);
                });
                tripped = self.healthy_milli < b.min_healthy_milli;
            }
        }
        let over = match self.window {
            AdmissionWindow::TierGlobal(bound) => self.total >= bound,
            AdmissionWindow::PerGateway(bound) => {
                self.in_flight.get(&gw.index()).copied().unwrap_or(0) >= bound
            }
        };
        let verdict = if tripped || over {
            cpu.with_feature(Feature::FaultTol, |c| {
                c.reg(Fine::RegOp, cost::SHED_REG);
                c.mem_store(cost::SHED_MEM);
            });
            self.shed[ci] += 1;
            if tripped {
                self.breaker_shed[ci] += 1;
            }
            Admission::Shed
        } else {
            let slot = self.in_flight.entry(gw.index()).or_insert(0);
            *slot += 1;
            let peak = self.peak_per_gateway.entry(gw.index()).or_insert(0);
            *peak = (*peak).max(*slot);
            self.total += 1;
            self.peak_total = self.peak_total.max(self.total);
            Admission::Granted
        };
        self.bills[ci] += cpu.snapshot() - before;
        verdict
    }

    /// Release the in-flight slot a granted arrival at `gw` held —
    /// call once per admitted request when it settles (first winning
    /// leg or last failing one), not per leg.
    pub fn complete(&mut self, gw: NodeId) {
        let slot = self.in_flight.entry(gw.index()).or_insert(0);
        *slot = slot.saturating_sub(1);
        self.total = self.total.saturating_sub(1);
    }

    /// Requests currently in flight across the tier.
    #[must_use]
    pub fn in_flight_total(&self) -> usize {
        self.total
    }

    /// Highest tier-wide in-flight count reached.
    #[must_use]
    pub fn peak_in_flight(&self) -> usize {
        self.peak_total
    }

    /// Highest in-flight count each gateway node reached.
    #[must_use]
    pub fn peak_per_gateway(&self) -> BTreeMap<usize, usize> {
        self.peak_per_gateway.clone()
    }

    /// Bill the routing decision for an admitted request of class `ci`:
    /// the per-policy instruction shape over `nservers` live servers,
    /// plus dispatch bookkeeping, at gateway node `gw`.
    pub fn bill_route(
        &mut self,
        m: &Machine,
        gw: NodeId,
        ci: usize,
        policy: BalancerPolicy,
        nservers: usize,
    ) {
        let cpu = m.cpu(gw);
        let before = cpu.snapshot();
        cpu.with_feature(Feature::BufferMgmt, |c| {
            match policy {
                BalancerPolicy::Random => c.reg(Fine::RegOp, cost::PICK_RANDOM_REG),
                BalancerPolicy::RoundRobin => {
                    c.reg(Fine::RegOp, cost::PICK_RR_REG);
                    c.mem_load(cost::PICK_RR_MEM);
                }
                BalancerPolicy::LeastLoaded | BalancerPolicy::LatencyEwma => {
                    c.reg(Fine::RegOp, cost::PICK_SCAN_REG_PER_SERVER * nservers as u64);
                    c.mem_load(cost::PICK_SCAN_MEM_PER_SERVER * nservers as u64);
                }
                BalancerPolicy::ConsistentHash { vnodes } => {
                    let ring = (vnodes * nservers).max(2);
                    let probes = u64::from((ring as u64).ilog2()) + 1;
                    c.reg(Fine::RegOp, cost::PICK_HASH_REG + cost::PICK_PROBE_REG * probes);
                    c.mem_load(cost::PICK_PROBE_MEM * probes);
                }
            }
            c.mem_store(cost::DISPATCH_MEM);
        });
        self.bills[ci] += cpu.snapshot() - before;
    }

    /// Bill a hedge dispatch for class `ci` at gateway `gw`: the
    /// latency-quantile compare plus a least-loaded scan over the
    /// `nservers` healthy candidates. The hedge is the class's own
    /// tail-insurance spend, so it lands in that class's bill.
    pub fn bill_hedge(&mut self, m: &Machine, gw: NodeId, ci: usize, nservers: usize) {
        let cpu = m.cpu(gw);
        let before = cpu.snapshot();
        cpu.with_feature(Feature::FaultTol, |c| {
            c.reg(
                Fine::RegOp,
                cost::HEDGE_REG + cost::PICK_SCAN_REG_PER_SERVER * nservers as u64,
            );
            c.mem_load(cost::PICK_SCAN_MEM_PER_SERVER * nservers as u64);
            c.mem_store(cost::HEDGE_MEM);
        });
        self.bills[ci] += cpu.snapshot() - before;
    }

    /// Arrivals of class `ci` shed so far (breaker sheds included).
    #[must_use]
    pub fn shed(&self, ci: usize) -> usize {
        self.shed[ci]
    }

    /// Arrivals of class `ci` the brownout breaker shed (a subset of
    /// [`Gateway::shed`]).
    #[must_use]
    pub fn breaker_shed(&self, ci: usize) -> usize {
        self.breaker_shed[ci]
    }

    /// Gateway instructions attributed to class `ci` so far.
    #[must_use]
    pub fn bill(&self, ci: usize) -> CostVector {
        self.bills[ci].clone()
    }
}

/// Per-server handler-run counters, shared with the registered
/// closures.
pub type RunCounts = Rc<RefCell<BTreeMap<usize, u64>>>;

/// The server-pool actor: one registered RPC handler per pool node
/// (spares included), counting runs per server, deduplicating
/// cross-server duplicates through a pool-wide idempotency ledger.
#[derive(Debug)]
pub struct ServerPool {
    runs: RunCounts,
    dup_suppressed: Rc<RefCell<u64>>,
}

impl ServerPool {
    /// Register the serving handler on every node of `servers` and
    /// `spares` under `tag`. The handler echoes the request identity
    /// (class, arrival index) back in the reply and performs
    /// `msg.words[2]` work units, each a fixed shape of 2 loads, 1
    /// store, and 3 register ops billed at the callee.
    ///
    /// Every run first probes the pool-wide idempotency ledger on the
    /// request identity `(words[0], words[1])` — the durable dedup
    /// table of a real service tier, so it survives node restarts. A
    /// hit means another server (a hedge leg's target) already
    /// performed this request's work: the handler pays only the ledger
    /// probe, skips the application work, and the run is counted as
    /// *suppressed* instead — which is what keeps
    /// [`ServerPool::total_runs`] equal to the admitted count under
    /// hedging. Same-server duplicates (protocol resends, crash
    /// re-executions) never reach the handler at all: the per-node
    /// reply cache absorbs them first.
    pub fn install(m: &mut Machine, servers: &[NodeId], spares: &[NodeId], tag: u8) -> Self {
        let runs: RunCounts = Rc::new(RefCell::new(BTreeMap::new()));
        let dup_suppressed = Rc::new(RefCell::new(0u64));
        let ledger: Rc<RefCell<BTreeSet<u64>>> = Rc::new(RefCell::new(BTreeSet::new()));
        for &s in servers.iter().chain(spares) {
            let counter = Rc::clone(&runs);
            let dups = Rc::clone(&dup_suppressed);
            let seen = Rc::clone(&ledger);
            let idx = s.index();
            m.register_rpc_handler(s, tag, move |mem, msg| {
                let cpu = mem.cpu();
                cpu.reg_op(cost::DEDUP_REG);
                cpu.mem_load(cost::DEDUP_MEM);
                let key = (u64::from(msg.words[0]) << 32) | u64::from(msg.words[1]);
                if seen.borrow_mut().insert(key) {
                    *counter.borrow_mut().entry(idx).or_insert(0) += 1;
                    let work = u64::from(msg.words[2]);
                    cpu.mem_load(2 * work);
                    cpu.mem_store(work);
                    cpu.reg_op(3 * work);
                } else {
                    *dups.borrow_mut() += 1;
                }
                [msg.words[0], msg.words[1], msg.words[2].wrapping_mul(3), 0]
            });
        }
        ServerPool { runs, dup_suppressed }
    }

    /// Handler runs per server node index, for exactly-once accounting.
    #[must_use]
    pub fn runs(&self) -> BTreeMap<usize, u64> {
        self.runs.borrow().clone()
    }

    /// Total handler runs across the pool. Duplicate runs the
    /// idempotency ledger suppressed are *not* counted: even with hedge
    /// legs racing, this equals the number of admitted requests whose
    /// handler performed work.
    #[must_use]
    pub fn total_runs(&self) -> u64 {
        self.runs.borrow().values().sum()
    }

    /// Handler invocations the idempotency ledger suppressed (a hedge
    /// leg's duplicate arriving after the other leg already ran).
    #[must_use]
    pub fn dup_suppressed(&self) -> u64 {
        *self.dup_suppressed.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::switched_machine;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn gateway_sheds_past_the_bound_and_bills_the_class() {
        let m = switched_machine(4, 1);
        let mut g = Gateway::new(AdmissionWindow::TierGlobal(2), 2);
        assert_eq!(g.admit(&m, n(0), 0, false), Admission::Granted);
        assert_eq!(g.admit(&m, n(0), 0, false), Admission::Granted);
        assert_eq!(g.admit(&m, n(0), 1, false), Admission::Shed);
        assert_eq!(g.shed(0), 0);
        assert_eq!(g.shed(1), 1);
        assert_eq!(g.in_flight_total(), 2);
        // Both classes paid the admission check; only the shed class
        // paid the FaultTol shed shape.
        assert!(g.bill(0).feature_total(Feature::BufferMgmt) > 0);
        assert_eq!(g.bill(0).feature_total(Feature::FaultTol), 0);
        assert!(g.bill(1).feature_total(Feature::FaultTol) > 0);
        // Releasing a slot re-opens the window.
        g.complete(n(0));
        assert_eq!(g.admit(&m, n(0), 1, false), Admission::Granted);
        assert_eq!(g.peak_in_flight(), 2);
    }

    #[test]
    fn per_gateway_window_bounds_each_node_separately() {
        let m = switched_machine(4, 1);
        let mut g = Gateway::new(AdmissionWindow::PerGateway(1), 1);
        assert_eq!(g.admit(&m, n(0), 0, false), Admission::Granted);
        // Gateway 0 is full; gateway 1 still has room at the same
        // tier-wide count.
        assert_eq!(g.admit(&m, n(0), 0, false), Admission::Shed);
        assert_eq!(g.admit(&m, n(1), 0, false), Admission::Granted);
        assert_eq!(g.in_flight_total(), 2);
        assert_eq!(g.peak_per_gateway().get(&0), Some(&1));
        assert_eq!(g.peak_per_gateway().get(&1), Some(&1));
    }

    #[test]
    fn breaker_sheds_only_sheddable_classes_under_brownout() {
        let m = switched_machine(4, 1);
        let mut g = Gateway::new(AdmissionWindow::TierGlobal(64), 2);
        g.set_breaker(BreakerSpec { min_healthy_milli: 500 });
        g.note_health(3, 8); // 375 per mille: below threshold
        assert_eq!(g.admit(&m, n(0), 0, true), Admission::Shed);
        assert_eq!(g.breaker_shed(0), 1);
        assert_eq!(g.shed(0), 1, "breaker sheds count as sheds");
        // The non-sheddable class rides through the brownout.
        assert_eq!(g.admit(&m, n(0), 1, false), Admission::Granted);
        assert_eq!(g.breaker_shed(1), 0);
        // Recovery closes the breaker.
        g.note_health(5, 8);
        assert_eq!(g.admit(&m, n(0), 0, true), Admission::Granted);
    }

    #[test]
    fn gateway_route_billing_scales_with_policy() {
        let m = switched_machine(4, 1);
        let mut g = Gateway::new(AdmissionWindow::TierGlobal(8), 1);
        g.bill_route(&m, n(0), 0, BalancerPolicy::RoundRobin, 4);
        let rr = g.bill(0).total();
        let mut g2 = Gateway::new(AdmissionWindow::TierGlobal(8), 1);
        g2.bill_route(&m, n(0), 0, BalancerPolicy::LeastLoaded, 64);
        let scan = g2.bill(0).total();
        assert!(
            scan > rr,
            "a 64-server least-loaded scan ({scan}) must out-cost a rotation ({rr})"
        );
    }

    #[test]
    fn server_pool_counts_handler_runs() {
        let mut m = switched_machine(4, 2);
        let pool = ServerPool::install(&mut m, &[n(1), n(2)], &[], 40);
        let reply = m.rpc_call(n(0), n(1), 40, [7, 9, 2, 0], None).unwrap();
        assert_eq!(reply, [7, 9, 6, 0]);
        assert_eq!(pool.total_runs(), 1);
        assert_eq!(pool.runs().get(&1), Some(&1));
        assert_eq!(pool.dup_suppressed(), 0);
    }

    #[test]
    fn idempotency_ledger_suppresses_cross_server_duplicates() {
        let mut m = switched_machine(4, 2);
        let pool = ServerPool::install(&mut m, &[n(1), n(2)], &[], 40);
        // The same request identity served on two different servers —
        // what a hedge leg does. The second run is suppressed; the
        // reply is identical either way.
        let a = m.rpc_call(n(0), n(1), 40, [3, 5, 2, 0], None).unwrap();
        let b = m.rpc_call(n(0), n(2), 40, [3, 5, 2, 0], None).unwrap();
        assert_eq!(a, b);
        assert_eq!(pool.total_runs(), 1, "one logical request, one counted run");
        assert_eq!(pool.dup_suppressed(), 1);
        // A different identity on the same server still runs.
        m.rpc_call(n(0), n(2), 40, [3, 6, 2, 0], None).unwrap();
        assert_eq!(pool.total_runs(), 2);
    }
}
