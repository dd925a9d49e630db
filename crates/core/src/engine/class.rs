//! The class plane: per-request-class cost attribution and latency
//! queries for operations tagged with
//! [`Submit::class`](super::Submit::class). Every hook is gated on the
//! plane being in use, so untagged workloads pay nothing.

use timego_cost::CostVector;
use timego_netsim::{LatencyStats, NodeId};

use super::{latency_stats, Engine, OpId};
use crate::machine::Machine;

impl Engine {
    /// The class tag `id` was submitted with
    /// ([`Submit::class`](super::Submit::class)), if any.
    #[must_use]
    pub fn class_of(&self, id: OpId) -> Option<u8> {
        self.class_of.get(&id).copied()
    }

    /// The accumulated cost attributed to `class` — the Table-1/2/3
    /// projection for one request class. Empty if the class was never
    /// billed.
    #[must_use]
    pub fn class_bill(&self, class: u8) -> CostVector {
        self.class_bills.get(&class).cloned().unwrap_or_default()
    }

    /// Every `(class, bill)` pair accumulated so far, ascending by
    /// class.
    #[must_use]
    pub fn class_bills(&self) -> Vec<(u8, CostVector)> {
        self.class_bills.iter().map(|(&c, v)| (c, v.clone())).collect()
    }

    /// [`Engine::completion_times`] restricted to operations tagged
    /// with `class`.
    #[must_use]
    pub fn completion_times_for_class(&self, class: u8) -> Vec<(OpId, u64)> {
        self.completion_times()
            .into_iter()
            .filter(|(id, _)| self.class_of.get(id) == Some(&class))
            .collect()
    }

    /// [`Engine::completion_stats`] restricted to operations tagged
    /// with `class`.
    #[must_use]
    pub fn completion_stats_for_class(&self, class: u8) -> LatencyStats {
        latency_stats(self.completion_times_for_class(class))
    }

    /// Pre-step snapshot for the class plane: if `id` is tagged, the
    /// cost recorders at both endpoints as they stand *before* the
    /// about-to-run `start`/`step`. `None` (the untagged and
    /// class-plane-off cases) makes the post hook free.
    pub(super) fn class_pre(
        &self,
        m: &Machine,
        id: OpId,
        endpoints: (NodeId, NodeId),
    ) -> Option<(u8, CostVector, CostVector)> {
        if self.class_of.is_empty() {
            return None;
        }
        let &class = self.class_of.get(&id)?;
        Some((class, m.cpu(endpoints.0).snapshot(), m.cpu(endpoints.1).snapshot()))
    }

    /// Post-step accumulation: whatever the endpoints' recorders gained
    /// since `pre` is credited to the op's class. Single-threaded
    /// stepping means the delta is exactly the cost this op caused.
    pub(super) fn class_post(
        &mut self,
        m: &Machine,
        pre: Option<(u8, CostVector, CostVector)>,
        endpoints: (NodeId, NodeId),
    ) {
        let Some((class, before_a, before_b)) = pre else { return };
        let mut delta = m.cpu(endpoints.0).snapshot() - before_a;
        if endpoints.1 != endpoints.0 {
            delta += m.cpu(endpoints.1).snapshot() - before_b;
        }
        if !delta.is_empty() {
            *self.class_bills.entry(class).or_default() += delta;
        }
    }
}
