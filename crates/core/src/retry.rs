//! The recovery policy for the fault-tolerant paths.
//!
//! The paper's CMAM protocols *detect* losses (via the end-to-end
//! acknowledgement) but do not recover: a lost packet fails the whole
//! transfer. [`RecoveryPolicy`] parameterizes both recovery layers
//! timego adds, and every instruction either one spends is billed to
//! `Feature::FaultTol`:
//!
//! * **in-protocol retransmission** — [`Op::reliable`](crate::Op::reliable)
//!   and [`Op::rpc`](crate::Op::rpc) (and their blocking forms
//!   [`Machine::xfer_reliable`](crate::Machine::xfer_reliable) and
//!   [`Machine::rpc_call`](crate::Machine::rpc_call)) read `max_attempts`
//!   as the attempts each protocol phase may make;
//! * **engine re-execution** —
//!   [`Submit::recovering`](crate::Submit::recovering) reads
//!   `max_attempts` as the total executions the engine may run.
//!
//! Backoff is exponential in cycles with a deterministic per-attempt
//! jitter (a splitmix64 hash of seed and attempt number), so two runs
//! with the same seed wait identically — fault-injection experiments
//! stay bit-reproducible.

use timego_netsim::rng::splitmix64;

/// Bounded-attempt exponential backoff with deterministic jitter.
///
/// As an engine policy ([`Submit::recovering`](crate::Submit::recovering)):
/// instead of surfacing a retryable error
/// ([`ProtocolError::is_retryable`](crate::ProtocolError::is_retryable):
/// `SessionReset`, `Timeout`, `DeadlineExceeded`) to the caller, the
/// engine parks the operation for `backoff(k)` cycles before
/// re-execution `k + 1` and re-runs it under a fresh session epoch. The
/// operation keeps its [`OpId`](crate::OpId), so run-after dependents
/// stay held and release when the recovered execution finally succeeds.
/// Every re-execution bills the session-restart constants to
/// `Feature::FaultTol` at the operation's source node; a clean run
/// executes (and costs) exactly what the non-recovering submission does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total attempts (protocol phase) or executions (engine), including
    /// the first; `1` disables recovery.
    pub max_attempts: u32,
    /// Cycles the first attempt waits before declaring a loss.
    pub base_wait: u64,
    /// Upper bound on any attempt's wait (pre-jitter).
    pub max_wait: u64,
    /// Maximum extra cycles added per attempt; the actual jitter is a
    /// deterministic function of `seed` and the attempt number.
    pub jitter: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 6,
            // Generous relative to simulated network latencies (tens of
            // cycles), tiny relative to `max_wait_cycles` (2^20): a
            // clean run never sees the deadline, a faulted run recovers
            // promptly.
            base_wait: 4_096,
            max_wait: 1 << 16,
            jitter: 64,
            seed: 0x7e7a_11ce,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery: a single attempt, paper-faithful fail-on-loss.
    #[must_use]
    pub fn none() -> Self {
        RecoveryPolicy { max_attempts: 1, ..RecoveryPolicy::default() }
    }

    /// The default for in-protocol retransmission: ten attempts per
    /// phase, otherwise [`RecoveryPolicy::default`].
    #[must_use]
    pub fn retransmit() -> Self {
        RecoveryPolicy { max_attempts: 10, ..RecoveryPolicy::default() }
    }

    /// The wait (in cycles) after attempt `attempt` (0-based) fails:
    /// `min(base_wait << attempt, max_wait)` plus deterministic jitter.
    /// The engine parks `backoff(k)` cycles before re-execution `k + 1`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        let exp = if attempt >= self.base_wait.leading_zeros() {
            self.max_wait // the shift would overflow; saturate at the cap
        } else {
            (self.base_wait << attempt).min(self.max_wait)
        };
        let j = if self.jitter == 0 {
            0
        } else {
            splitmix64(self.seed ^ u64::from(attempt)) % (self.jitter + 1)
        };
        exp.saturating_add(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RecoveryPolicy { jitter: 0, ..RecoveryPolicy::default() };
        assert_eq!(p.backoff(0), 4_096);
        assert_eq!(p.backoff(1), 8_192);
        assert_eq!(p.backoff(2), 16_384);
        assert_eq!(p.backoff(10), p.max_wait, "capped");
        assert_eq!(p.backoff(63), p.max_wait, "shift overflow saturates");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RecoveryPolicy::default();
        for a in 0..16 {
            let w = p.backoff(a);
            assert_eq!(w, p.backoff(a), "same attempt, same wait");
            let base = RecoveryPolicy { jitter: 0, ..p.clone() }.backoff(a);
            assert!(w >= base && w <= base + p.jitter, "attempt {a}: {w}");
        }
        // Different seeds give different jitter somewhere in the range.
        let q = RecoveryPolicy { seed: 99, ..p.clone() };
        assert!((0..16).any(|a| p.backoff(a) != q.backoff(a)));
    }

    #[test]
    fn none_means_single_attempt() {
        assert_eq!(RecoveryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn defaults_are_pinned() {
        let d = RecoveryPolicy::default();
        assert_eq!(
            (d.max_attempts, d.base_wait, d.max_wait, d.jitter, d.seed),
            (6, 4_096, 1 << 16, 64, 0x7e7a_11ce)
        );
        assert_eq!(RecoveryPolicy::retransmit(), RecoveryPolicy { max_attempts: 10, ..d });
    }
}
