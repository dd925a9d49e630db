//! A timing wrapper around the `Network` trait.
//!
//! [`TimedNet`] sits between the machine and a substrate in traced
//! runs. It forwards *every* trait method, the defaulted ones included:
//! a missed override would silently swap the substrate's own
//! implementation (say, its precise `take_delivered`) for the trait's
//! default and change scheduling. The benchmark checks that a traced
//! run's simulated signature equals its untraced one, which catches
//! such a slip.
//!
//! Counts and times are aggregated in place; no per-call record is
//! kept. Host time between successive `advance` calls is also binned
//! by simulated cycle ([`Timeline`]), so the cost of a simulated cycle
//! can be compared between early and late parts of a run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use timego_netsim::{Guarantees, InjectError, NetStats, Network, NodeId, Packet, RxMeta, Time};

/// Aggregated substrate calls of one traced run.
#[derive(Debug, Default)]
pub struct NetTrace {
    /// `advance`, `drain` and `drain_extracting` calls.
    pub advance_calls: u64,
    /// Host nanoseconds inside those calls.
    pub advance_ns: u64,
    /// Simulated cycles those calls moved the clock.
    pub sim_cycles: u64,
    /// `take_delivered` calls (the scheduler's wake-set drains).
    pub take_delivered_calls: u64,
    /// `try_inject` calls.
    pub inject_calls: u64,
    /// `try_inject` calls refused with backpressure.
    pub backpressure: u64,
    /// `try_receive` calls.
    pub receive_calls: u64,
    /// `rx_peek` calls.
    pub peek_calls: u64,
    /// Host nanoseconds inside inject, receive and peek calls.
    pub io_ns: u64,
    /// Host time by simulated cycle, once started.
    pub timeline: Timeline,
}

impl NetTrace {
    /// The deterministic counts, which repeat exactly across runs of
    /// one seed.
    pub fn counts(&self) -> [u64; 7] {
        [
            self.advance_calls,
            self.sim_cycles,
            self.take_delivered_calls,
            self.inject_calls,
            self.backpressure,
            self.receive_calls,
            self.peek_calls,
        ]
    }
}

/// Shared handle: the wrapper is owned by the machine, the benchmark
/// reads the totals through this.
pub type TraceHandle = Rc<RefCell<NetTrace>>;

const BINS: usize = 1024;

/// Host nanoseconds binned by simulated cycle. The bin width doubles
/// (adjacent bins merge) whenever the run outgrows the bin count, so
/// memory stays fixed however long the run is.
#[derive(Debug, Default)]
pub struct Timeline {
    origin: u64,
    end: u64,
    width: u64,
    bins: Vec<u64>,
    last: Option<Instant>,
}

impl Timeline {
    /// Start attributing host time, with simulated time `origin` as
    /// cycle zero.
    pub fn start(&mut self, origin: u64) {
        *self = Timeline {
            origin,
            end: origin,
            width: 1,
            bins: vec![0; BINS],
            last: Some(Instant::now()),
        };
    }

    /// Charge the host time since the previous mark to the cycle the
    /// clock stood at before this advance.
    fn mark(&mut self, cycle_before: u64, cycle_after: u64) {
        let Some(last) = self.last else { return };
        let now = Instant::now();
        let ns = now.duration_since(last).as_nanos() as u64;
        self.last = Some(now);
        let offset = cycle_before.saturating_sub(self.origin);
        while offset / self.width >= BINS as u64 {
            for i in 0..BINS / 2 {
                self.bins[i] = self.bins[2 * i] + self.bins[2 * i + 1];
            }
            self.bins[BINS / 2..].fill(0);
            self.width *= 2;
        }
        self.bins[(offset / self.width) as usize] += ns;
        self.end = self.end.max(cycle_after);
    }

    /// Host nanoseconds per simulated cycle over quarter `q` (0 to 3)
    /// of the simulated span. Bins are attributed by their start cycle.
    pub fn ns_per_cycle_in_quarter(&self, q: u64) -> f64 {
        let span = self.end.saturating_sub(self.origin);
        if span < 4 || self.bins.is_empty() {
            return 0.0;
        }
        let (lo, hi) = (span * q / 4, span * (q + 1) / 4);
        let ns: u64 = self
            .bins
            .iter()
            .enumerate()
            .filter(|&(i, _)| (lo..hi).contains(&(i as u64 * self.width)))
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 / (hi - lo) as f64
    }
}

/// The timing wrapper; see the module docs.
pub struct TimedNet {
    inner: Box<dyn Network>,
    trace: TraceHandle,
}

impl TimedNet {
    /// Wrap `inner`, aggregating into `trace`.
    pub fn new(inner: Box<dyn Network>, trace: TraceHandle) -> Self {
        TimedNet { inner, trace }
    }

    fn clocked<R>(&mut self, f: impl FnOnce(&mut dyn Network) -> R) -> R {
        let before = self.inner.now().cycles();
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        let after = self.inner.now().cycles();
        let mut tr = self.trace.borrow_mut();
        tr.advance_calls += 1;
        tr.advance_ns += ns;
        tr.sim_cycles += after - before;
        tr.timeline.mark(before, after);
        r
    }

    fn io<R>(&mut self, f: impl FnOnce(&mut dyn Network) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.trace.borrow_mut().io_ns += t.elapsed().as_nanos() as u64;
        r
    }
}

impl Network for TimedNet {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn advance(&mut self, cycles: u64) {
        self.clocked(|n| n.advance(cycles));
    }

    fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError> {
        let r = self.io(|n| n.try_inject(packet));
        let mut tr = self.trace.borrow_mut();
        tr.inject_calls += 1;
        if matches!(r, Err(InjectError::Backpressure)) {
            tr.backpressure += 1;
        }
        r
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.trace.borrow_mut().receive_calls += 1;
        self.io(|n| n.try_receive(node))
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        self.trace.borrow_mut().peek_calls += 1;
        self.io(|n| n.rx_peek(node))
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.inner.rx_pending(node)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn guarantees(&self) -> Guarantees {
        self.inner.guarantees()
    }

    fn restarts(&self, node: NodeId) -> u32 {
        self.inner.restarts(node)
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        self.trace.borrow_mut().take_delivered_calls += 1;
        self.inner.take_delivered()
    }

    fn restarts_hint(&self) -> u64 {
        self.inner.restarts_hint()
    }

    fn next_restart_at(&self) -> Option<Time> {
        self.inner.next_restart_at()
    }

    fn drain(&mut self, max_cycles: u64) -> bool {
        self.clocked(|n| n.drain(max_cycles))
    }

    fn drain_extracting(&mut self, max_cycles: u64) -> bool {
        self.clocked(|n| n.drain_extracting(max_cycles))
    }
}
