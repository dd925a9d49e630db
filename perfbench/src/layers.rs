//! Per-layer figures of a traced rep, and their names.
//!
//! Every workload reports the same list of names. A layer that does no
//! work on a workload reports zero there: the `core` protocol timings
//! exist only on `protocols`, the service counts only on
//! `serving_failover`, and the engine's counters and profiler only on
//! the xfer workloads (`run_service` keeps its engine private).

use timego_am::SchedCounters;
use timego_cost::Feature;
use timego_workloads::service::ServiceOutcome;

use crate::timed::NetTrace;

/// Host nanoseconds over a number of calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Total nanoseconds.
    pub ns: u64,
    /// Calls.
    pub n: u64,
}

impl Tally {
    /// Fold one call in.
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }
}

/// The protocol families the `protocols` workload times separately.
#[derive(Clone, Copy, Debug)]
pub enum ProtocolFamily {
    Am4,
    Xfer,
    Stream,
    HlXfer,
    HlStream,
}

const FAMILIES: [&str; 5] = ["am4", "xfer", "stream", "hl_xfer", "hl_stream"];

/// Durations of the benchmark's spans in one rep, in the order they run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub setup: f64,
    pub submit: f64,
    pub run: f64,
    pub verify: f64,
}

impl Spans {
    /// `(name, start, duration)` in seconds from the start of the rep.
    pub fn list(&self) -> [(&'static str, f64, f64); 4] {
        let mut at = 0.0;
        [
            ("setup", self.setup),
            ("submit", self.submit),
            ("run", self.run),
            ("verify", self.verify),
        ]
        .map(|(name, d)| {
            let start = at;
            at += d;
            (name, start, d)
        })
    }
}

/// Raw per-layer figures of one rep.
#[derive(Debug, Default)]
pub struct Layers {
    /// Operations submitted to the engine.
    pub ops: u64,
    /// Engine counters.
    pub counters: Option<SchedCounters>,
    /// Engine profiler totals in nanoseconds, in `SchedPhase::ALL`
    /// order.
    pub phases: Option<[u64; 4]>,
    /// Samples folded into the profiler totals.
    pub profiler_samples: u64,
    /// Samples the profiler's ring lost.
    pub profiler_dropped: u64,
    /// Substrate calls seen by the timing wrapper.
    pub net: Option<NetTrace>,
    /// Packets the substrate delivered.
    pub delivered: u64,
    /// Host time of the `measure_*` calls, by protocol family.
    pub protocol_ns: [Tally; 5],
    /// Simulated instructions by feature, in `Feature::ALL` order.
    pub cost: [u64; 4],
    /// Operations `cost` is spread over.
    pub cost_ops: u64,
    /// The serving run's outcome.
    pub service: Option<ServiceOutcome>,
    /// The benchmark's spans around its calls into the program.
    pub spans: Spans,
    /// Host seconds of the phase that ran over the timing wrapper: the
    /// run span, or on `protocols` the replay.
    pub wrapped_s: f64,
}

/// One reported figure: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const NS: f64 = 1e-9;

impl Layers {
    /// Every per-layer metric, in a fixed order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = Vec::new();
        let mut put =
            |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));

        let c = self.counters.unwrap_or_default();
        for (name, v) in [
            ("steps", c.steps),
            ("passes", c.passes),
            ("quanta", c.quanta),
            ("advances", c.advances),
            ("idle_jumps", c.idle_jumps),
            ("timer_wakes", c.timer_wakes),
            ("packet_wakes", c.packet_wakes),
        ] {
            put(&format!("core.engine.{name}"), v as f64, "count");
        }
        put(
            "core.engine.steps_per_op",
            ratio(c.steps as f64, self.ops as f64),
            "steps/op",
        );
        let phases = self.phases.unwrap_or_default();
        let profiled: u64 = phases.iter().sum();
        for (name, ns) in ["ready_pop", "op_step", "wheel", "substrate"]
            .iter()
            .zip(phases)
        {
            put(&format!("core.engine.{name}_s"), ns as f64 * NS, "s");
            put(
                &format!("core.engine.{name}_share"),
                ratio(ns as f64, profiled as f64),
                "ratio",
            );
        }
        put(
            "core.engine.profiler_samples",
            self.profiler_samples as f64,
            "count",
        );
        put(
            "core.engine.profiler_dropped",
            self.profiler_dropped as f64,
            "count",
        );

        let empty = NetTrace::default();
        let net = self.net.as_ref().unwrap_or(&empty);
        put("netsim.advance_s", net.advance_ns as f64 * NS, "s");
        put("netsim.advance_calls", net.advance_calls as f64, "count");
        put("netsim.sim_cycles", net.sim_cycles as f64, "cycles");
        put(
            "netsim.ns_per_sim_cycle",
            ratio(net.advance_ns as f64, net.sim_cycles as f64),
            "ns/cycle",
        );
        put("netsim.delivered", self.delivered as f64, "count");
        put("netsim.backpressure", net.backpressure as f64, "count");
        put(
            "netsim.take_delivered_calls",
            net.take_delivered_calls as f64,
            "count",
        );
        put("ni.inject_calls", net.inject_calls as f64, "count");
        put("ni.receive_calls", net.receive_calls as f64, "count");
        put("ni.peek_calls", net.peek_calls as f64, "count");
        put("ni.io_s", net.io_ns as f64 * NS, "s");

        for (name, t) in FAMILIES.iter().zip(&self.protocol_ns) {
            put(
                &format!("core.{name}.ns_per_msg"),
                ratio(t.ns as f64, t.n as f64),
                "ns",
            );
        }
        let protocol_ns: u64 = self.protocol_ns.iter().map(|t| t.ns).sum();
        let instr: u64 = self.cost.iter().sum();
        let timed_instr = if protocol_ns > 0 { instr } else { 0 };
        put(
            "core.protocols.ns_per_instr",
            ratio(protocol_ns as f64, timed_instr as f64),
            "ns/instr",
        );

        for (f, name) in Feature::ALL
            .iter()
            .zip(["base", "buffer_mgmt", "in_order", "fault_tol"])
        {
            put(
                &format!("cost.{name}"),
                ratio(self.cost[f.index()] as f64, self.cost_ops as f64),
                "instr/op",
            );
        }
        let overhead = instr - self.cost[Feature::Base.index()];
        put(
            "cost.overhead_pct",
            100.0 * ratio(overhead as f64, instr as f64),
            "%",
        );

        let svc = self.service.as_ref();
        for (i, class) in ["interactive", "batch"].iter().enumerate() {
            let c = svc.and_then(|s| s.classes.get(i));
            let count = |f: fn(&timego_workloads::service::ClassOutcome) -> u64| {
                c.map_or(0.0, |c| f(c) as f64)
            };
            let key = |k: &str| format!("workloads.service.{class}.{k}");
            put(&key("offered"), count(|c| c.offered as u64), "count");
            put(&key("admitted"), count(|c| c.admitted as u64), "count");
            put(&key("shed"), count(|c| c.shed as u64), "count");
            put(&key("completed"), count(|c| c.completed as u64), "count");
            put(&key("failed"), count(|c| c.failed as u64), "count");
            put(&key("re_executions"), count(|c| c.re_executions), "count");
            put(&key("hedges"), count(|c| c.hedges as u64), "count");
            put(&key("hedge_wins"), count(|c| c.hedge_wins as u64), "count");
            // `LatencyStats` buckets are powers of two; these are the
            // upper bounds of the buckets holding the quantiles.
            put(
                &key("sim_p50_cycles"),
                count(|c| c.completion.quantile(0.5)),
                "cycles_pow2_ub",
            );
            put(
                &key("sim_p99_cycles"),
                count(|c| c.completion.quantile(0.99)),
                "cycles_pow2_ub",
            );
            put(&key("latency_n"), count(|c| c.completion.count()), "count");
        }
        let whole = |f: fn(&ServiceOutcome) -> f64| svc.map_or(0.0, f);
        put(
            "workloads.service.probes",
            whole(|s| s.probes as f64),
            "count",
        );
        put(
            "workloads.service.ejections",
            whole(|s| s.ejections as f64),
            "count",
        );
        put(
            "workloads.service.dup_suppressed",
            whole(|s| s.dup_suppressed as f64),
            "count",
        );
        put(
            "workloads.service.peak_in_flight",
            whole(|s| s.peak_in_flight as f64),
            "count",
        );
        put(
            "workloads.service.goodput_per_kcycle",
            whole(ServiceOutcome::goodput_per_kcycle),
            "1/kcycle",
        );
        let offered = whole(|s| s.classes.iter().map(|c| c.offered).sum::<usize>() as f64);
        put(
            "workloads.service.us_per_request",
            1e6 * ratio(self.spans.run, offered),
            "us",
        );

        // Self time of the wrapped phase: its span minus the substrate
        // time inside it.
        let run_self = self.wrapped_s - (net.advance_ns + net.io_ns) as f64 * NS;
        let service_self = if svc.is_some() { run_self } else { 0.0 };
        put("workloads.service.above_substrate_s", service_self, "s");
        put(
            "run.ns_per_sim_cycle_q1",
            net.timeline.ns_per_cycle_in_quarter(0),
            "ns/cycle",
        );
        put(
            "run.ns_per_sim_cycle_q4",
            net.timeline.ns_per_cycle_in_quarter(3),
            "ns/cycle",
        );

        put("driver.setup_s", self.spans.setup, "s");
        put("driver.submit_s", self.spans.submit, "s");
        put("driver.run_s", self.spans.run, "s");
        put("driver.verify_s", self.spans.verify, "s");
        put("driver.run_self_s", run_self, "s");
        out
    }
}
