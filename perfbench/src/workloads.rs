//! The four workloads. Each one is a *rep*: set up, run the measured
//! phase, verify the outputs, and return host times, a count of
//! verified operations and failures, a simulated signature and, when
//! traced, the raw per-layer figures.

use std::rc::Rc;
use std::time::Instant;

use timego_am::{CmamConfig, Engine, Machine, OpOutcome, StreamConfig, Tags};
use timego_cost::analytic::{self, IndefiniteOpts, MsgShape, ProtocolCost};
use timego_cost::{CostVector, Endpoint, Feature};
use timego_netsim::{
    CrashWindow, DeliveryScript, FaultConfig, Network, NodeId, ScriptedNetwork, SimRng,
};
use timego_ni::{share, SharedNetwork};
use timego_workloads::patterns::Pattern;
use timego_workloads::service::{
    run_service, AdmissionWindow, BalancerPolicy, DetectorSpec, HedgeSpec, QosClass, ServiceSpec,
};
use timego_workloads::{payloads, scenarios, sweeps};

use crate::layers::{Layers, ProtocolFamily, Spans};
use crate::timed::{TimedNet, TraceHandle};

/// One workload's result for one rep.
pub struct Rep {
    /// Host seconds building the substrate, machine and inputs.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
    /// Simulated results that must repeat exactly for a seed.
    pub signature: Vec<u64>,
    /// Raw per-layer figures (traced reps only).
    pub layers: Layers,
}

impl Rep {
    /// Verified operations completed.
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's measured protocol paths on fresh 2-node substrates.
    Protocols,
    /// Every node of a flat fat tree sends one xfer to node 0.
    XferHotspot,
    /// A seeded random permutation of xfers on the sharded substrate.
    XferPermutation,
    /// Two QoS classes through a gateway tier and a server pool, with
    /// one server crashed for the middle half of the arrivals.
    ServingFailover,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Protocols,
        Workload::XferHotspot,
        Workload::XferPermutation,
        Workload::ServingFailover,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Protocols => "protocols",
            Workload::XferHotspot => "xfer_hotspot",
            Workload::XferPermutation => "xfer_permutation",
            Workload::ServingFailover => "serving_failover",
        }
    }

    /// Measured reps run the substrate at one worker thread. The
    /// sharded xfer workload also runs one rep at this many threads,
    /// whose signature must match: results may not depend on threads.
    pub fn check_threads(self) -> Option<usize> {
        match self {
            Workload::XferPermutation => Some(2),
            _ => None,
        }
    }

    /// One rep. `threads` sets the worker threads of the sharded xfer
    /// workload's substrate; the other workloads ignore it.
    pub fn rep(self, seed: u64, threads: usize, traced: bool) -> Rep {
        match self {
            Workload::Protocols => protocols(seed, traced),
            Workload::XferHotspot => xfer(&HOTSPOT, seed, threads, traced),
            Workload::XferPermutation => xfer(&PERMUTATION, seed, threads, traced),
            Workload::ServingFailover => serving(seed, traced),
        }
    }
}

/// Build a machine over `net`, behind the timing wrapper when traced.
fn machine<N: Network + 'static>(net: N, cfg: CmamConfig, trace: Option<&TraceHandle>) -> Machine {
    let nodes = net.num_nodes();
    let shared: SharedNetwork = match trace {
        Some(t) => share(TimedNet::new(Box::new(net), Rc::clone(t))),
        None => share(net),
    };
    Machine::new(shared, nodes, cfg)
}

fn node_costs(m: &Machine, nodes: usize) -> CostVector {
    let mut total = CostVector::new();
    for i in 0..nodes {
        total += m.cpu(NodeId::new(i)).snapshot();
    }
    total
}

fn by_feature(cost: &CostVector) -> [u64; 4] {
    Feature::ALL.map(|f| cost.feature_total(f))
}

// ---------------------------------------------------------------------
// protocols
// ---------------------------------------------------------------------

/// Rounds per rep: about one host second on a 2-CPU host.
const ROUNDS: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Am4,
    Xfer(usize, usize),
    Stream(usize, usize),
    HlXfer(usize, usize),
    HlStream(usize, usize),
}

impl Path {
    fn family(self) -> ProtocolFamily {
        match self {
            Path::Am4 => ProtocolFamily::Am4,
            Path::Xfer(..) => ProtocolFamily::Xfer,
            Path::Stream(..) => ProtocolFamily::Stream,
            Path::HlXfer(..) => ProtocolFamily::HlXfer,
            Path::HlStream(..) => ProtocolFamily::HlStream,
        }
    }

    /// The `timego_cost::analytic` Table 1–3 / Figure 8 model of this
    /// path.
    fn model(self) -> ProtocolCost {
        let shape = |w: usize, n: usize| {
            MsgShape::for_message(w as u64, n as u64).expect("benchmark shapes are valid")
        };
        match self {
            Path::Am4 => analytic::single_packet(),
            Path::Xfer(w, n) => analytic::cmam_finite(shape(w, n)),
            Path::Stream(w, n) => {
                let s = shape(w, n);
                analytic::cmam_indefinite(s, IndefiniteOpts::paper(s))
            }
            Path::HlXfer(w, n) => analytic::hl_finite(shape(w, n)),
            Path::HlStream(w, n) => analytic::hl_indefinite(shape(w, n)),
        }
    }

    /// Run the path through the `timego_am::measure_*` helpers.
    fn measure(self) -> ProtocolCost {
        match self {
            Path::Am4 => timego_am::measure_single_packet(),
            Path::Xfer(w, n) => timego_am::measure_xfer(w, n).0,
            Path::Stream(w, n) => timego_am::measure_stream(w, n, 1).0,
            Path::HlXfer(w, n) => timego_am::measure_hl_xfer(w, n).0,
            Path::HlStream(w, n) => timego_am::measure_hl_stream(w, n),
        }
    }

    /// The same measurement built from the public `Machine` API over a
    /// timed substrate, so the NI's substrate calls can be counted.
    /// Returns the cost, whether the payload arrived intact, and the
    /// packets delivered.
    fn replay(self, data: &[u32], trace: &TraceHandle) -> (ProtocolCost, bool, u64) {
        let (packet_words, script) = match self {
            Path::Am4 => (4, DeliveryScript::InOrder),
            Path::Stream(_, n) => (n, DeliveryScript::AlternateSwap),
            Path::Xfer(_, n) | Path::HlXfer(_, n) | Path::HlStream(_, n) => {
                (n, DeliveryScript::InOrder)
            }
        };
        let cfg = CmamConfig {
            packet_words,
            ..CmamConfig::default()
        };
        let mut m = machine(ScriptedNetwork::new(2, script), cfg, Some(trace));
        let (src, dst) = (NodeId::new(0), NodeId::new(1));
        let intact = match self {
            Path::Am4 => {
                m.reset_costs();
                let sent = m.am4_send(src, dst, Tags::USER_BASE, [1, 2, 3, 4]).is_ok();
                sent && m.poll(dst).received()
            }
            Path::Xfer(w, _) | Path::HlXfer(w, _) => {
                m.reset_costs();
                let out = if matches!(self, Path::Xfer(..)) {
                    m.xfer(src, dst, &data[..w])
                } else {
                    m.hl_xfer(src, dst, &data[..w])
                };
                out.is_ok_and(|o| m.read_buffer(dst, o.dst_buffer, w) == data[..w])
            }
            Path::Stream(w, _) => {
                let id = m.open_stream(
                    src,
                    dst,
                    StreamConfig {
                        ack_period: 1,
                        ..StreamConfig::default()
                    },
                );
                m.reset_costs();
                m.stream_send(id, &data[..w]).is_ok() && m.stream_received(id) == &data[..w]
            }
            Path::HlStream(w, _) => {
                m.reset_costs();
                m.hl_stream_send(src, dst, &data[..w])
                    .is_ok_and(|got| got == data[..w])
            }
        };
        let delivered = m.network().borrow().stats().delivered;
        let (a, b) = (m.cpu(src).snapshot(), m.cpu(dst).snapshot());
        let mut cost = ProtocolCost::new();
        for f in Feature::ALL {
            cost.set(Endpoint::Source, f, a.feature(f));
            cost.set(Endpoint::Destination, f, b.feature(f));
        }
        (cost, intact, delivered)
    }
}

/// One round: single-packet am4; xfer, stream and their high-level
/// counterparts at 16 and 1024 words; the Figure 8 packet-size sweep
/// of xfer and stream at 1024 words (4 words per packet is already in
/// the list above).
fn round() -> Vec<Path> {
    let mut paths = vec![Path::Am4];
    for w in [16, 1024] {
        paths.extend([
            Path::Xfer(w, 4),
            Path::Stream(w, 4),
            Path::HlXfer(w, 4),
            Path::HlStream(w, 4),
        ]);
    }
    let words = sweeps::FIGURE8_MESSAGE_WORDS as usize;
    for &n in &sweeps::FIGURE8_PACKET_SIZES[1..] {
        paths.extend([
            Path::Xfer(words, n as usize),
            Path::Stream(words, n as usize),
        ]);
    }
    paths
}

fn add_cost(total: &mut [u64; 4], c: &ProtocolCost) {
    for f in Feature::ALL {
        total[f.index()] += c.feature_total(f);
    }
}

fn protocols(seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    // The seed fixes the order of the paths within each round, and
    // the replayed payload.
    let paths = round();
    let models: Vec<ProtocolCost> = paths.iter().map(|p| p.model()).collect();
    let mut rng = SimRng::new(seed);
    let schedule: Vec<usize> = (0..ROUNDS)
        .flat_map(|_| {
            let mut order: Vec<usize> = (0..paths.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let payload = payloads::mixed(sweeps::FIGURE8_MESSAGE_WORDS as usize, seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    let mut cost = [0u64; 4];
    let mut intact = vec![true; schedule.len()];
    let t = Instant::now();
    for (k, &i) in schedule.iter().enumerate() {
        let got = if traced {
            let c = Instant::now();
            let got = paths[i].measure();
            layers.protocol_ns[paths[i].family() as usize].add(c.elapsed().as_nanos() as u64);
            got
        } else {
            paths[i].measure()
        };
        intact[k] = got == models[i];
        add_cost(&mut cost, &got);
    }
    let wall_s = t.elapsed().as_secs_f64();

    if traced {
        // The replay runs the same schedule over timed substrates, for
        // the netsim and NI counts; its bills must match the models.
        let trace: TraceHandle = Rc::default();
        let t_replay = Instant::now();
        for (k, &i) in schedule.iter().enumerate() {
            let (got, payload_intact, delivered) = paths[i].replay(&payload, &trace);
            layers.delivered += delivered;
            intact[k] &= payload_intact && got == models[i];
        }
        layers.wrapped_s = t_replay.elapsed().as_secs_f64();
        layers.net = Some(
            Rc::try_unwrap(trace)
                .expect("machines dropped")
                .into_inner(),
        );
        layers.cost = cost;
        layers.cost_ops = schedule.len() as u64;
        layers.spans = Spans {
            setup: setup_s,
            run: wall_s,
            ..Spans::default()
        };
    }
    Rep {
        setup_s,
        wall_s,
        attempted: schedule.len() as u64,
        failed: intact.iter().filter(|&&ok| !ok).count() as u64,
        signature: cost.to_vec(),
        layers,
    }
}

// ---------------------------------------------------------------------
// xfer_hotspot, xfer_permutation
// ---------------------------------------------------------------------

struct XferCase {
    nodes: usize,
    words: usize,
    /// `Some(shards)` for the sharded substrate, `None` for the flat
    /// deterministic fat tree.
    shards: Option<usize>,
    hotspot: bool,
}

/// About 2k ops asleep on one hot node: the ready sweep and the
/// per-node wake fan-out dominate.
const HOTSPOT: XferCase = XferCase {
    nodes: 2048,
    words: 8,
    shards: None,
    hotspot: true,
};

/// Ops wake rarely: the substrate step and the shard merge dominate.
const PERMUTATION: XferCase = XferCase {
    nodes: 16384,
    words: 32,
    shards: Some(4),
    hotspot: false,
};

/// Samples the engine profiler's ring holds between flushes. The
/// traced run flushes after every pump, so one pump's samples must fit.
const PROFILE_RING: usize = 1 << 16;

fn xfer(case: &XferCase, seed: u64, threads: usize, traced: bool) -> Rep {
    let t0 = Instant::now();
    let trace: Option<TraceHandle> = traced.then(Rc::default);
    let mut m = match case.shards {
        Some(s) => machine(
            scenarios::cm5_sharded(case.nodes, s, threads, seed),
            CmamConfig::default(),
            trace.as_ref(),
        ),
        None => machine(
            scenarios::cm5_deterministic(case.nodes, seed),
            CmamConfig::default(),
            trace.as_ref(),
        ),
    };
    let pattern = if case.hotspot {
        Pattern::Hotspot
    } else {
        Pattern::RandomPermutation(seed)
    };
    let plan: Vec<(NodeId, NodeId, Vec<u32>)> = pattern
        .pairs(case.nodes)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            (
                src,
                dst,
                payloads::mixed(case.words, seed.wrapping_add(i as u64)),
            )
        })
        .collect();
    let mut eng = Engine::new();
    if traced {
        eng.enable_profiling(PROFILE_RING);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t_submit = Instant::now();
    let ids: Vec<_> = plan
        .iter()
        .map(|(src, dst, data)| {
            eng.submit_xfer(&m, *src, *dst, data)
                .expect("non-empty payload")
        })
        .collect();
    let submit_s = t_submit.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let start_cycle = m.network().borrow().now().cycles();
    if let Some(t) = &trace {
        t.borrow_mut().timeline.start(start_cycle);
        // `Engine::run` is this loop; flushing after every pump keeps
        // the profiler's ring from overwriting samples.
        while eng.unfinished() > 0 {
            eng.pump(&mut m);
            eng.profiler_mut().expect("profiling enabled").flush();
        }
    } else {
        eng.run(&mut m);
    }
    let run_s = t_run.elapsed().as_secs_f64();
    let cycles = m.network().borrow().now().cycles() - start_cycle;

    let t_verify = Instant::now();
    let mut failed = 0u64;
    for (id, (_, dst, data)) in ids.into_iter().zip(&plan) {
        let intact = match eng.take_outcome(id) {
            Some(Ok(OpOutcome::Xfer(o))) => m.read_buffer(*dst, o.dst_buffer, data.len()) == *data,
            _ => false,
        };
        if !intact {
            failed += 1;
        }
    }
    let verify_s = t_verify.elapsed().as_secs_f64();
    let wall_s = t_submit.elapsed().as_secs_f64();

    let c = *eng.counters();
    let delivered = m.network().borrow().stats().delivered;
    let cost = node_costs(&m, case.nodes);
    let mut signature = vec![
        c.steps,
        c.passes,
        c.quanta,
        c.advances,
        c.idle_jumps,
        c.timer_wakes,
        c.packet_wakes,
        cycles,
        delivered,
    ];
    signature.extend(by_feature(&cost));

    let mut layers = Layers::default();
    if traced {
        let p = eng.profiler_mut().expect("profiling enabled");
        let totals = p.totals();
        layers.profiler_samples = totals.iter().map(|t| t.samples).sum();
        layers.profiler_dropped = p.dropped();
        layers.phases = Some(totals.map(|t| t.total_ns));
        layers.counters = Some(c);
        drop(m);
        layers.net = trace.map(|t| Rc::try_unwrap(t).expect("machine dropped").into_inner());
        layers.wrapped_s = run_s;
    }
    layers.ops = plan.len() as u64;
    layers.delivered = delivered;
    layers.cost = by_feature(&cost);
    layers.cost_ops = plan.len() as u64;
    layers.spans = Spans {
        setup: setup_s,
        submit: submit_s,
        run: run_s,
        verify: verify_s,
    };
    Rep {
        setup_s,
        wall_s,
        attempted: plan.len() as u64,
        failed,
        signature,
        layers,
    }
}

// ---------------------------------------------------------------------
// serving_failover
// ---------------------------------------------------------------------

const SERVING_NODES: usize = 4096;
const SERVING_SHARDS: usize = 4;
const GATEWAYS: usize = 16;
const SERVERS: usize = 64;
const INTERACTIVE: (u64, usize) = (4, 10_000);
const BATCH: (u64, usize) = (8, 5_000);

fn serving_spec(seed: u64) -> ServiceSpec {
    let range = |lo: usize, count: usize| (lo..lo + count).map(NodeId::new).collect();
    // Interactive: hedged, and recovery-armed without a deadline, so
    // every admitted request settles and exactly-once stays checkable
    // across the crash.
    let interactive = QosClass {
        deadline: None,
        recovery: Some(timego_am::RecoveryPolicy::default()),
        ..QosClass::interactive(INTERACTIVE.0, INTERACTIVE.1, 1)
    };
    ServiceSpec {
        gateways: range(0, GATEWAYS),
        servers: range(GATEWAYS, SERVERS),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(4 * SERVERS),
        classes: vec![interactive, QosClass::batch(BATCH.0, BATCH.1)],
        detector: Some(DetectorSpec {
            period: 600,
            timeout: 500,
            threshold: 2,
        }),
        hedge: Some(HedgeSpec {
            quantile: 0.95,
            min_samples: 32,
            bootstrap: 2048,
        }),
        seed,
        ..ServiceSpec::default()
    }
}

/// The first server is dark for the middle half of the arrival span.
fn serving_fault() -> FaultConfig {
    let span = (INTERACTIVE.0 * INTERACTIVE.1 as u64).max(BATCH.0 * BATCH.1 as u64);
    FaultConfig {
        crashes: vec![CrashWindow {
            node: NodeId::new(GATEWAYS),
            start: span / 4 + 32,
            end: span * 3 / 4,
        }],
        ..FaultConfig::default()
    }
}

fn serving(seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    let trace: Option<TraceHandle> = traced.then(Rc::default);
    let net = scenarios::cm5_sharded_chaos(SERVING_NODES, SERVING_SHARDS, 1, serving_fault(), seed);
    let mut m = machine(net, CmamConfig::default(), trace.as_ref());
    let spec = serving_spec(seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let t = Instant::now();
    if let Some(tr) = &trace {
        tr.borrow_mut()
            .timeline
            .start(m.network().borrow().now().cycles());
    }
    let out = run_service(&mut m, &spec);
    let wall_s = t.elapsed().as_secs_f64();

    let t_verify = Instant::now();
    let offered: usize = out.classes.iter().map(|c| c.offered).sum();
    let admitted: usize = out.classes.iter().map(|c| c.admitted).sum();
    // Shed and failed requests count as failures; so does every
    // request of a class that breaks conservation, and the whole run
    // if it does not drain or runs a handler other than exactly once.
    let mut failed = 0usize;
    for c in &out.classes {
        let conserved = c.offered == c.admitted + c.shed && c.admitted == c.completed + c.failed;
        failed += if conserved {
            c.shed + c.failed
        } else {
            c.offered
        };
    }
    let runs: u64 = out.handler_runs.values().sum();
    if out.in_flight_at_end != 0 || runs != admitted as u64 {
        failed = offered;
    }
    let verify_s = t_verify.elapsed().as_secs_f64();

    let delivered = m.network().borrow().stats().delivered;
    drop(m);
    let bill = out
        .classes
        .iter()
        .fold(out.detector_bill.clone(), |acc, c| acc + c.bill.clone());
    let mut layers = Layers {
        net: trace.map(|t| Rc::try_unwrap(t).expect("machine dropped").into_inner()),
        delivered,
        cost: by_feature(&bill),
        cost_ops: out.classes.iter().map(|c| c.completed as u64).sum(),
        spans: Spans {
            setup: setup_s,
            run: wall_s,
            verify: verify_s,
            ..Spans::default()
        },
        wrapped_s: wall_s,
        ..Layers::default()
    };
    let signature = vec![out.signature()];
    layers.service = Some(out);
    Rep {
        setup_s,
        wall_s,
        attempted: offered as u64,
        failed: failed as u64,
        signature,
        layers,
    }
}
