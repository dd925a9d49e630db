//! Scheduler equivalence soak: the readiness-driven event scheduler
//! must be observationally identical to the retained reference
//! round-robin stepper.
//!
//! For every substrate {switched, wormhole, dual, sharded} × variant {clean,
//! dup+jitter, crash window, supervised} × 6 seeds, the same mixed
//! workload (reliable transfers with engine-native recovery, a stream
//! burst, retried RPCs, an am4 run-after chain) is driven to completion
//! twice
//! — once under [`SchedMode::EventDriven`], once under
//! [`SchedMode::ReferenceRoundRobin`] — on identically-seeded machines,
//! and the runs must agree on:
//!
//! * the **full scheduler trace** ([`TracedEvent`] sequence, stamps
//!   included) — same progress interleaving at the same cycles;
//! * the **per-node, per-feature instruction bills** — sleeping is
//!   cost-free, so skipping idle steps must not move a single count;
//! * the **per-class bills** of the class plane;
//! * every operation's **outcome** (payloads, retransmit tallies,
//!   errors);
//! * while the event scheduler takes **no more op steps** than the
//!   reference — and strictly fewer in aggregate, or the readiness
//!   machinery isn't doing anything.
//!
//! Each cell's event-mode fingerprint is also folded into a 64-bit
//! signature and pinned against [`GOLDEN`]: both modes share the
//! submission path, so mode equivalence alone cannot catch a change
//! there that moves both runs the same way.

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, EngineEvent, Machine, Op, OpId, RecoveryPolicy, SchedMode,
    StreamConfig, Tags, TracedEvent,
};
use timego_cost::{CostVector, Feature};
use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, NodeId, Torus2D, VcDiscipline, WormholeConfig,
    WormholeNetwork,
};
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const NODES: usize = 16;
const SEEDS: u64 = 6;
/// `supervised` runs clean faults but tags the reliable transfers with
/// classes and gives transfer B a deadline it cannot meet.
const VARIANTS: [&str; 4] = ["clean", "dup+jitter", "crash", "supervised"];
const SUBSTRATES: [&str; 4] = ["switched", "wormhole", "dual", "sharded"];

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn machine(sub: &str, fault: &FaultConfig, seed: u64) -> Machine {
    match sub {
        "switched" => Machine::new(
            share(scenarios::cm5_chaos(NODES, fault.clone(), seed)),
            NODES,
            CmamConfig::default(),
        ),
        "wormhole" => Machine::new(
            share(WormholeNetwork::new(
                Torus2D::new(4, 4),
                WormholeConfig {
                    virtual_channels: 2,
                    discipline: VcDiscipline::Dateline,
                    fault: fault.clone(),
                    seed,
                    ..WormholeConfig::default()
                },
            )),
            NODES,
            CmamConfig::default(),
        ),
        "dual" => Machine::new(
            share(DualNetwork::new(
                scenarios::cm5_chaos(NODES, fault.clone(), seed),
                scenarios::cm5_chaos(NODES, fault.clone(), seed ^ 0x9e37),
                Tags::RPC_REPLY,
            )),
            NODES,
            CmamConfig::default(),
        ),
        // 4 shards of 4 nodes: transfer A (2 → 9) and its crash window
        // cross a shard boundary.
        "sharded" => Machine::new(
            share(scenarios::cm5_sharded_chaos(NODES, 4, 1, fault.clone(), seed)),
            NODES,
            CmamConfig::default(),
        ),
        other => panic!("unknown substrate {other}"),
    }
}

fn fault_variant(name: &str) -> FaultConfig {
    match name {
        "clean" | "supervised" => FaultConfig::default(),
        "dup+jitter" => {
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
        }
        // One endpoint of the first transfer crashes while it is in
        // flight and restarts; engine-native recovery re-executes across
        // it. Every op of a clean cell has settled by cycle 63, so the
        // window must open early to hit live traffic.
        "crash" => FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 20, end: 100 }],
            ..FaultConfig::default()
        },
        other => panic!("unknown fault variant {other}"),
    }
}

/// Per-node, per-feature instruction totals.
fn feature_matrix(m: &Machine, nodes: usize) -> Vec<Vec<u64>> {
    (0..nodes)
        .map(|i| Feature::ALL.iter().map(|&f| m.cpu(n(i)).snapshot().feature_total(f)).collect())
        .collect()
}

struct Fingerprint {
    trace: Vec<TracedEvent>,
    bills: Vec<Vec<u64>>,
    outcomes: Vec<(OpId, String)>,
    steps: u64,
    class_bills: Vec<(u8, CostVector)>,
}

impl Fingerprint {
    /// FNV-1a word fold of the trace, bills, outcomes, step count and
    /// class bills — the same fold as `ServiceOutcome::signature`. An
    /// untagged run has no class bills, so they add nothing to its fold.
    fn signature(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for e in &self.trace {
            fold(e.at);
            let (code, id) = match e.event {
                EngineEvent::Submitted(id) => (0, id),
                EngineEvent::Released(id) => (1, id),
                EngineEvent::Started(id) => (2, id),
                EngineEvent::Progressed(id) => (3, id),
                EngineEvent::Completed(id, false) => (4, id),
                EngineEvent::Completed(id, true) => (5, id),
                EngineEvent::Recovering(id) => (6, id),
                EngineEvent::Cancelled(id) => (7, id),
            };
            fold(code);
            fold(id.raw());
        }
        for v in self.bills.iter().flatten() {
            fold(*v);
        }
        for (id, outcome) in &self.outcomes {
            fold(id.raw());
            for b in outcome.bytes() {
                fold(u64::from(b));
            }
        }
        fold(self.steps);
        for (class, bill) in &self.class_bills {
            fold(u64::from(*class));
            for f in Feature::ALL {
                fold(bill.feature_total(f));
            }
        }
        h
    }
}

/// Event-mode [`Fingerprint::signature`] of every soak cell, indexed
/// `[substrate][variant][seed]` in the order the soak walks them.
const GOLDEN: [[[u64; SEEDS as usize]; VARIANTS.len()]; SUBSTRATES.len()] = [
    // switched
    [
        [
            0xfaf7_9427_89ca_3dcb, 0xa8c1_da45_507e_a807, 0xce2c_2cee_4faa_71ab,
            0x08b8_7af7_7d2e_4a47, 0x9f43_d56c_1415_25e3, 0x188f_7f2b_9b6e_dd39,
        ],
        [
            0x64c0_acd6_3369_02c5, 0xc0fe_c25e_9dfa_2bb2, 0x290a_3574_e213_c065,
            0x4b55_f7f3_1342_f337, 0x0d69_693e_bf75_1ca0, 0xdaee_96a8_d6b3_c5eb,
        ],
        [
            0x0385_deef_7783_6f64, 0x8e7f_d873_b8c3_a1b0, 0x1c41_f8e0_0edb_f472,
            0xdb8c_3331_6c21_fe14, 0x28a7_df0b_a433_47e4, 0x9789_e5e9_62c6_6604,
        ],
        [
            0xddcc_9f85_26a3_3b39, 0x4979_70a3_86a5_8573, 0x1c0d_87ae_dd6e_bd9e,
            0x9dae_0bf5_da36_7121, 0xe0ed_97d0_3d3e_c35f, 0xa1d4_b118_af78_316d,
        ],
    ],
    // wormhole
    [
        [
            0xf1ce_ad1f_10ad_006f, 0x160b_5ff8_f477_b29f, 0xc246_c825_9fed_60af,
            0x6763_c7c7_db69_e67f, 0x350f_38c4_e781_f2ef, 0xdd30_d932_4590_152f,
        ],
        [
            0xc69c_8be8_beaf_85f1, 0xbe96_858b_3aa0_a980, 0x45e2_1a4d_5f3f_4772,
            0xd06b_d7d3_2455_9128, 0xd806_aa46_1f18_a4b1, 0x4e1d_6885_3f82_01d2,
        ],
        [
            0x650b_f8cb_20b7_6b02, 0xc523_14b3_8b53_7ab2, 0x4ebe_d454_f8b2_89e2,
            0x32f3_4f20_74f1_e3b2, 0x0eed_5288_5cc0_9582, 0x38ad_0fab_05ac_48d2,
        ],
        [
            0xd9aa_3dd5_8ab3_b387, 0x7c93_dd9b_e3eb_d3b7, 0x55f1_7cb8_f647_e667,
            0x65fa_006d_2574_19f7, 0x1b6e_4173_d7fa_b8f7, 0x820a_7e9e_8f8f_5e37,
        ],
    ],
    // dual
    [
        [
            0x46a1_2a53_2a14_157b, 0x4435_3b44_8365_8939, 0x1553_d8a5_4f08_e1dd,
            0x05a8_3044_dcc1_687b, 0x23c1_e89c_1ae5_0781, 0x3038_ee7e_9162_7533,
        ],
        [
            0xc8e4_ab19_c44e_ace5, 0xe4da_8e6b_5bd4_99cd, 0x744a_cce6_5423_8445,
            0x02c9_e65e_310c_a05e, 0xbdf8_4c99_8ca8_a191, 0x8f63_e64b_f451_0c8d,
        ],
        [
            0x143b_00db_d090_1d78, 0x0f47_1144_22d6_35c4, 0xcaed_b342_1955_94ea,
            0xc6e8_67c5_f21c_9f88, 0xc3e7_98a9_9eb3_ce50, 0xbf6d_379f_2c02_1184,
        ],
        [
            0x1f40_74f5_d729_a059, 0x5ade_f9d3_af23_964d, 0x8461_b9f4_165b_8c7f,
            0x776e_0023_96a2_fe50, 0x984f_cb8b_ee1a_26ad, 0xcc14_4a8b_ed15_d8af,
        ],
    ],
    // sharded
    [
        [
            0xd016_1464_7be5_43cc, 0xa309_4292_d5c1_6e1c, 0x956b_b393_f8be_bd8c,
            0x5811_37ab_9f76_873c, 0xe1c7_972d_4ac6_5ecc, 0x427e_52e9_cc89_318c,
        ],
        [
            0x6cca_5dc6_2fdf_2aac, 0xf0c3_ae0d_bf24_60a8, 0x4e02_938a_ad29_74fb,
            0xec1c_063a_3aea_a290, 0x328b_c4d1_5890_5953, 0x3dda_fd69_ad95_8b76,
        ],
        [
            0x45f7_1fea_b0a9_2c15, 0x1b60_b683_b9fe_73e5, 0x757f_04e4_2168_cbd5,
            0xff81_ede9_9fff_a105, 0xedd2_6339_6c40_a355, 0xdbad_f0f4_31cb_9b85,
        ],
        [
            0x3a04_0b05_f9f9_bef5, 0x708f_2f7b_ed5a_f3b5, 0x97ce_2b10_9159_9eb5,
            0x1055_8e3d_d7f4_cfc5, 0x7250_9abc_53e2_c575, 0x80c2_5520_3fec_9a85,
        ],
    ],
];

/// Drive the mixed workload to completion under `mode` and capture
/// everything observable about the run.
fn run_one(mode: SchedMode, sub: &str, variant: &str, seed: u64) -> Fingerprint {
    let mut m = machine(sub, &fault_variant(variant), seed);
    let calls = Rc::new(RefCell::new(0u32));
    let counter = calls.clone();
    m.register_rpc_handler(n(1), 40, move |_, msg| {
        *counter.borrow_mut() += 1;
        [msg.words[0].wrapping_mul(3), 0, 0, 0]
    });

    let mut eng = Engine::with_mode(mode);
    let policy = RecoveryPolicy::retransmit();
    let recovery = RecoveryPolicy::default();
    let mut ids: Vec<OpId> = Vec::new();

    // Two recovery-armed reliable transfers on disjoint pairs; the
    // crash variant fells node 9 mid-flight, so transfer A re-executes.
    // The supervised variant bills each to its own class and expires
    // transfer B's deadline, so it re-executes too.
    for (i, (s, d)) in [(2usize, 9usize), (4, 11)].into_iter().enumerate() {
        let data = payloads::mixed(24 + 8 * i, seed + i as u64);
        let mut op = Op::reliable(n(s), n(d), &data, &policy).recovering(&recovery);
        if variant == "supervised" {
            op = op.class(i as u8);
            if i == 1 {
                op = op.deadline(30);
            }
        }
        ids.push(eng.submit(&m, op).expect("valid transfer"));
    }
    // A stream burst with its own RTO machinery.
    let sid = m.open_stream(n(0), n(2), StreamConfig { rto_iterations: 256, ..StreamConfig::default() });
    ids.push(
        eng.submit(&m, Op::stream(sid, &payloads::mixed(20, seed.wrapping_add(55))))
            .expect("valid stream"),
    );
    // Two retried RPCs against one server.
    for v in 0..2u32 {
        let call = Op::rpc(n(3 + 2 * v as usize), n(1), 40, [v, 0, 0, 0], Some(&policy));
        ids.push(eng.submit(&m, call).expect("valid rpc"));
    }
    // An am4 run-after chain: the second hop releases only when the
    // first delivers.
    let hop = eng.submit(&m, Op::am4(n(6), n(7), 50, [seed as u32, 1, 2, 3])).expect("valid am4");
    ids.push(hop);
    ids.push(
        eng.submit(&m, Op::am4(n(7), n(8), 50, [seed as u32, 4, 5, 6]).after(&[hop]))
            .expect("valid am4 chain"),
    );

    eng.run(&mut m);
    assert_eq!(eng.unfinished(), 0, "{sub}/seed {seed}: run must settle everything");

    let trace = eng.trace().to_vec();
    let bills = feature_matrix(&m, NODES);
    let outcomes = ids
        .iter()
        .map(|&id| (id, format!("{:?}", eng.take_outcome(id).expect("finished"))))
        .collect();
    let class_bills = eng.class_bills();
    Fingerprint { trace, bills, outcomes, steps: eng.counters().steps, class_bills }
}

#[test]
fn event_scheduler_is_trace_and_bill_identical_to_reference() {
    let mut ref_steps = 0u64;
    let mut evt_steps = 0u64;
    let mut signatures = [[[0u64; SEEDS as usize]; VARIANTS.len()]; SUBSTRATES.len()];
    for (si, sub) in SUBSTRATES.into_iter().enumerate() {
        for (vi, variant) in VARIANTS.into_iter().enumerate() {
            for seed in 0..SEEDS {
                let evt = run_one(SchedMode::EventDriven, sub, variant, seed);
                let rr = run_one(SchedMode::ReferenceRoundRobin, sub, variant, seed);
                let ctx = format!("{sub}/{variant}/seed {seed}");
                if evt.trace != rr.trace {
                    let at = evt
                        .trace
                        .iter()
                        .zip(rr.trace.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| evt.trace.len().min(rr.trace.len()));
                    let window = |t: &[TracedEvent]| {
                        t[at.saturating_sub(3)..(at + 4).min(t.len())].to_vec()
                    };
                    panic!(
                        "{ctx}: traces diverge at entry {at} (event {} entries, reference {}):\n  event: {:?}\n  reference: {:?}",
                        evt.trace.len(),
                        rr.trace.len(),
                        window(&evt.trace),
                        window(&rr.trace),
                    );
                }
                assert_eq!(
                    evt.bills, rr.bills,
                    "{ctx}: per-feature bills must match node by node"
                );
                assert_eq!(evt.outcomes, rr.outcomes, "{ctx}: outcomes must match");
                assert_eq!(evt.class_bills, rr.class_bills, "{ctx}: class bills must match");
                assert!(
                    evt.steps <= rr.steps,
                    "{ctx}: event scheduler took more steps ({} > {})",
                    evt.steps,
                    rr.steps
                );
                if variant == "crash" || variant == "supervised" {
                    assert!(
                        evt.trace.iter().any(|e| matches!(e.event, EngineEvent::Recovering(_))),
                        "{ctx}: the crash window or the deadline must force a recovery"
                    );
                }
                ref_steps += rr.steps;
                evt_steps += evt.steps;
                signatures[si][vi][seed as usize] = evt.signature();
            }
        }
    }
    assert_eq!(
        signatures, GOLDEN,
        "soak signatures moved: a submission or scheduling change altered a trace, bill, \
         outcome or step count (computed {signatures:#018x?})"
    );
    assert!(
        evt_steps < ref_steps,
        "event scheduler must skip idle steps somewhere (event {evt_steps} vs reference {ref_steps})"
    );
}

/// The default engine is the event scheduler — the whole test suite
/// re-pins equivalence implicitly, but make the default explicit here.
#[test]
fn default_engine_mode_is_event_driven() {
    assert_eq!(Engine::new().mode(), SchedMode::EventDriven);
}
