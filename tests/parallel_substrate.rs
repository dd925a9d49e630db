//! Determinism properties of the sharded substrate, below the
//! scheduler: for a fixed shard layout, every observable — wake
//! sequences (`take_delivered` merge order), receive streams, aggregate
//! `NetStats` totals, restart counters, and final clocks — is pinned
//! under clean, dup+jitter, and crash-window fault variants, on both
//! the bare sharded substrate and a `DualNetwork` built from two
//! sharded sides.
//!
//! The pins were computed when the substrate still had a worker pool,
//! at 1 thread, and matched its 2- and 4-thread runs; the pool is gone,
//! and the pins hold the result the thread-invariance checks compared.
//!
//! The scheduler-level counterpart (traces/bills/outcomes) lives in
//! `sched_equivalence.rs`; this file pins the network layer directly so
//! a divergence is caught at its source.

use timego_netsim::{CrashWindow, DualNetwork, FaultConfig, Network, NodeId, Packet};
use timego_workloads::scenarios;

const NODES: usize = 16;
const SHARDS: usize = 4;
const SEEDS: u64 = 4;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn fault_variant(name: &str) -> FaultConfig {
    match name {
        "clean" => FaultConfig::default(),
        "dup+jitter" => {
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
        }
        "crash" => FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 80, end: 220 }],
            ..FaultConfig::default()
        },
        other => panic!("unknown fault variant {other}"),
    }
}

/// Everything observable about one scripted run of a substrate.
#[derive(Debug, PartialEq)]
struct Observation {
    /// Wake sets per advance, in taken order.
    wakes: Vec<Vec<NodeId>>,
    /// Every received packet: (receiver, src, header, pair_seq).
    rx: Vec<(usize, usize, u32, Option<u64>)>,
    injected: u64,
    delivered: u64,
    duplicated: u64,
    dropped_corrupt: u64,
    backpressure: u64,
    crash_drops: u64,
    latency_count: u64,
    restarts: Vec<u32>,
    final_cycles: u64,
}

impl Observation {
    /// FNV-1a word fold of every field — the same fold as
    /// `ServiceOutcome::signature`. Sequences fold their length first,
    /// so a wake moving between advances moves the signature.
    fn signature(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(self.wakes.len() as u64);
        for set in &self.wakes {
            fold(set.len() as u64);
            for w in set {
                fold(w.index() as u64);
            }
        }
        fold(self.rx.len() as u64);
        for &(at, src, header, seq) in &self.rx {
            fold(at as u64);
            fold(src as u64);
            fold(u64::from(header));
            fold(seq.unwrap_or(u64::MAX));
        }
        for v in [
            self.injected,
            self.delivered,
            self.duplicated,
            self.dropped_corrupt,
            self.backpressure,
            self.crash_drops,
            self.latency_count,
        ] {
            fold(v);
        }
        for &r in &self.restarts {
            fold(u64::from(r));
        }
        fold(self.final_cycles);
        h
    }
}

const VARIANTS: [&str; 3] = ["clean", "dup+jitter", "crash"];

/// [`Observation::signature`] of the bare 4-shard substrate, indexed
/// `[variant][seed]`.
const SHARDED: [[u64; SEEDS as usize]; VARIANTS.len()] = [
    [0xc513_6328_2f28_2497, 0x82fe_ed29_b563_1933, 0x9915_1a12_9129_f14d, 0xe092_63a1_7190_c388],
    [0x1cf1_c140_d67c_e3e4, 0x556f_a329_7488_2c76, 0xd9c6_e481_9ddc_b923, 0x0abd_5cab_c885_c01a],
    [0x3587_0d31_a527_35a4, 0x9e72_1f8a_ef37_f6a0, 0x65a1_7a3f_1efe_90b4, 0xa057_50cc_d694_c45d],
];

/// [`Observation::signature`] of a `DualNetwork` over two 4-shard
/// sides, indexed `[variant][seed]`.
const DUAL_OF_SHARDED: [[u64; SEEDS as usize]; VARIANTS.len()] = [
    [0x8c4b_7777_aeba_eea7, 0x243c_4916_20b4_2e13, 0xe0e2_f74d_0a20_4d4d, 0x7592_3108_2212_10a8],
    [0xf5d9_b6da_24b4_0b9b, 0x6625_87dc_1986_5d3b, 0x91aa_0982_9192_339e, 0x0c34_fe57_c393_4d00],
    [0x0902_2e68_71fc_d398, 0x0cfc_1df1_33fa_7a7d, 0x3bdb_a873_9602_05e0, 0x1235_ec33_2bb2_6521],
];

/// Drive a fixed inject/advance/receive script: a rotating all-pairs
/// mix (intra- and cross-shard), uneven advances, receives drained in
/// node order. Only the substrate under test varies.
fn observe(net: &mut dyn Network, seed: u64) -> Observation {
    let mut wakes = Vec::new();
    let mut rx = Vec::new();
    for s in 0..240u32 {
        let src = (s as usize).wrapping_mul(7).wrapping_add(seed as usize) % NODES;
        let dst = (src + 1 + (s as usize) % (NODES - 1)) % NODES;
        // Alternating tags so a DualNetwork under test exercises both
        // sides (reply_tag_min = 2 routes the odd injections).
        let tag = if s % 2 == 0 { 1 } else { 3 };
        let _ = net.try_inject(Packet::new(n(src), n(dst), tag, s, vec![s; 3]));
        net.advance(1 + (s as u64) % 3);
        wakes.push(net.take_delivered());
        for i in 0..NODES {
            while let Some(p) = net.try_receive(n(i)) {
                rx.push((i, p.src().index(), p.header(), p.pair_seq()));
            }
        }
    }
    net.drain(20_000);
    for i in 0..NODES {
        while let Some(p) = net.try_receive(n(i)) {
            rx.push((i, p.src().index(), p.header(), p.pair_seq()));
        }
    }
    let st = net.stats().clone();
    Observation {
        wakes,
        rx,
        injected: st.injected,
        delivered: st.delivered,
        duplicated: st.duplicated,
        dropped_corrupt: st.dropped_corrupt,
        backpressure: st.backpressure,
        crash_drops: st.crash_drops,
        latency_count: st.latency.count(),
        restarts: (0..NODES).map(|i| net.restarts(n(i))).collect(),
        final_cycles: net.now().cycles(),
    }
}

/// [`Observation::signature`] of every variant × seed cell on the
/// substrate `build` makes.
fn signatures(
    build: impl Fn(FaultConfig, u64) -> Box<dyn Network>,
) -> [[u64; SEEDS as usize]; VARIANTS.len()] {
    let mut out = [[0u64; SEEDS as usize]; VARIANTS.len()];
    for (vi, variant) in VARIANTS.into_iter().enumerate() {
        for seed in 0..SEEDS {
            let mut net = build(fault_variant(variant), seed);
            out[vi][seed as usize] = observe(net.as_mut(), seed).signature();
        }
    }
    out
}

#[test]
fn sharded_substrate_is_thread_invariant() {
    let got = signatures(|fault, seed| {
        Box::new(scenarios::cm5_sharded_chaos(NODES, SHARDS, 1, fault, seed))
    });
    assert_eq!(got, SHARDED, "sharded observations moved (computed {got:#018x?})");
}

#[test]
fn dual_of_sharded_sides_is_thread_invariant() {
    // Tags >= 2 (half the script's traffic) ride the second sharded side.
    let got = signatures(|fault, seed| {
        Box::new(DualNetwork::new(
            scenarios::cm5_sharded_chaos(NODES, SHARDS, 1, fault.clone(), seed),
            scenarios::cm5_sharded_chaos(NODES, SHARDS, 1, fault, seed ^ 0x9e37),
            2,
        ))
    });
    assert_eq!(got, DUAL_OF_SHARDED, "dual-of-sharded observations moved (computed {got:#018x?})");
}

/// One shard is *definitionally* the unsharded substrate: same seed,
/// same ids, same wake order, byte for byte — under faults too.
#[test]
fn single_shard_matches_flat_switched_under_faults() {
    for variant in VARIANTS {
        let fault = fault_variant(variant);
        for seed in 0..SEEDS {
            let mut flat = scenarios::cm5_chaos(NODES, fault.clone(), seed);
            let mut one = scenarios::cm5_sharded_chaos(NODES, 1, 1, fault.clone(), seed);
            assert_eq!(
                observe(&mut flat, seed),
                observe(&mut one, seed),
                "flat-vs-1-shard/{variant}/seed {seed}"
            );
        }
    }
}

/// The wake merge must come out in ascending global node-id order for
/// multi-shard layouts, independent of which shard delivered first.
#[test]
fn wake_merge_order_is_ascending_node_ids() {
    let mut net = scenarios::cm5_sharded_chaos(NODES, SHARDS, 1, fault_variant("dup+jitter"), 7);
    let mut merged = 0;
    for s in 0..120u32 {
        let src = (s as usize) % NODES;
        let dst = (src + 5) % NODES;
        let _ = net.try_inject(Packet::new(n(src), n(dst), 1, s, vec![s]));
        net.advance(2);
        let wakes = net.take_delivered();
        let mut sorted = wakes.clone();
        sorted.sort_unstable_by_key(|w| w.index());
        assert_eq!(wakes, sorted, "wake set not in node-id order");
        if wakes.iter().any(|w| net.shard_of(*w) != net.shard_of(wakes[0])) {
            merged += 1;
        }
        for i in 0..NODES {
            while net.try_receive(n(i)).is_some() {}
        }
    }
    println!("{merged} wake sets merged more than one shard");
    assert!(merged > 0, "the script must merge wakes across shards");
}
