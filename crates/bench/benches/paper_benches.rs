//! Wall-clock benches — one group per paper artifact, measuring the
//! cost of regenerating each table/figure's workload on the simulator
//! (the instruction-count *results* are deterministic and asserted by
//! the test suite; these benches track the simulator's own
//! performance).
//!
//! Dependency-free harness: each benchmark runs a warmup pass, then a
//! fixed number of timed iterations, and reports min/median/mean per
//! iteration. Run with `cargo bench -p timego-bench`. The medians are
//! also written to `BENCH_results.json` at the repository root
//! (merged with the concurrency report's cycle counts).

use std::hint::black_box;
use std::time::Instant;

use timego_am::{
    measure_hl_stream, measure_hl_xfer, measure_single_packet, measure_stream, measure_xfer,
    CmamConfig, Machine, RecoveryPolicy, StreamConfig,
};
use timego_bench::results::BenchResults;
use timego_netsim::{FaultConfig, Network, NodeId, Packet};
use timego_ni::share;
use timego_workloads::{payloads, scenarios, sweeps};

/// Harness state: prints one aligned line per benchmark and collects
/// each median for the JSON emission at exit.
struct Harness {
    results: BenchResults,
}

impl Harness {
    fn new() -> Self {
        Harness { results: BenchResults::new("bench/") }
    }

    /// Time `f` over `iters` iterations (after one warmup), print one
    /// aligned result line, and record the median.
    fn bench<R>(&mut self, name: &str, iters: u32, mut f: impl FnMut() -> R) {
        black_box(f()); // warmup
        let mut samples = Vec::with_capacity(iters as usize);
        let start = Instant::now();
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed().as_nanos());
        }
        let mean = start.elapsed().as_nanos() / u128::from(iters);
        samples.sort_unstable();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        println!(
            "{name:<44} {iters:>5} iters   min {:>10}   median {:>10}   mean {:>10}",
            ns(min),
            ns(median),
            ns(mean)
        );
        self.results.record_wall(name, median);
    }

    fn finish(&self) {
        let path = BenchResults::default_path();
        match self.results.write_merged(&path) {
            Ok(n) => println!("\nwrote {n} entries to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn ns(v: u128) -> String {
    if v >= 1_000_000 {
        format!("{:.2} ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.2} µs", v as f64 / 1e3)
    } else {
        format!("{v} ns")
    }
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn main() {
    let mut h = Harness::new();
    println!("== table1: single-packet delivery ==");
    h.bench("table1/single_packet_delivery", 200, measure_single_packet);

    println!("== table2/3: finite and indefinite sequences ==");
    for words in sweeps::TABLE_MESSAGE_SIZES {
        h.bench(&format!("table2/finite_sequence/{words}w"), 50, || {
            measure_xfer(words as usize, 4)
        });
        h.bench(&format!("table3/indefinite_sequence/{words}w"), 50, || {
            measure_stream(words as usize, 4, 1)
        });
    }

    println!("== figure6: high-level-network counterparts ==");
    for words in sweeps::TABLE_MESSAGE_SIZES {
        h.bench(&format!("figure6/hl_finite/{words}w"), 50, || {
            measure_hl_xfer(words as usize, 4)
        });
        h.bench(&format!("figure6/hl_indefinite/{words}w"), 50, || {
            measure_hl_stream(words as usize, 4)
        });
    }

    println!("== figure8: packet-size sweep (1024 words) ==");
    for pkt in sweeps::FIGURE8_PACKET_SIZES {
        h.bench(&format!("figure8/finite_1024w/pkt{pkt}"), 10, || {
            measure_xfer(1024, pkt as usize)
        });
        h.bench(&format!("figure8/indefinite_1024w/pkt{pkt}"), 10, || {
            measure_stream(1024, pkt as usize, 1)
        });
    }

    println!("== §3.2 ablation: group acknowledgements ==");
    for period in sweeps::GROUP_ACK_PERIODS {
        h.bench(&format!("group_acks/period{period}"), 10, || measure_stream(1024, 4, period));
    }

    println!("== ablation: ordering strategies (1024 words) ==");
    h.bench("ordering/offsets_finite", 10, || measure_xfer(1024, 4));
    h.bench("ordering/seqnums_indefinite", 10, || measure_stream(1024, 4, 1));

    println!("== substrate throughput (500 packets) ==");
    h.bench("substrate/fat_tree_adaptive", 10, || {
        let mut net = scenarios::cm5_adaptive(64, 7);
        let mut sent = 0u32;
        while sent < 500 {
            let s = (sent as usize * 5) % 64;
            let d = (s + 17) % 64;
            if net.try_inject(Packet::new(n(s), n(d), 1, sent, vec![0; 4])).is_ok() {
                sent += 1;
            }
            net.advance(1);
        }
        net.drain(1_000_000);
        net.stats().delivered
    });
    h.bench("substrate/cr", 10, || {
        let mut net = scenarios::cr(64, 7);
        let mut sent = 0u32;
        while sent < 500 {
            let s = (sent as usize * 5) % 64;
            let d = (s + 17) % 64;
            if net.try_inject(Packet::new(n(s), n(d), 1, sent, vec![0; 4])).is_ok() {
                sent += 1;
            }
            net.advance(1);
            let _ = net.try_receive(n(d));
        }
        net.drain(1_000_000);
        net.stats().delivered
    });

    println!("== fault recovery (512 words, 2% loss) ==");
    let data = payloads::mixed(512, 13);
    h.bench("recovery/cmam_stream", 10, || {
        let mut m =
            Machine::new(share(scenarios::cm5_lossy(4, 0.02, 31)), 4, CmamConfig::default());
        let id = m.open_stream(
            n(0),
            n(1),
            StreamConfig { rto_iterations: 128, ..StreamConfig::default() },
        );
        m.stream_send(id, &data).expect("recovers");
        m.stream_received(id).len()
    });
    h.bench("recovery/hl_stream", 10, || {
        let mut m = Machine::new(share(scenarios::cr_lossy(2, 0.02, 31)), 2, CmamConfig::default());
        m.hl_stream_send(n(0), n(1), &data).expect("hardware recovers").len()
    });
    h.bench("recovery/xfer_reliable_5pct_drop", 10, || {
        let fault = FaultConfig { drop_prob: 0.05, ..FaultConfig::default() };
        let mut m =
            Machine::new(share(scenarios::cm5_chaos(4, fault, 31)), 4, CmamConfig::default());
        let out =
            m.xfer_reliable(n(0), n(1), &data, &RecoveryPolicy::retransmit()).expect("recovers");
        out.data_retransmits
    });
    h.bench("recovery/rpc_retrying_5pct_drop", 10, || {
        let fault = FaultConfig { drop_prob: 0.05, ..FaultConfig::default() };
        let mut m =
            Machine::new(share(scenarios::cm5_chaos(4, fault, 31)), 4, CmamConfig::default());
        m.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
        let mut acc = 0u32;
        for v in 0..16u32 {
            acc += m
                .rpc_call(n(0), n(1), 40, [v, 0, 0, 0], Some(&RecoveryPolicy::retransmit()))
                .expect("recovers")[0];
        }
        acc
    });

    println!("== application kernels ==");
    {
        use timego_workloads::apps::{collectives, halo, sort};
        let halo_data: Vec<u32> = payloads::mixed(256, 3).iter().map(|w| w % 1000).collect();
        h.bench("apps/halo_exchange_4n_256w_3iters", 10, || {
            let mut m =
                Machine::new(share(scenarios::table_in_order(4)), 4, CmamConfig::default());
            halo::run(&mut m, &halo_data, 3, 2).expect("completes")
        });
        let sort_data = payloads::random(256, 11);
        h.bench("apps/odd_even_sort_4n_256w", 10, || {
            let mut m =
                Machine::new(share(scenarios::table_in_order(4)), 4, CmamConfig::default());
            sort::run(&mut m, &sort_data).expect("completes")
        });
        let inputs: Vec<u32> = (1..=8).collect();
        h.bench("apps/allreduce_8n", 10, || {
            let mut m =
                Machine::new(share(scenarios::table_in_order(8)), 8, CmamConfig::default());
            collectives::allreduce_sum(&mut m, &inputs, None).expect("completes")
        });
    }

    println!("== wormhole: deadlock resolution under CR ==");
    h.bench("wormhole/cr_resolves_torus_cycle", 10, || {
        let mut net = scenarios::wormhole_torus_cr(4, 1, 0.0, 3);
        for s in 0..4usize {
            let d = (s + 2) % 4;
            net.try_inject(Packet::new(n(s), n(d), 1, 0, vec![7; 8]))
                .expect("first channels free");
        }
        assert!(net.drain_extracting(50_000));
        net.kills()
    });

    h.finish();
}
