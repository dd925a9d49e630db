//! Scheduler scaling report: the readiness-driven event scheduler vs
//! the reference round-robin stepper, swept across node counts on
//! permutation and hotspot traffic.
//!
//! For every `(pattern, nodes)` cell the same plain-transfer plan is
//! driven to completion once per [`SchedMode`] on identically-seeded
//! machines, recording:
//!
//! * op `step()` invocations per mode and their ratio — the refactor's
//!   acceptance metric (sleeping ops are skipped, so the ratio grows
//!   with scale);
//! * wall time and delivered packets per second per mode;
//! * the event scheduler's self-profiled phase shares (ready-queue
//!   sweep, op steps, wheel/wake absorption, substrate stepping);
//! * wake/jump counters (timer wakes, packet wakes, idle clock-jumps).
//!
//! A second, *parallel* report drives the same permutation plan over
//! the flat substrate and the sharded substrate (`ShardedNetwork`, 4
//! shards), recording packets/sec, the substrate-step phase share,
//! elapsed cycles, and the wall ratio against the flat run under
//! `sched/parallel/`. The shard count is a model parameter: the two
//! rows simulate different machines (boundary queues replace tree
//! hops), so the wall ratio compares two models, not two ways of
//! running one, and the report prints both cycle counts beside it.
//!
//! Everything lands in `BENCH_results.json` under `sched/`. Flags:
//!
//! * `--quick`: cap the sweep at 1024 nodes (CI-friendly);
//! * `--perf-smoke`: run only the 1024-node permutation cell in event
//!   mode and fail (exit 1) if its deterministic step count regresses
//!   more than 2x against the committed baseline.

use std::time::Instant;

use timego_am::{Engine, Machine, SchedMode, SchedPhase};
use timego_bench::results::BenchResults;
use timego_ni::{share, SharedNetwork};
use timego_workloads::concurrent::{PlannedOp, TrafficKind};
use timego_workloads::{patterns::Pattern, payloads, scenarios};

const SEED: u64 = 42;
const WORDS: usize = 8;

/// Committed perf-smoke baseline: deterministic event-mode step count
/// for the 1024-node permutation cell. Regenerate by running
/// `sched --perf-smoke` and copying the printed value after an
/// *intentional* scheduler change.
const BASELINE_1024_PERM_STEPS: u64 = 23_242;

struct RunStats {
    steps: u64,
    timer_wakes: u64,
    packet_wakes: u64,
    idle_jumps: u64,
    jumped_cycles: u64,
    elapsed_cycles: u64,
    delivered: u64,
    wall_ns: u128,
    /// (phase name, total ns) for the event scheduler's profiled phases.
    phases: Vec<(&'static str, u64)>,
}

fn plan_for(pattern: Pattern, nodes: usize) -> Vec<PlannedOp> {
    pattern
        .pairs(nodes)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| PlannedOp {
            kind: TrafficKind::Xfer,
            src,
            dst,
            data: payloads::mixed(WORDS, SEED.wrapping_add(i as u64)),
        })
        .collect()
}

/// Run `plan` to completion under `mode`. Self-profiling costs two
/// clock reads per op step, which distorts wall time on hosts where
/// `Instant::now` is a real syscall — so wall/throughput numbers come
/// from an unprofiled run and phase shares from a separate profiled
/// one (step counts are deterministic and identical across both).
fn drive(mode: SchedMode, plan: &[PlannedOp], nodes: usize, profile: bool) -> RunStats {
    drive_net(share(scenarios::cm5_deterministic(nodes, SEED)), mode, plan, nodes, profile)
}

fn drive_net(
    net: SharedNetwork,
    mode: SchedMode,
    plan: &[PlannedOp],
    nodes: usize,
    profile: bool,
) -> RunStats {
    let mut m = Machine::new(net, nodes, timego_am::CmamConfig::default());
    let mut eng = Engine::with_mode(mode);
    if profile {
        eng.enable_profiling(1 << 16);
    }
    let ids: Vec<_> = plan
        .iter()
        .map(|op| eng.submit_xfer(&m, op.src, op.dst, &op.data).expect("valid plan"))
        .collect();

    let start_cycles = m.network().borrow().now().cycles();
    let wall = Instant::now();
    eng.run(&mut m);
    let wall_ns = wall.elapsed().as_nanos();
    let elapsed_cycles = m.network().borrow().now().cycles() - start_cycles;

    for id in ids {
        eng.take_outcome(id)
            .expect("engine ran to completion")
            .expect("clean substrate: every transfer completes");
    }

    let c = *eng.counters();
    let phases = match eng.profiler_mut() {
        Some(p) => {
            p.flush();
            SchedPhase::ALL
                .iter()
                .zip(p.totals())
                .map(|(ph, t)| (ph.name(), t.total_ns))
                .collect()
        }
        None => Vec::new(),
    };
    let delivered = m.network().borrow().stats().delivered;
    RunStats {
        steps: c.steps,
        timer_wakes: c.timer_wakes,
        packet_wakes: c.packet_wakes,
        idle_jumps: c.idle_jumps,
        jumped_cycles: c.jumped_cycles,
        elapsed_cycles,
        delivered,
        wall_ns,
        phases,
    }
}

fn pkts_per_sec(s: &RunStats) -> u64 {
    (s.delivered as u128 * 1_000_000_000)
        .checked_div(s.wall_ns)
        .unwrap_or(0) as u64
}

fn perf_smoke() -> i32 {
    let plan = plan_for(Pattern::RandomPermutation(SEED), 1024);
    let evt = drive(SchedMode::EventDriven, &plan, 1024, false);
    println!(
        "perf-smoke: 1024-node permutation event steps = {} (baseline {})",
        evt.steps, BASELINE_1024_PERM_STEPS
    );
    if evt.steps > 2 * BASELINE_1024_PERM_STEPS {
        eprintln!(
            "perf-smoke FAILED: step count regressed more than 2x ({} > 2*{})",
            evt.steps, BASELINE_1024_PERM_STEPS
        );
        return 1;
    }
    println!("perf-smoke OK");
    0
}

/// Find the share recorded for `name` in a profiled run's phase list.
fn phase_share_milli(phases: &[(&'static str, u64)], name: &str) -> u64 {
    let total: u64 = phases.iter().map(|&(_, ns)| ns).sum();
    phases
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, ns)| (ns * 1000).checked_div(total).unwrap_or(0))
        .unwrap_or(0)
}

const PARALLEL_SHARDS: usize = 4;

/// The shard report: the permutation plan on the flat substrate vs the
/// 4-shard substrate. Sharding changes the simulated machine, so the
/// report prints both elapsed-cycle counts next to the wall ratio.
fn parallel_report(res: &mut BenchResults, quick: bool) {
    let node_counts: &[usize] = if quick { &[1024] } else { &[4096, 8192, 16384] };
    println!(
        "\n{:<26} {:>10} {:>10} {:>8} {:>9} {:>10}",
        "parallel cell", "evt steps", "pkt/s", "cycles", "wall/flat", "substrate"
    );
    for &nodes in node_counts {
        let plan = plan_for(Pattern::RandomPermutation(SEED), nodes);
        let cell = |tail: &str| format!("parallel/perm/n{nodes}/{tail}");

        let flat = drive(SchedMode::EventDriven, &plan, nodes, false);
        let flat_prof = drive(SchedMode::EventDriven, &plan, nodes, true);
        assert_eq!(flat.steps, flat_prof.steps, "profiling must not change scheduling");
        let flat_sub = phase_share_milli(&flat_prof.phases, "substrate_step");
        println!(
            "{:<26} {:>10} {:>10} {:>8} {:>9} {:>8}.{:01}%",
            format!("perm/n{nodes}/flat"),
            flat.steps,
            pkts_per_sec(&flat),
            flat.elapsed_cycles,
            "1.0x",
            flat_sub / 10,
            flat_sub % 10,
        );
        res.record_count(&cell("flat/event_steps"), flat.steps);
        res.record_wall(&cell("flat/event_wall"), flat.wall_ns);
        res.record_count(&cell("flat/event_packets_per_sec"), pkts_per_sec(&flat));
        res.record_count(&cell("flat/substrate_step_share_milli"), flat_sub);
        res.record_cycles(&cell("flat/elapsed_cycles"), flat.elapsed_cycles);

        let sharded = |profile| {
            drive_net(
                share(scenarios::cm5_sharded(nodes, PARALLEL_SHARDS, 1, SEED)),
                SchedMode::EventDriven,
                &plan,
                nodes,
                profile,
            )
        };
        let run = sharded(false);
        let prof = sharded(true);
        assert_eq!(run.steps, prof.steps, "profiling must not change scheduling");
        let sub = phase_share_milli(&prof.phases, "substrate_step");
        let ratio_milli = (flat.wall_ns * 1000).checked_div(run.wall_ns).unwrap_or(0) as u64;
        println!(
            "{:<26} {:>10} {:>10} {:>8} {:>6}.{:01}x {:>8}.{:01}%",
            format!("perm/n{nodes}/s{PARALLEL_SHARDS}"),
            run.steps,
            pkts_per_sec(&run),
            run.elapsed_cycles,
            ratio_milli / 1000,
            (ratio_milli % 1000) / 100,
            sub / 10,
            sub % 10,
        );
        res.record_count(&cell("sharded/event_steps"), run.steps);
        res.record_wall(&cell("sharded/event_wall"), run.wall_ns);
        res.record_count(&cell("sharded/event_packets_per_sec"), pkts_per_sec(&run));
        res.record_count(&cell("sharded/substrate_step_share_milli"), sub);
        res.record_count(&cell("sharded/wall_ratio_vs_flat_milli"), ratio_milli);
        res.record_cycles(&cell("sharded/elapsed_cycles"), run.elapsed_cycles);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--perf-smoke") {
        std::process::exit(perf_smoke());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let max_nodes = if quick { 1024 } else { 4096 };

    let mut res = BenchResults::new("sched/");
    println!(
        "{:<22} {:>10} {:>12} {:>7} {:>10} {:>10}",
        "cell", "evt steps", "ref steps", "ratio", "evt pkt/s", "ref pkt/s"
    );
    for &nodes in &[256usize, 1024, 4096] {
        if nodes > max_nodes {
            continue;
        }
        for pattern in [Pattern::RandomPermutation(SEED), Pattern::Hotspot] {
            let plan = plan_for(pattern, nodes);
            let evt = drive(SchedMode::EventDriven, &plan, nodes, false);
            let rr = drive(SchedMode::ReferenceRoundRobin, &plan, nodes, false);
            let prof = drive(SchedMode::EventDriven, &plan, nodes, true);
            assert_eq!(evt.steps, prof.steps, "profiling must not change scheduling");
            assert_eq!(
                evt.elapsed_cycles, rr.elapsed_cycles,
                "modes must agree on simulated time ({} nodes, {})",
                nodes,
                pattern.name()
            );
            let cell = format!("{}/n{nodes}", pattern.name());
            let ratio_milli = (rr.steps * 1000).checked_div(evt.steps).unwrap_or(0);
            println!(
                "{:<22} {:>10} {:>12} {:>6}.{:01}x {:>10} {:>10}",
                cell,
                evt.steps,
                rr.steps,
                ratio_milli / 1000,
                (ratio_milli % 1000) / 100,
                pkts_per_sec(&evt),
                pkts_per_sec(&rr),
            );
            res.record_count(&format!("{cell}/event_steps"), evt.steps);
            res.record_count(&format!("{cell}/ref_steps"), rr.steps);
            res.record_count(&format!("{cell}/step_ratio_milli"), ratio_milli);
            res.record_cycles(&format!("{cell}/elapsed_cycles"), evt.elapsed_cycles);
            res.record_wall(&format!("{cell}/event_wall"), evt.wall_ns);
            res.record_wall(&format!("{cell}/ref_wall"), rr.wall_ns);
            res.record_count(&format!("{cell}/event_packets_per_sec"), pkts_per_sec(&evt));
            res.record_count(&format!("{cell}/ref_packets_per_sec"), pkts_per_sec(&rr));
            res.record_count(&format!("{cell}/timer_wakes"), evt.timer_wakes);
            res.record_count(&format!("{cell}/packet_wakes"), evt.packet_wakes);
            res.record_count(&format!("{cell}/idle_jumps"), evt.idle_jumps);
            res.record_count(&format!("{cell}/jumped_cycles"), evt.jumped_cycles);
            let profiled: u64 = prof.phases.iter().map(|&(_, ns)| ns).sum();
            for (name, ns) in &prof.phases {
                let share = (ns * 1000).checked_div(profiled).unwrap_or(0);
                res.record_count(&format!("{cell}/phase/{name}_share_milli"), share);
            }
        }
    }

    parallel_report(&mut res, quick);

    let path = BenchResults::default_path();
    match res.write_merged(&path) {
        Ok(n) => println!("\nwrote {n} entries to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
