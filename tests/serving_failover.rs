//! Failure-domain invariants: the service plane's failure detector,
//! health-aware routing, hedged requests, retry budgets, and brownout
//! breaker, pinned under crash-restart faults on the sharded
//! substrate.
//!
//! * **Detection and recovery** — a mid-run crash-restart on one
//!   server is ejected by the heartbeat detector and reinstated after
//!   the restart; goodput with the full failure domain armed stays
//!   within 10% of a clean run while the detector-off baseline
//!   measurably degrades.
//! * **Hedged exactly-once** — hedge legs racing a `CrashWindow` never
//!   double-run a handler: `ServerPool` runs equal admitted requests,
//!   and the whole [`ServiceOutcome::signature`] matches a committed
//!   constant.
//! * **Retry budgets** — a near-dry token bucket caps the crash's
//!   recovery amplification; denials are observable and bounded by the
//!   bucket, and denied requests settle (fail) instead of re-running.
//! * **Brownout breaker** — losing most of the pool trips the breaker:
//!   the sheddable class is turned away at admission instead of
//!   queueing at the corpses, and the batch class keeps completing.
//! * **Migration × detector** — retiring an ejected server mid-run
//!   neither panics nor routes to the retiree (the satellite-3
//!   `remove_server` fix, exercised end to end).

use timego_am::RecoveryPolicy;
use timego_netsim::{CrashWindow, FaultConfig, NodeId};
use timego_workloads::service::{
    run_service, serving_machine, serving_machine_chaos, AdmissionWindow, BalancerPolicy,
    BreakerSpec, DetectorSpec, HedgeSpec, Migration, QosClass, RetryBudget, ServiceOutcome,
    ServiceSpec,
};

const NODES: usize = 256;
const GATEWAYS: usize = 4;
const SERVERS: usize = 8;
const REQUESTS: usize = 500;
const INTERVAL: u64 = 24;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn nodes(lo: usize, count: usize) -> Vec<NodeId> {
    (lo..lo + count).map(n).collect()
}

/// Recovery-armed, hedged, sheddable interactive population with no
/// deadline: every admitted request eventually settles, so exactly-once
/// stays assertable under crash windows.
fn hedged_class() -> QosClass {
    QosClass {
        name: "interactive",
        class: 0,
        interval: INTERVAL,
        requests: REQUESTS,
        work: 4,
        deadline: None,
        recovery: Some(RecoveryPolicy::default()),
        retry: RecoveryPolicy::retransmit(),
        hedge: true,
        sheddable: true,
        retry_budget: None,
    }
}

fn detector() -> DetectorSpec {
    DetectorSpec { period: 600, timeout: 500, threshold: 2 }
}

fn hedge() -> HedgeSpec {
    HedgeSpec { quantile: 0.95, min_samples: 32, bootstrap: 2048 }
}

fn failover_spec(detector_on: bool, hedge_on: bool) -> ServiceSpec {
    ServiceSpec {
        gateways: nodes(0, GATEWAYS),
        servers: nodes(GATEWAYS, SERVERS),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(4 * SERVERS),
        classes: vec![hedged_class()],
        detector: detector_on.then(detector),
        hedge: hedge_on.then(hedge),
        seed: 42,
        ..ServiceSpec::default()
    }
}

/// One crash-restart on the first server spanning the middle half of
/// the arrival span.
fn one_crash() -> FaultConfig {
    let span = INTERVAL * REQUESTS as u64;
    FaultConfig {
        crashes: vec![CrashWindow { node: n(GATEWAYS), start: span / 4, end: span * 3 / 4 }],
        ..FaultConfig::default()
    }
}

fn assert_conserved(out: &ServiceOutcome) {
    assert_eq!(out.in_flight_at_end, 0, "quiesced run must have nothing in flight");
    for c in &out.classes {
        assert_eq!(c.offered, c.admitted + c.shed, "arrival conservation ({})", c.name);
        assert_eq!(c.admitted, c.completed + c.failed, "settlement conservation ({})", c.name);
    }
}

fn total_runs(out: &ServiceOutcome) -> u64 {
    out.handler_runs.values().sum()
}

fn admitted(out: &ServiceOutcome) -> usize {
    out.classes.iter().map(|c| c.admitted).sum()
}

#[test]
fn detector_ejects_the_crashed_server_and_reinstates_it_after_restart() {
    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let out = run_service(&mut m, &failover_spec(true, false));
    assert_conserved(&out);
    assert!(out.probes > 0, "the detector must have probed");
    assert!(out.probe_failures > 0, "probes at the corpse must fail");
    assert!(out.ejections >= 1, "the crashed server must be ejected");
    assert!(
        out.reinstatements >= 1,
        "the restarted server must be reinstated ({} ejections)",
        out.ejections
    );
    assert!(
        out.detector_bill.total() > 0,
        "detection work must be billed, not free"
    );
    println!(
        "detector: {} probes, {} failures, {} ejections, {} reinstatements, {} bill",
        out.probes,
        out.probe_failures,
        out.ejections,
        out.reinstatements,
        out.detector_bill.total()
    );
}

#[test]
fn failure_domain_holds_goodput_while_the_baseline_degrades() {
    let mut m = serving_machine(NODES, 2, 42);
    let clean = run_service(&mut m, &failover_spec(true, true));
    assert_conserved(&clean);
    assert_eq!(clean.ejections, 0, "a clean run must not eject");

    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let base = run_service(&mut m, &failover_spec(false, false));
    assert_conserved(&base);

    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let armed = run_service(&mut m, &failover_spec(true, true));
    assert_conserved(&armed);
    assert!(armed.ejections >= 1, "the armed run must eject the corpse");

    let (g_clean, g_base, g_armed) = (
        clean.goodput_per_kcycle(),
        base.goodput_per_kcycle(),
        armed.goodput_per_kcycle(),
    );
    assert!(
        g_armed >= 0.9 * g_clean,
        "armed goodput {g_armed:.2}/kc fell more than 10% below clean {g_clean:.2}/kc"
    );
    assert!(
        g_base < 0.9 * g_clean,
        "the detector-off baseline must measurably degrade ({g_base:.2} vs {g_clean:.2})"
    );
    println!("goodput/kc: clean {g_clean:.2}, baseline {g_base:.2}, armed {g_armed:.2}");
}

/// [`ServiceOutcome::signature`] of the hedged failover fixture through
/// one server crash, seed 42.
const SIGNATURE: u64 = 0xd39f_a8bb_64d0_cf55;

#[test]
fn hedge_legs_racing_a_crash_window_run_each_handler_exactly_once() {
    // Hedged requests whose legs race a server CrashWindow still run
    // exactly once pool-wide, and the whole outcome matches the pin.
    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let out = run_service(&mut m, &failover_spec(true, true));
    assert_conserved(&out);
    let hedges = out.classes[0].hedges;
    assert_eq!(
        total_runs(&out),
        admitted(&out) as u64,
        "handler runs must equal admitted requests \
         ({hedges} hedges, {} wins, {} dup-suppressed)",
        out.classes[0].hedge_wins,
        out.dup_suppressed
    );
    assert!(hedges > 0, "the crash must provoke at least one hedge");
    let sig = out.signature();
    assert_eq!(sig, SIGNATURE, "the hedged outcome moved (computed {sig:#018x})");
    println!("hedged exactly-once: signature {sig:#018x}, {hedges} hedges");
}

#[test]
fn a_near_dry_retry_budget_caps_recovery_amplification() {
    // Unbudgeted reference: recovery re-executes freely through the
    // crash (hedging off so the budget actually comes under pressure).
    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let free = run_service(&mut m, &failover_spec(true, false));
    assert_conserved(&free);
    let free_reexec = free.classes[0].re_executions;
    assert!(free_reexec > 2, "the fixture must re-execute (got {free_reexec})");
    assert_eq!(free.classes[0].budget_denied, 0, "no budget, no denials");

    let mut spec = failover_spec(true, false);
    spec.classes[0].retry_budget = Some(RetryBudget { capacity: 2, refill_milli_per_kcycle: 0 });
    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let capped = run_service(&mut m, &spec);
    assert_conserved(&capped);
    let c = &capped.classes[0];
    assert!(c.budget_denied > 0, "the dry bucket must deny re-executions");
    assert!(
        c.re_executions <= 2,
        "re-executions {} must be bounded by the bucket capacity",
        c.re_executions
    );
    assert!(
        c.re_executions < free_reexec,
        "the budget must cap amplification ({} vs {})",
        c.re_executions,
        free_reexec
    );
    assert!(c.failed > 0, "denied requests settle as failures, not limbo");
    println!(
        "retry budget: {} re-executions (free ran {free_reexec}), {} denied, {} failed",
        c.re_executions, c.budget_denied, c.failed
    );
}

#[test]
fn losing_most_of_the_pool_trips_the_brownout_breaker() {
    // Crash 6 of 8 servers for the middle half of the run. The breaker
    // sheds the sheddable interactive class while healthy capacity is
    // below half; the non-sheddable batch class keeps completing.
    let span = INTERVAL * REQUESTS as u64;
    let fault = FaultConfig {
        crashes: (0..6)
            .map(|i| CrashWindow { node: n(GATEWAYS + i), start: span / 4, end: span * 3 / 4 })
            .collect(),
        ..FaultConfig::default()
    };
    let mut spec = failover_spec(true, true);
    spec.breaker = Some(BreakerSpec { min_healthy_milli: 500 });
    spec.classes.push(QosClass {
        name: "batch",
        class: 1,
        interval: INTERVAL * 2,
        requests: REQUESTS / 2,
        work: 4,
        deadline: None,
        recovery: Some(RecoveryPolicy::default()),
        retry: RecoveryPolicy::retransmit(),
        hedge: false,
        sheddable: false,
        retry_budget: None,
    });
    let mut m = serving_machine_chaos(NODES, 2, fault, 42);
    let out = run_service(&mut m, &spec);
    assert_conserved(&out);
    let interactive = &out.classes[0];
    let batch = &out.classes[1];
    assert!(
        interactive.breaker_shed > 0,
        "losing 6/8 servers must trip the breaker on the sheddable class"
    );
    assert_eq!(batch.breaker_shed, 0, "the breaker must not touch non-sheddable classes");
    assert!(batch.completed > 0, "batch must keep completing through the brownout");
    assert_eq!(
        total_runs(&out),
        admitted(&out) as u64,
        "brownout must stay exactly-once"
    );
    println!(
        "brownout: interactive breaker-shed {}, batch completed {}, {} ejections",
        interactive.breaker_shed, batch.completed, out.ejections
    );
}

#[test]
fn retiring_an_ejected_server_mid_run_is_safe() {
    // Migration fires at 60% of arrivals — while the crashed (and by
    // then ejected) first server is still dark — and retires the two
    // lowest-id servers, recruiting a spare. The satellite-3 fix means
    // the retiree leaves membership, ring, and ejection set atomically:
    // no panic, no routing to the removed node, and the run still
    // settles every admitted request.
    let mut spec = failover_spec(true, true);
    spec.migration = Some(Migration {
        at: 0.6,
        retire: 2,
        recruit: vec![n(GATEWAYS + SERVERS)],
    });
    let mut m = serving_machine_chaos(NODES, 2, one_crash(), 42);
    let out = run_service(&mut m, &spec);
    assert_conserved(&out);
    assert!(out.ejections >= 1, "the corpse must be ejected before the migration");
    assert_eq!(
        total_runs(&out),
        admitted(&out) as u64,
        "migration × detector must stay exactly-once"
    );
    let retired_runs = out.handler_runs.get(&GATEWAYS).copied().unwrap_or(0)
        + out.handler_runs.get(&(GATEWAYS + 1)).copied().unwrap_or(0);
    let recruit_runs = out.handler_runs.get(&(GATEWAYS + SERVERS)).copied().unwrap_or(0);
    assert!(
        recruit_runs > 0,
        "the recruited spare must take traffic after the migration"
    );
    println!(
        "migration × detector: {} ejections, retiree ran {retired_runs}, recruit ran {recruit_runs}",
        out.ejections
    );
}
