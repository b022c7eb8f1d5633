//! Perf-parity properties: the hot-path engine alternatives — incremental
//! broker order statistics, the parallel control-tick sampling phase,
//! the clean-configured control-plane decorators (lagged broker at zero
//! staleness/loss, single-rack hierarchical broker), and the windowed
//! lane executor (including query operator phases) — are pure
//! cost/structure changes. Each must produce a [`Summary`]
//! **bit-identical** to its reference implementation (central broker,
//! sort-per-call reads, serial sampling, sequential dispatch) on the
//! same configuration, across the Fig. 6 strategy set and the network /
//! placement / admission / mixed query scenario families.
//!
//! "Bit-identical" is checked on the serialized summary, covering every
//! counter and every float bit pattern. The three executor counters
//! (`windows_formed`, `windowed_events`, `barrier_events`) are zeroed
//! before comparison: they describe *how* the run was scheduled, which
//! legitimately differs between `exec_threads = 0` (all zero) and `> 0`
//! — everything else must not.

use lb_core::{BrokerConfig, BrokerKind, ReadMode};
use parallel_lb::prelude::*;
use proptest::prelude::{proptest, ProptestConfig};

/// Run one configuration and return `(scrubbed summary JSON,
/// windows_formed)`: the executor counters are zeroed in the JSON so
/// schedule-shape metadata never masks (or fakes) a real divergence.
fn run_scrubbed(cfg: SimConfig) -> (String, u64) {
    let mut s = snsim::run_one(cfg);
    let windows = s.windows_formed;
    s.windows_formed = 0;
    s.windowed_events = 0;
    s.barrier_events = 0;
    (serde_json::to_string(&s).expect("serialize"), windows)
}

/// Run `base` under the reference engine configuration and under one
/// alternative, asserting byte-equal summaries. With `expect_windows`,
/// additionally require that the windowed executor actually formed
/// multi-event windows on this workload (rather than silently degrading
/// to the sequential path everywhere).
fn assert_parity(base: SimConfig, label: &str, expect_windows: bool) {
    let reference = base
        .clone()
        .with_broker_reads(ReadMode::SortPerCall)
        .with_tick_threads(0);
    let incremental = base.clone().with_broker_reads(ReadMode::Incremental);
    let threaded = base.clone().with_tick_threads(4);
    // The broker-kind axis: a lagged broker with no staleness and no loss
    // and a one-rack hierarchical broker are pass-throughs, under both
    // read modes and with the parallel sampling phase.
    let lagged = base
        .clone()
        .with_broker(BrokerConfig {
            kind: BrokerKind::Lagged,
            ..BrokerConfig::default()
        })
        .with_tick_threads(4);
    let lagged_sorted = base
        .clone()
        .with_broker(BrokerConfig {
            kind: BrokerKind::Lagged,
            ..BrokerConfig::default()
        })
        .with_broker_reads(ReadMode::SortPerCall);
    let hier = base.clone().with_broker(BrokerConfig {
        kind: BrokerKind::Hierarchical,
        ..BrokerConfig::default()
    });
    // The windowed-executor axis: lane-parallel execution is a pure
    // scheduling change, so it must be bit-identical at any thread count,
    // crossed with the read mode and the broker kind.
    let exec2 = base.clone().with_exec_threads(2);
    let exec8 = base.clone().with_exec_threads(8);
    let exec2_sorted = base
        .clone()
        .with_broker_reads(ReadMode::SortPerCall)
        .with_tick_threads(0)
        .with_exec_threads(2);
    let exec2_lagged = base
        .with_broker(BrokerConfig {
            kind: BrokerKind::Lagged,
            ..BrokerConfig::default()
        })
        .with_exec_threads(2);
    let j = |cfg: SimConfig| run_scrubbed(cfg).0;
    let want = j(reference);
    assert_eq!(want, j(incremental), "incremental reads diverged: {label}");
    assert_eq!(want, j(threaded), "parallel tick diverged: {label}");
    assert_eq!(want, j(lagged), "clean lagged broker diverged: {label}");
    assert_eq!(
        want,
        j(lagged_sorted),
        "clean lagged broker (sorted reads) diverged: {label}"
    );
    assert_eq!(want, j(hier), "one-rack hierarchical diverged: {label}");
    let (got, windows) = run_scrubbed(exec2);
    assert_eq!(want, got, "windowed executor (2) diverged: {label}");
    if expect_windows {
        assert!(windows > 0, "no windows formed on {label}");
    }
    assert_eq!(
        want,
        run_scrubbed(exec8).0,
        "windowed executor (8) diverged: {label}"
    );
    assert_eq!(
        want,
        j(exec2_sorted),
        "windowed executor under sort-per-call reads diverged: {label}"
    );
    assert_eq!(
        want,
        j(exec2_lagged),
        "windowed executor under the lagged broker diverged: {label}"
    );
}

/// Same configuration at `exec_threads` 0 / 2 / 8 must serialize the same
/// summary — used where the *reference* configuration itself is not the
/// comparison point (faulted brokers, the soak smokes, the mixed query
/// families). With `expect_windows`, the threaded runs must actually
/// form windows.
fn assert_exec_parity(base: SimConfig, label: &str, expect_windows: bool) {
    let (want, windows0) = run_scrubbed(base.clone().with_exec_threads(0));
    assert_eq!(windows0, 0, "sequential run reported windows: {label}");
    for threads in [2u32, 8] {
        let (got, windows) = run_scrubbed(base.clone().with_exec_threads(threads));
        assert_eq!(want, got, "exec_threads={threads} diverged: {label}");
        if expect_windows {
            assert!(windows > 0, "no windows at exec_threads={threads}: {label}");
        }
    }
}

fn join_cfg(strat: Strategy, n: u32, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(n, WorkloadSpec::homogeneous_join(0.01, rate), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

fn mixed_cfg(strat: Strategy, n: u32, join_rate: f64, tps: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(
        n,
        WorkloadSpec::mixed(
            0.01,
            join_rate,
            dbmodel::RelationId(2),
            tps,
            workload::NodeFilter::BNodes,
        ),
        strat,
    )
    .with_seed(seed)
    .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2, // each case runs 4 short simulations per strategy
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_fig6_strategies_parity(
        seed in 0u64..10_000,
        n in 8u32..16,
        rate_milli in 50u64..200,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut strategies = Strategy::fig6_set();
        strategies.push(Strategy::Adaptive);
        for strat in strategies {
            assert_parity(join_cfg(strat, n, rate, seed), strat.name(), false);
        }
    }
}

/// Network family: a shuffle-heavy join on a 10× slower fabric, where
/// the interconnect becomes the ranked bottleneck resource.
#[test]
fn network_bound_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 12, 0.15, 7).with_net_speed(0.1);
    assert_parity(cfg, "network_bound", false);
}

/// Placement family: skewed fragments with the online rebalancer moving
/// data mid-run (migrations ride the ranked views too).
#[test]
fn rebalance_parity() {
    let mut cfg = SimConfig::paper_default(
        12,
        WorkloadSpec::homogeneous_join(0.05, 0.02),
        Strategy::OptIoCpu,
    )
    .with_seed(11)
    .with_sim_time(SimDur::from_secs(12), SimDur::from_secs(3));
    cfg.placement = snsim::config::DataPlacementConfig {
        data_skew: 0.6,
        fragment_count: 48,
        rebalance: Some(lb_core::RebalanceConfig::default()),
    };
    assert_parity(cfg, "rebalance", false);
}

/// Admission family: the malleable policy reacts to the broker's
/// per-kind averages every report round.
#[test]
fn admission_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 10, 0.2, 3)
        .with_mpl(4)
        .with_admission(sched::AdmissionConfig {
            policy: sched::AdmissionPolicyKind::Malleable,
            max_queue: 128,
            ..sched::AdmissionConfig::default()
        });
    assert_parity(cfg, "admission", false);
}

/// Soak smoke: a 1000-PE pure-OLTP slice — multi-event windows form
/// between consecutive arrivals, so this exercises lane execution + the
/// interleaved merge commit rather than the barrier fallback path.
#[test]
fn soak_smoke_exec_parity() {
    let cfg = SimConfig::paper_default(
        1000,
        WorkloadSpec::mixed(
            0.01,
            0.0,
            dbmodel::RelationId(2),
            100.0,
            workload::NodeFilter::All,
        ),
        Strategy::OptIoCpu,
    )
    .with_seed(1)
    .with_sim_time(SimDur::from_millis(300), SimDur::from_millis(50));
    assert_exec_parity(cfg, "soak_smoke", true);
}

/// Broker-fault family: a lossy, stale broker with the failure detector
/// armed draws from the fault RNG stream on the control clock. Windows
/// must not perturb those draws (control ticks are barriers).
#[test]
fn broker_fault_exec_parity() {
    let cfg = SimConfig::paper_default(
        1000,
        WorkloadSpec::mixed(
            0.01,
            0.0,
            dbmodel::RelationId(2),
            100.0,
            workload::NodeFilter::All,
        ),
        Strategy::OptIoCpu,
    )
    .with_seed(9)
    .with_sim_time(SimDur::from_millis(300), SimDur::from_millis(50))
    .with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 500.0,
        heartbeat_loss: 0.2,
        miss_threshold: 2,
        ..BrokerConfig::default()
    });
    assert_exec_parity(cfg, "broker_faults", true);
}

/// Mixed OLTP workload: per-arrival coordinator picks exercise the
/// ranked reads at the highest call rate, and windows must form *while
/// joins are live* — the query-operator-phase extension at work.
#[test]
fn mixed_oltp_parity() {
    let cfg = mixed_cfg(Strategy::OptIoCpu, 10, 0.075, 60.0, 5);
    assert_parity(cfg, "mixed_oltp", true);
}

/// Query-phase windows across the Fig. 6 strategy set: joins and OLTP
/// live together, every strategy must stay bit-identical at exec_threads
/// 0 / 2 / 8 with windows actually forming between shuffle points.
#[test]
fn fig6_mixed_query_windows_parity() {
    for strat in Strategy::fig6_set() {
        assert_exec_parity(mixed_cfg(strat, 10, 0.075, 60.0, 21), strat.name(), true);
    }
}

/// Query-phase windows under the malleable admission policy *and* the
/// online rebalancer at once: JobDone replay interacts with the budget
/// bookkeeping, migrations freeze their PEs, windows still form and the
/// summaries still match bit-for-bit.
#[test]
fn mixed_admission_rebalance_exec_parity() {
    let mut cfg = SimConfig::paper_default(
        12,
        WorkloadSpec::mixed(
            0.05,
            0.02,
            dbmodel::RelationId(2),
            60.0,
            workload::NodeFilter::All,
        ),
        Strategy::OptIoCpu,
    )
    .with_seed(13)
    .with_sim_time(SimDur::from_secs(6), SimDur::from_secs(2))
    .with_mpl(4)
    .with_admission(sched::AdmissionConfig {
        policy: sched::AdmissionPolicyKind::Malleable,
        max_queue: 128,
        ..sched::AdmissionConfig::default()
    });
    cfg.placement = snsim::config::DataPlacementConfig {
        data_skew: 0.6,
        fragment_count: 48,
        rebalance: Some(lb_core::RebalanceConfig::default()),
    };
    assert_exec_parity(cfg, "mixed_admission_rebalance", true);
}

/// Query-phase windows under a faulted broker: joins live, heartbeats
/// lost, detector armed — the fault RNG stream must stay untouched by
/// the window schedule.
#[test]
fn mixed_broker_fault_exec_parity() {
    let cfg = mixed_cfg(Strategy::OptIoCpu, 10, 0.05, 60.0, 17).with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 500.0,
        heartbeat_loss: 0.2,
        miss_threshold: 2,
        ..BrokerConfig::default()
    });
    assert_exec_parity(cfg, "mixed_broker_faults", true);
}
