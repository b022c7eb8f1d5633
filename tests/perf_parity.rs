//! Perf-parity properties: the hot-path engine alternatives — incremental
//! broker order statistics and the clean-configured control-plane
//! decorators (lagged broker at zero staleness/loss, single-rack
//! hierarchical broker) — are pure cost/structure changes. Each must
//! produce a [`Summary`] **bit-identical** to its reference
//! implementation (central broker, sort-per-call reads) on the same
//! configuration, across the Fig. 6 strategy set and the network /
//! placement / admission / mixed query scenario families. Faulted
//! brokers, which are not pass-throughs, are checked on the read-mode
//! axis alone.
//!
//! "Bit-identical" is checked on the serialized summary, covering every
//! counter and every float bit pattern.

use lb_core::{BrokerConfig, BrokerKind, ReadMode};
use parallel_lb::prelude::*;
use proptest::prelude::{proptest, ProptestConfig};

fn run_json(cfg: SimConfig) -> String {
    serde_json::to_string(&snsim::run_one(cfg)).expect("serialize")
}

/// Run `base` under the reference engine configuration and under each
/// alternative, asserting byte-equal summaries.
fn assert_parity(base: SimConfig, label: &str) {
    let reference = base.clone().with_broker_reads(ReadMode::SortPerCall);
    let incremental = base.clone().with_broker_reads(ReadMode::Incremental);
    // The broker-kind axis: a lagged broker with no staleness and no loss
    // and a one-rack hierarchical broker are pass-throughs, under both
    // read modes.
    let lagged = BrokerConfig {
        kind: BrokerKind::Lagged,
        ..BrokerConfig::default()
    };
    let lagged_incremental = base
        .clone()
        .with_broker(lagged)
        .with_broker_reads(ReadMode::Incremental);
    let lagged_sorted = base
        .clone()
        .with_broker(lagged)
        .with_broker_reads(ReadMode::SortPerCall);
    let hier = base.with_broker(BrokerConfig {
        kind: BrokerKind::Hierarchical,
        ..BrokerConfig::default()
    });
    let want = run_json(reference);
    assert_eq!(
        want,
        run_json(incremental),
        "incremental reads diverged: {label}"
    );
    assert_eq!(
        want,
        run_json(lagged_incremental),
        "clean lagged broker diverged: {label}"
    );
    assert_eq!(
        want,
        run_json(lagged_sorted),
        "clean lagged broker (sorted reads) diverged: {label}"
    );
    assert_eq!(
        want,
        run_json(hier),
        "one-rack hierarchical diverged: {label}"
    );
}

/// Sort-per-call and incremental reads must agree under `base`'s own
/// broker — used where the broker is faulted, so the reference central
/// broker is not the comparison point.
fn assert_read_mode_parity(base: SimConfig, label: &str) {
    assert_eq!(
        run_json(base.clone().with_broker_reads(ReadMode::SortPerCall)),
        run_json(base.with_broker_reads(ReadMode::Incremental)),
        "incremental reads diverged: {label}"
    );
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
        cases: 2, // each case runs 5 short simulations per strategy
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
            assert_parity(join_cfg(strat, n, rate, seed), strat.name());
        }
    }
}

/// Network family: a shuffle-heavy join on a 10× slower fabric, where
/// the interconnect becomes the ranked bottleneck resource.
#[test]
fn network_bound_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 12, 0.15, 7).with_net_speed(0.1);
    assert_parity(cfg, "network_bound");
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
    assert_parity(cfg, "rebalance");
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
    assert_parity(cfg, "admission");
}

fn soak_smoke_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_default(
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
    .with_seed(seed)
    .with_sim_time(SimDur::from_millis(300), SimDur::from_millis(50))
}

/// Soak smoke: a 1000-PE pure-OLTP slice, where every arrival ranks a
/// thousand nodes.
#[test]
fn soak_smoke_exec_parity() {
    assert_parity(soak_smoke_cfg(1), "soak_smoke");
}

/// Broker-fault family at 1000 PEs: a lossy, stale broker with the
/// failure detector armed draws from the fault RNG stream on the control
/// clock; the read mode must not perturb those draws.
#[test]
fn broker_fault_exec_parity() {
    let cfg = soak_smoke_cfg(9).with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 500.0,
        heartbeat_loss: 0.2,
        miss_threshold: 2,
        ..BrokerConfig::default()
    });
    assert_read_mode_parity(cfg, "broker_faults");
}

/// Mixed OLTP workload: per-arrival coordinator picks exercise the
/// ranked reads at the highest call rate while joins are live.
#[test]
fn mixed_oltp_parity() {
    let cfg = mixed_cfg(Strategy::OptIoCpu, 10, 0.075, 60.0, 5);
    assert_parity(cfg, "mixed_oltp");
}

/// Joins and OLTP live together across the Fig. 6 strategy set.
#[test]
fn fig6_mixed_query_windows_parity() {
    for strat in Strategy::fig6_set() {
        assert_parity(mixed_cfg(strat, 10, 0.075, 60.0, 21), strat.name());
    }
}

/// Mixed workload under the malleable admission policy *and* the online
/// rebalancer at once: migrations and the admission budget both read
/// the broker's ranked state.
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
    assert_parity(cfg, "mixed_admission_rebalance");
}

/// Mixed workload under a faulted broker: joins live, heartbeats lost,
/// detector armed.
#[test]
fn mixed_broker_fault_exec_parity() {
    let cfg = mixed_cfg(Strategy::OptIoCpu, 10, 0.05, 60.0, 17).with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 500.0,
        heartbeat_loss: 0.2,
        miss_threshold: 2,
        ..BrokerConfig::default()
    });
    assert_read_mode_parity(cfg, "mixed_broker_faults");
}
