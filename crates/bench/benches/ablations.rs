//! Ablation benchmarks for the model's main design choices: each
//! pair runs the same workload with one mechanism toggled, and the metric
//! of interest is the *simulated* join response time (reported via
//! criterion's output through the returned value; wall time is secondary).
//!
//! Ablated mechanisms:
//! * adaptive feedback at the control node (LUC bump on/off),
//! * disk-controller caching + prefetching,
//! * OLTP CPU priority,
//! * control-information staleness (report interval 100 ms vs 2 s).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lb_core::{DegreePolicy, SelectPolicy, Strategy};
use simkit::SimDur;
use snsim::SimConfig;
use workload::WorkloadSpec;

fn base(n: u32) -> SimConfig {
    SimConfig::paper_default(
        n,
        WorkloadSpec::homogeneous_join(0.01, 0.2),
        Strategy::Isolated {
            degree: DegreePolicy::MU_CPU,
            select: SelectPolicy::Lum,
        },
    )
    .with_sim_time(SimDur::from_secs(8), SimDur::from_secs(2))
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    g.bench_function("feedback/on", |b| {
        b.iter(|| {
            let s = snsim::run_one(base(20));
            black_box((s.join_resp_ms(), s.events))
        })
    });
    g.bench_function("feedback/off", |b| {
        b.iter(|| {
            let mut cfg = base(20);
            cfg.luc_bump = 0.0;
            let s = snsim::run_one(cfg);
            black_box((s.join_resp_ms(), s.events))
        })
    });

    g.bench_function("disk_cache/on", |b| {
        b.iter(|| black_box(snsim::run_one(base(20)).join_resp_ms()))
    });
    g.bench_function("disk_cache/off", |b| {
        b.iter(|| {
            let mut cfg = base(20);
            cfg.hw.disk.cache_pages = 0;
            cfg.hw.disk.prefetch_pages = 1;
            black_box(snsim::run_one(cfg).join_resp_ms())
        })
    });

    g.bench_function("staleness/100ms", |b| {
        b.iter(|| black_box(snsim::run_one(base(20)).join_resp_ms()))
    });
    g.bench_function("staleness/2s", |b| {
        b.iter(|| {
            let mut cfg = base(20);
            cfg.control_interval = SimDur::from_secs(2);
            black_box(snsim::run_one(cfg).join_resp_ms())
        })
    });

    g.bench_function("oltp_priority/off", |b| {
        b.iter(|| {
            let cfg = SimConfig::paper_default(
                20,
                WorkloadSpec::mixed(
                    0.01,
                    0.05,
                    dbmodel::RelationId(2),
                    100.0,
                    workload::NodeFilter::BNodes,
                ),
                Strategy::OptIoCpu,
            )
            .with_disks(5)
            .with_sim_time(SimDur::from_secs(6), SimDur::from_secs(1));
            let s = snsim::run_one(cfg);
            black_box(s.oltp_resp_ms())
        })
    });
    g.bench_function("oltp_priority/on", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::paper_default(
                20,
                WorkloadSpec::mixed(
                    0.01,
                    0.05,
                    dbmodel::RelationId(2),
                    100.0,
                    workload::NodeFilter::BNodes,
                ),
                Strategy::OptIoCpu,
            )
            .with_disks(5)
            .with_sim_time(SimDur::from_secs(6), SimDur::from_secs(1));
            cfg.hw.cpu.oltp_priority = true;
            let s = snsim::run_one(cfg);
            black_box(s.oltp_resp_ms())
        })
    });

    g.finish();
}

/// §7 skew extension: uniform vs skewed redistribution, and size-aware
/// (LUM) vs blind (RANDOM) subjoin placement under skew.
fn bench_skew(c: &mut Criterion) {
    let mut g = c.benchmark_group("skew");
    g.sample_size(10);
    let mk = |theta: f64, select| {
        SimConfig::paper_default(
            20,
            if theta > 0.0 {
                WorkloadSpec::homogeneous_join_skewed(0.01, 0.15, theta)
            } else {
                WorkloadSpec::homogeneous_join(0.01, 0.15)
            },
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select,
            },
        )
        .with_sim_time(SimDur::from_secs(8), SimDur::from_secs(2))
    };
    g.bench_function("uniform/lum", |b| {
        b.iter(|| black_box(snsim::run_one(mk(0.0, SelectPolicy::Lum)).join_resp_ms()))
    });
    g.bench_function("zipf1/lum_size_aware", |b| {
        b.iter(|| black_box(snsim::run_one(mk(1.0, SelectPolicy::Lum)).join_resp_ms()))
    });
    g.bench_function("zipf1/random_blind", |b| {
        b.iter(|| black_box(snsim::run_one(mk(1.0, SelectPolicy::Random)).join_resp_ms()))
    });
    g.finish();
}

/// §6 baseline: RateMatch vs pmu-cpu at a hot operating point.
fn bench_ratematch(c: &mut Criterion) {
    let mut g = c.benchmark_group("ratematch");
    g.sample_size(10);
    let base = || {
        SimConfig::paper_default(
            40,
            WorkloadSpec::homogeneous_join(0.01, 0.25),
            Strategy::OptIoCpu,
        )
        .with_sim_time(SimDur::from_secs(8), SimDur::from_secs(2))
    };
    g.bench_function("pmu_cpu_lum", |b| {
        b.iter(|| {
            let mut cfg = base();
            cfg.strategy = Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            };
            black_box(snsim::run_one(cfg).join_resp_ms())
        })
    });
    g.bench_function("ratematch_lum", |b| {
        b.iter(|| {
            let mut cfg = base();
            let params = cfg.cost_params();
            cfg.strategy = Strategy::Isolated {
                degree: DegreePolicy::RateMatch(params),
                select: SelectPolicy::Lum,
            };
            black_box(snsim::run_one(cfg).join_resp_ms())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ablations, bench_skew, bench_ratematch);
criterion_main!(benches);
