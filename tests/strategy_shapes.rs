//! Qualitative reproduction tests: the headline claims of §5 must hold in
//! short runs (full figures use the bench harnesses). These are the
//! "shape" assertions the figure binaries also print.

use parallel_lb::prelude::*;

fn run(n: u32, wl: WorkloadSpec, strat: Strategy, secs: u64) -> Summary {
    snsim::run_one(
        SimConfig::paper_default(n, wl, strat)
            .with_sim_time(SimDur::from_secs(secs), SimDur::from_secs(secs / 5)),
    )
}

/// §5.2: under CPU contention, reducing the degree of parallelism with
/// utilization (pmu-cpu) beats the static single-user optimum.
#[test]
fn dynamic_degree_beats_static_at_scale() {
    let wl = || WorkloadSpec::homogeneous_join(0.01, 0.25);
    let stat = run(
        60,
        wl(),
        Strategy::Isolated {
            degree: DegreePolicy::SuOpt,
            select: SelectPolicy::Random,
        },
        30,
    );
    let dyn_ = run(
        60,
        wl(),
        Strategy::Isolated {
            degree: DegreePolicy::MU_CPU,
            select: SelectPolicy::Lum,
        },
        30,
    );
    assert!(
        dyn_.join_resp_ms() < stat.join_resp_ms(),
        "pmu-cpu+LUM {} ms vs psu-opt+RANDOM {} ms at 60 PE",
        dyn_.join_resp_ms(),
        stat.join_resp_ms()
    );
    assert!(
        dyn_.avg_join_degree < stat.avg_join_degree,
        "the dynamic scheme must actually reduce the degree"
    );
}

/// §5.2 Fig. 7: in a memory-bound environment MIN-IO-SUOPT increases the
/// degree of parallelism beyond p_su-opt to gather aggregate memory.
#[test]
fn memory_bound_raises_degree() {
    let mk = |strat| {
        SimConfig::paper_default(60, WorkloadSpec::homogeneous_join(0.01, 0.04), strat)
            .with_buffer_pages(5)
            .with_disks(1)
            .with_sim_time(SimDur::from_secs(40), SimDur::from_secs(8))
    };
    let fixed = snsim::run_one(mk(Strategy::Isolated {
        degree: DegreePolicy::MU_CPU,
        select: SelectPolicy::Lum,
    }));
    let adaptive = snsim::run_one(mk(Strategy::MinIoSuopt));
    assert!(
        adaptive.avg_join_degree > fixed.avg_join_degree + 2.0,
        "MIN-IO-SUOPT degree {} vs pmu-cpu {}",
        adaptive.avg_join_degree,
        fixed.avg_join_degree
    );
}

/// §5.3: with OLTP on some nodes, memory-aware selection (LUM) avoids
/// them; random placement collides with the OLTP hot spots.
#[test]
fn lum_avoids_oltp_nodes() {
    let wl = || {
        WorkloadSpec::mixed(
            0.01,
            0.05,
            dbmodel::RelationId(2),
            100.0,
            NodeFilter::ANodes,
        )
    };
    let mk = |strat| {
        SimConfig::paper_default(40, wl(), strat)
            .with_disks(5)
            .with_sim_time(SimDur::from_secs(25), SimDur::from_secs(5))
    };
    let random = snsim::run_one(mk(Strategy::Isolated {
        degree: DegreePolicy::SuNoIo,
        select: SelectPolicy::Random,
    }));
    let lum = snsim::run_one(mk(Strategy::Isolated {
        degree: DegreePolicy::SuNoIo,
        select: SelectPolicy::Lum,
    }));
    assert!(
        lum.join_resp_ms() < random.join_resp_ms(),
        "LUM {} ms vs RANDOM {} ms with OLTP on A-nodes",
        lum.join_resp_ms(),
        random.join_resp_ms()
    );
}

/// Eq. 3.2 in vivo: higher load → lower average degree under pmu-cpu.
#[test]
fn pmu_cpu_shrinks_degree_with_load() {
    let mk = |rate| {
        SimConfig::paper_default(
            40,
            WorkloadSpec::homogeneous_join(0.01, rate),
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            },
        )
        .with_sim_time(SimDur::from_secs(25), SimDur::from_secs(5))
    };
    let light = snsim::run_one(mk(0.02));
    let heavy = snsim::run_one(mk(0.25));
    assert!(
        heavy.avg_join_degree < light.avg_join_degree,
        "degree must fall with CPU load: light {} heavy {}",
        light.avg_join_degree,
        heavy.avg_join_degree
    );
}

/// Fig. 1c regression: in the memory-bound multi-user regime (buffer/10,
/// one disk) the optimum degree sits far *right* of the single-user
/// optimum region — aggregate memory only suffices at high degrees. The
/// long-standing "fig1c shape violation" was an artifact of saturated
/// low-degree cells reporting 0.0 ms for zero completions and winning the
/// argmin; [`Summary::join_resp_ms`] now reports them as non-finite.
#[test]
fn memory_bound_optimum_sits_at_high_degree() {
    let mk = |p: u32| {
        SimConfig::paper_default(
            40,
            WorkloadSpec::homogeneous_join(0.01, 0.05),
            Strategy::Isolated {
                degree: DegreePolicy::Fixed(p),
                select: SelectPolicy::Random,
            },
        )
        .with_buffer_pages(5)
        .with_disks(1)
        .with_sim_time(SimDur::from_secs(40), SimDur::from_secs(8))
    };
    // p = 8 is the single-user optimum region; p = 30 holds the whole
    // hash table in aggregate memory (131.25 pages vs 30 × 5).
    let low = snsim::run_one(mk(8));
    let high = snsim::run_one(mk(30));
    assert!(
        high.join_resp_ms().is_finite(),
        "the high-degree cell completes queries"
    );
    assert!(
        high.join_resp_ms() < low.join_resp_ms(),
        "memory bottleneck favours high degrees: p=30 {:.0} ms vs p=8 {:.0} ms \
         (infinite = saturated cell with zero completions)",
        high.join_resp_ms(),
        low.join_resp_ms()
    );
}

/// The Adaptive meta-policy never loses badly to its best constituent.
#[test]
fn adaptive_is_competitive() {
    let wl = || WorkloadSpec::homogeneous_join(0.01, 0.2);
    let adaptive = run(40, wl(), Strategy::Adaptive, 25);
    let best_fixed = run(40, wl(), Strategy::OptIoCpu, 25);
    assert!(
        adaptive.join_resp_ms() < best_fixed.join_resp_ms() * 2.0,
        "adaptive {} ms vs OPT-IO-CPU {} ms",
        adaptive.join_resp_ms(),
        best_fixed.join_resp_ms()
    );
}
