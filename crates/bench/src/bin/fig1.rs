//! Fig. 1 — "Parallel join processing in single- and multi-user mode:
//! basic response time development and optimal number of join processors".
//!
//! Thin wrapper over three bundled specs sweeping a *fixed* degree
//! strategy (`fixed(p)+RANDOM`) under the three regimes:
//!   (a) `scenarios/fig1_single_user.json` — the classic U-curve;
//!   (b) `scenarios/fig1_cpu_bound.json` — the optimum shifts LEFT;
//!   (c) `scenarios/fig1_memory_bound.json` — the optimum shifts RIGHT.
//!
//! Also prints the analytic cost model's curve for comparison with the
//! simulated single-user curve.
//!
//! Run: `cargo run --release -p bench --bin fig1 [--full]`

use bench::lab::{self, RunLength};
use bench::{check, shape_verdict, write_results_json};
use lb_core::costmodel::{paper_join_profile, CostModel};
use lb_core::Strategy;
use snsim::{format_table, SimConfig, Summary};
use std::process::ExitCode;
use workload::WorkloadSpec;

const N: u32 = 40;
const DEGREES: [u32; 8] = [1, 2, 4, 8, 15, 22, 30, 40];

const SPEC_SU: &str = include_str!("../../../../scenarios/fig1_single_user.json");
const SPEC_CPU: &str = include_str!("../../../../scenarios/fig1_cpu_bound.json");
const SPEC_MEM: &str = include_str!("../../../../scenarios/fig1_memory_bound.json");

/// The specs sweep the strategy axis over `fixed(p)` degrees: each run is
/// one point of the degree curve, in expansion order.
fn sweep(json: &str, name: &str, len: RunLength) -> Vec<Summary> {
    let (_, rows) = lab::run_embedded(json, name, len);
    assert_eq!(rows.len(), DEGREES.len(), "{name}: one run per degree");
    rows.into_iter().map(|r| r.summary).collect()
}

/// Index of the smallest value. Saturated cells report `f64::INFINITY`
/// (zero completions after warm-up) and therefore never win — the old
/// 0.0-for-empty encoding made argmin crown empty cells, which was the
/// root cause of the long-standing fig1c "shape violation".
fn argmin(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .filter(|(_, x)| x.is_finite())
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("at least one cell completed work")
}

fn main() -> ExitCode {
    let len = RunLength::from_args();

    let su = sweep(SPEC_SU, "fig1_single_user", len);
    let cpu = sweep(SPEC_CPU, "fig1_cpu_bound", len);
    let mem = sweep(SPEC_MEM, "fig1_memory_bound", len);

    let model = CostModel::new(
        SimConfig::paper_default(N, WorkloadSpec::single_user_join(0.01), Strategy::MinIo)
            .cost_params(),
    );
    let profile = paper_join_profile(N, 0.01);
    let analytic: Vec<f64> = DEGREES
        .iter()
        .map(|&p| model.rt_single_user(p, &profile))
        .collect();

    let series: Vec<(String, Vec<f64>)> = vec![
        (
            "(a) single-user".into(),
            su.iter().map(|s| s.join_resp_ms()).collect(),
        ),
        (
            "(b) CPU-bound mu".into(),
            cpu.iter().map(|s| s.join_resp_ms()).collect(),
        ),
        (
            "(c) memory-bound mu".into(),
            mem.iter().map(|s| s.join_resp_ms()).collect(),
        ),
        ("analytic model (su)".into(), analytic.clone()),
    ];
    let xs: Vec<String> = DEGREES.iter().map(|p| p.to_string()).collect();
    println!(
        "{}",
        format_table(
            "Fig. 1 — response time vs degree of join parallelism [ms], 40 PE",
            "p",
            &xs,
            &series,
        )
    );

    let su_curve: Vec<f64> = su.iter().map(|s| s.join_resp_ms()).collect();
    let cpu_curve: Vec<f64> = cpu.iter().map(|s| s.join_resp_ms()).collect();
    let mem_curve: Vec<f64> = mem.iter().map(|s| s.join_resp_ms()).collect();
    let (su_opt, cpu_opt, mem_opt) = (
        DEGREES[argmin(&su_curve)],
        DEGREES[argmin(&cpu_curve)],
        DEGREES[argmin(&mem_curve)],
    );
    let psu_opt_analytic = model.psu_opt(N, &profile);
    println!(
        "optima: single-user p*={su_opt}, CPU-bound p*={cpu_opt}, \
         memory-bound p*={mem_opt} (analytic p_su-opt = {psu_opt_analytic})"
    );
    check("single-user curve falls then rises (U-shape)", {
        let i = argmin(&su_curve);
        i > 0 && su_curve[0] > su_curve[i] && su_curve[su_curve.len() - 1] >= su_curve[i]
    });
    // Fig. 1's x-axis reference is SU-OPT, the analytic optimum (the
    // simulated single-user curve has a broad plateau around it).
    check(
        "CPU bottleneck shifts the optimum below p_su-opt (Fig. 1b)",
        cpu_opt < psu_opt_analytic,
    );
    // Fig. 1c: under a memory bottleneck the optimum moves right to
    // gather aggregate memory — above the CPU-bound optimum and at least
    // to the no-spill degree ceil(table_pages / buffer_pages), which sits
    // at p_su-opt here (131.25 pages / 5 pages per PE ≈ 27 of 40 PEs).
    check(
        "memory bottleneck shifts the optimum right, to ≥ p_su-opt (Fig. 1c)",
        mem_opt >= psu_opt_analytic && mem_opt > cpu_opt,
    );
    check(
        "analytic model optimum within the simulated single-user plateau",
        {
            let pa = DEGREES[argmin(&analytic)];
            let rt_at = |p: u32| su_curve[DEGREES.iter().position(|&d| d == p).expect("in sweep")];
            rt_at(pa) <= su_curve[argmin(&su_curve)] * 1.25
        },
    );

    write_results_json(
        "fig1",
        &[
            ("single-user".into(), su),
            ("cpu-bound".into(), cpu),
            ("memory-bound".into(), mem),
        ],
    );
    shape_verdict()
}
