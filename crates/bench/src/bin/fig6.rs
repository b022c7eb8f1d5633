//! Fig. 6 — "Dynamic degree of join parallelism"
//! (multi-user join 0.25 QPS/PE; 1% scan selectivity).
//!
//! Thin wrapper over the bundled `scenarios/fig6.json` and
//! `scenarios/single_user_baseline.json` specs: the scenario lab runs the
//! sweep, this binary re-checks the paper's qualitative claims.
//!
//! Run: `cargo run --release -p bench --bin fig6 [--full]`

use bench::lab::{self, RunLength};
use bench::{check, shape_verdict, write_results_json};
use snsim::{format_table, Summary};
use std::process::ExitCode;

const SPEC: &str = include_str!("../../../../scenarios/fig6.json");
const BASELINE: &str = include_str!("../../../../scenarios/single_user_baseline.json");

fn main() -> ExitCode {
    let len = RunLength::from_args();
    let (_, mut rows) = lab::run_embedded(SPEC, "fig6", len);
    let (_, baseline) = lab::run_embedded(BASELINE, "single_user_baseline", len);
    for mut row in baseline {
        row.strategy = "single-user(psu-opt)".into();
        rows.push(row);
    }

    let (xs, series) = lab::series_by_strategy(&rows, Summary::join_resp_ms);
    println!(
        "{}",
        format_table(
            "Fig. 6 — dynamic degree of join parallelism: join response time [ms]",
            "#PE",
            &xs,
            &series,
        )
    );

    // Qualitative claims from §5.2.
    let get =
        |name: &str| -> &Vec<f64> { &series.iter().find(|(n, _)| n == name).expect("series").1 };
    let last = xs.len() - 1;
    check(
        "MIN-IO and MIN-IO-SUOPT are the worst dynamic strategies at 80 PE",
        get("MIN-IO")[last] > get("pmu-cpu+LUM")[last]
            && get("MIN-IO-SUOPT")[last] > get("pmu-cpu+LUM")[last],
    );
    check(
        "pmu-cpu+LUM beats pmu-cpu+RANDOM (state-aware selection wins)",
        get("pmu-cpu+LUM")[last] <= get("pmu-cpu+RANDOM")[last] * 1.05,
    );
    check(
        "OPT-IO-CPU is competitive with pmu-cpu+LUM (within 20%)",
        get("OPT-IO-CPU")[last] <= get("pmu-cpu+LUM")[last] * 1.2,
    );
    check(
        "CPU-aware reduction keeps 80-PE multi-user response times acceptable \
         (best CPU-aware scheme < 8x single-user; CPU-blind schemes diverge)",
        get("pmu-cpu+LUM")[last].min(get("OPT-IO-CPU")[last])
            <= get("single-user(psu-opt)")[last] * 8.0,
    );

    write_results_json("fig6", &lab::rows_by_strategy(&rows));
    shape_verdict()
}
