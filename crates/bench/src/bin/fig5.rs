//! Fig. 5 — "Static degree of parallelism"
//! (multi-user join 0.25 QPS/PE; 1% scan selectivity).
//!
//! Thin wrapper over the bundled `scenarios/fig5.json` and
//! `scenarios/single_user_baseline.json` specs: the scenario lab runs the
//! sweep, this binary re-checks the paper's qualitative claims.
//!
//! Run: `cargo run --release -p bench --bin fig5 [--full]`

use bench::lab::{self, RunLength};
use bench::{check, shape_verdict, write_results_json};
use snsim::{format_table, Summary};
use std::process::ExitCode;

const SPEC: &str = include_str!("../../../../scenarios/fig5.json");
const BASELINE: &str = include_str!("../../../../scenarios/single_user_baseline.json");

fn main() -> ExitCode {
    let len = RunLength::from_args();
    let (_, mut rows) = lab::run_embedded(SPEC, "fig5", len);
    let (_, baseline) = lab::run_embedded(BASELINE, "single_user_baseline", len);
    for mut row in baseline {
        row.strategy = "single-user(psu-opt)".into();
        rows.push(row);
    }

    let (xs, series) = lab::series_by_strategy(&rows, Summary::join_resp_ms);
    println!(
        "{}",
        format_table(
            "Fig. 5 — static degree of parallelism: join response time [ms]",
            "#PE",
            &xs,
            &series,
        )
    );

    // Qualitative claims from §5.2.
    let get =
        |name: &str| -> &Vec<f64> { &series.iter().find(|(n, _)| n == name).expect("series").1 };
    let at80 = |name: &str| get(name)[xs.len() - 1];
    let at10 = |name: &str| get(name)[0];
    check(
        "light load (≤ 20 PE): psu-opt beats psu-noIO (CPU parallelism underused)",
        at10("psu-opt+RANDOM") < at10("psu-noIO+RANDOM"),
    );
    check(
        "RANDOM is the worst selection for psu-noIO at 80 PE",
        at80("psu-noIO+RANDOM") >= at80("psu-noIO+LUM"),
    );
    check(
        "LUM beats LUC for psu-noIO (memory bottleneck dominates, §5.2)",
        at80("psu-noIO+LUM") <= at80("psu-noIO+LUC") * 1.05,
    );
    check(
        "single-user baseline below every multi-user series at 80 PE",
        [
            "psu-noIO+RANDOM",
            "psu-noIO+LUM",
            "psu-opt+RANDOM",
            "psu-opt+LUM",
        ]
        .iter()
        .all(|s| at80(s) > at80("single-user(psu-opt)")),
    );

    write_results_json("fig5", &lab::rows_by_strategy(&rows));
    shape_verdict()
}
