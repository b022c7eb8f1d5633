//! Fig. 8 — "Influence of join complexity" (60 PE).
//!
//! Thin wrapper over `scenarios/fig8.json`: the spec pairs each scan
//! selectivity (0.1 / 1 / 2 / 5 %) with an arrival rate keeping the
//! system highly utilized (the paper: "at least one of the physical
//! resources was highly loaded (>75%)") via the `paired` sweep axis.
//! Reported: relative response-time improvement of each dynamic strategy
//! vs. the static baseline `p_su-opt + RANDOM`.
//!
//! Run: `cargo run --release -p bench --bin fig8 [--full]`

use bench::lab::{self, RunLength};
use bench::{check, shape_verdict, write_results_json};
use snsim::{format_table, Summary};
use std::process::ExitCode;

const SPEC: &str = include_str!("../../../../scenarios/fig8.json");
const BASELINE: &str = "psu-opt+RANDOM";

fn main() -> ExitCode {
    let len = RunLength::from_args();
    let (_, rows) = lab::run_embedded(SPEC, "fig8", len);

    let (xs, resp) = lab::series_by_strategy(&rows, Summary::join_resp_ms);
    let base = &resp
        .iter()
        .find(|(n, _)| n == BASELINE)
        .expect("baseline series")
        .1;
    let series: Vec<(String, Vec<f64>)> = resp
        .iter()
        .filter(|(n, _)| n != BASELINE)
        .map(|(n, ys)| {
            let improvement = ys
                .iter()
                .zip(base.iter())
                .map(|(y, b)| (1.0 - y / b) * 100.0)
                .collect();
            (n.clone(), improvement)
        })
        .collect();

    println!(
        "{}",
        format_table(
            "Fig. 8 — join complexity: response-time improvement vs psu-opt+RANDOM [%]",
            "sel",
            &xs,
            &series,
        )
    );

    let get =
        |name: &str| -> &Vec<f64> { &series.iter().find(|(n, _)| n == name).expect("series").1 };
    check(
        "dynamic strategies beat the static baseline for small joins (0.1%)",
        get("pmu-cpu+LUM")[0] > 0.0 && get("MIN-IO")[0] > 0.0,
    );
    check(
        "improvement shrinks as join complexity grows (pmu-cpu+LUM)",
        get("pmu-cpu+LUM")[0] > get("pmu-cpu+LUM")[3],
    );
    check(
        "at 5% selectivity every strategy's improvement is below its \
         small-join (0.1%) improvement (potential shrinks near p ≈ n)",
        ["psu-noIO+LUM", "MIN-IO", "pmu-cpu+LUM", "OPT-IO-CPU"]
            .iter()
            .all(|s| get(s)[3] < get(s)[0]),
    );

    write_results_json("fig8", &lab::rows_by_strategy(&rows));
    shape_verdict()
}
