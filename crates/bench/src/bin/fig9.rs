//! Fig. 9 — "Static vs. dynamic load balancing for mixed workloads"
//! (multi-user join 0.075 QPS/PE; 5 disks per PE; OLTP at 100 TPS per
//! OLTP node).
//!
//! Thin wrapper over `scenarios/fig9a.json` (OLTP on the A-nodes, 20% of
//! PEs) and `scenarios/fig9b.json` (OLTP on the B-nodes, 80%).
//!
//! Run: `cargo run --release -p bench --bin fig9 [--full]`

use bench::lab::{self, RunLength};
use bench::{check, shape_verdict, write_results_json};
use snsim::{format_table, Summary};
use std::process::ExitCode;

const SPEC_A: &str = include_str!("../../../../scenarios/fig9a.json");
const SPEC_B: &str = include_str!("../../../../scenarios/fig9b.json");

fn main() -> ExitCode {
    let len = RunLength::from_args();
    for (panel, json, name) in [
        ("9a (OLTP on A-nodes)", SPEC_A, "fig9a"),
        ("9b (OLTP on B-nodes)", SPEC_B, "fig9b"),
    ] {
        let (_, rows) = lab::run_embedded(json, name, len);
        let (xs, series) = lab::series_by_strategy(&rows, Summary::join_resp_ms);
        let (_, oltp_series) =
            lab::series_by_strategy(&rows, |s| s.oltp_resp_ms().unwrap_or(f64::NAN));

        println!(
            "{}",
            format_table(
                &format!("Fig. {panel}: join response time [ms]"),
                "#PE",
                &xs,
                &series,
            )
        );
        println!(
            "{}",
            format_table(
                &format!("Fig. {panel}: OLTP response time [ms]"),
                "#PE",
                &xs,
                &oltp_series,
            )
        );

        let get = |name: &str| -> &Vec<f64> {
            &series.iter().find(|(n, _)| n == name).expect("series").1
        };
        let last = xs.len() - 1;
        check(
            "dynamic strategies beat static RANDOM schemes at 80 PE",
            get("OPT-IO-CPU")[last] < get("psu-opt+RANDOM")[last]
                && get("pmu-cpu+LUM")[last] < get("psu-opt+RANDOM")[last],
        );
        check(
            "LUM helps even with a static degree (psu-noIO+LUM < psu-noIO+RANDOM)",
            get("psu-noIO+LUM")[last] <= get("psu-noIO+RANDOM")[last],
        );
        check(
            "OPT-IO-CPU at 80 PE beats both RANDOM statics and is at least \
             tied with pmu-cpu+LUM (§5.3's integrated-vs-isolated claim)",
            get("OPT-IO-CPU")[last] < get("psu-opt+RANDOM")[last]
                && get("OPT-IO-CPU")[last] < get("psu-noIO+RANDOM")[last]
                && get("OPT-IO-CPU")[last] <= get("pmu-cpu+LUM")[last] * 1.05,
        );
        if panel.starts_with("9a") {
            check(
                "small systems: OPT-IO-CPU beats pmu-cpu+LUM (integrated wins, §5.3)",
                get("OPT-IO-CPU")[0] <= get("pmu-cpu+LUM")[0] * 1.05,
            );
        }
        write_results_json(name, &lab::rows_by_strategy(&rows));
    }
    shape_verdict()
}
