//! Tests of the benchmark's own code: the outside-timed loop, metric
//! naming, absent metrics, the correctness checks, the recorded reference
//! digests and the agreement with `BENCHMARK.json`.

use perfbench::metrics::{self, Metric, OPTIONAL_PER_LAYER, RESULT_END_TO_END};
use perfbench::{
    check_run, digest, lower, run_outside_timed, run_plain, run_traced, LoopSpans, Workload,
    DEFAULT_SEED, WORKLOADS,
};
use simkit::{Dispatcher, SimTime};
use snsim::{run_one, System};

/// 20 PEs of joins over a debit-credit floor: every event kind fires.
const MIXED_20: Workload = Workload {
    name: "mixed_20",
    spec: r#"{"name": "mixed_20", "base": {"n_pes": 20, "workload": "Mixed",
        "qps_per_pe": 0.25, "tps_per_node": 20.0, "sim_secs": 4.0, "warmup_secs": 1.0}}"#,
    references: &[],
};

/// Pure OLTP: the join class exists but never sees an arrival.
const IDLE_JOINS: Workload = Workload {
    name: "idle_joins",
    spec: r#"{"name": "idle_joins", "base": {"n_pes": 20, "workload": "Mixed",
        "qps_per_pe": 0.0, "tps_per_node": 20.0, "sim_secs": 3.0, "warmup_secs": 1.0}}"#,
    references: &[],
};

#[test]
fn outside_timed_loop_matches_dispatcher() {
    let cfg = lower(&MIXED_20, 7).remove(0);
    let reference = run_one(cfg.clone());

    let mut sys = System::new(cfg.clone());
    let end = SimTime::ZERO + cfg.sim_time;
    let dispatched = Dispatcher::run_until(&mut sys, end);
    let via_dispatcher = sys.run();

    let mut spans = LoopSpans::default();
    let traced = run_outside_timed(&mut System::new(cfg), &mut spans);

    assert_eq!(dispatched, reference.events);
    assert_eq!(spans.events, reference.events);
    assert_eq!(spans.handled.iter().sum::<u64>(), spans.events);
    assert_eq!(digest(&via_dispatcher), digest(&reference));
    assert_eq!(digest(&traced), digest(&reference));
    for kind in [0, 1, 4, 5] {
        assert!(spans.handled[kind] > 0, "event kind {kind} never fired");
    }
    let covered = spans.pop + spans.handle.iter().sum::<std::time::Duration>() + spans.drain;
    assert_eq!(covered + spans.unattributed(), spans.wall);
}

/// End-to-end and per-layer metrics of one small untraced and traced run.
fn both_metrics(w: &Workload) -> (Vec<Metric>, Vec<Metric>) {
    let pass = run_plain(w, 3, 2);
    let e2e = metrics::end_to_end(&[pass], &[0.5], perfbench::peak_rss_mb());
    (e2e, metrics::per_layer(&run_traced(w, 3)))
}

fn all_metrics(w: &Workload) -> Vec<Metric> {
    let (mut all, layers) = both_metrics(w);
    all.extend(layers);
    all
}

fn is_name(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let all = all_metrics(&MIXED_20);
    let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
    for m in &all {
        assert!(is_name(&m.name, 64, ""), "bad metric name {:?}", m.name);
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            is_name(m.unit, 16, "/%"),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
}

#[test]
fn idle_class_is_absent_not_infinite() {
    let (e2e, layers) = both_metrics(&IDLE_JOINS);
    let all: Vec<Metric> = e2e.iter().chain(&layers).cloned().collect();
    let get = |n: &str| all.iter().find(|m| m.name == n).expect(n);
    for name in [
        "join_resp_ms_mean",
        "join_resp_ms_p95",
        "engine.join_degree_avg",
    ] {
        assert_eq!(get(name).value, None, "{name} should be absent");
        assert_eq!(get(name).samples, Some(0));
        assert!(metrics::table_row(get(name)).contains("absent"));
    }
    assert!(get("oltp_resp_ms_mean").value.is_some());
    for (traced, set) in [(false, &e2e), (true, &layers)] {
        let names = metrics::result_names(set, traced);
        let line = metrics::result_line(true, 1, 0, set, &names);
        assert!(line.contains(r#""correct":true"#), "{line}");
        for bad in ["inf", "NaN", "null"] {
            assert!(!line.contains(bad), "{bad} in {line}");
        }
    }
    let report = serde_json::to_string(&metrics::metrics_value(&all)).unwrap();
    assert!(
        !report.contains("inf") && !report.contains("NaN"),
        "{report}"
    );
}

#[test]
fn checks_flag_broken_summaries() {
    let cfg = lower(&MIXED_20, 7).remove(0);
    let good = run_one(cfg);
    let check = |s: &snsim::Summary| check_run(&MIXED_20, 7, 0, s);
    assert!(check(&good).is_empty(), "{:?}", check(&good));

    let mut overcounted = good.clone();
    overcounted.rejected = overcounted.arrivals;
    assert!(!check(&overcounted).is_empty());

    let mut bad_util = good.clone();
    bad_util.p95_disk_util = 1.5;
    assert!(!check(&bad_util).is_empty());

    let mut not_finite = good.clone();
    not_finite.classes[0].mean_ms = f64::INFINITY;
    assert!(!check(&not_finite).is_empty());

    // A summary that is not the workload's own fails the reference check
    // at the default seed only.
    let w = &WORKLOADS[0];
    assert!(!check_run(w, DEFAULT_SEED, 0, &good).is_empty());
    assert!(check_run(w, 1, 0, &good).is_empty());
}

#[test]
fn references_equal_run_one_at_the_default_seed() {
    for w in &WORKLOADS {
        let cfgs = lower(w, DEFAULT_SEED);
        assert_eq!(cfgs.len(), w.references.len(), "{}", w.name);
        for (i, s) in snsim::run_parallel(cfgs).iter().enumerate() {
            assert_eq!(digest(s), w.references[i], "{} config {i}", w.name);
        }
    }
}

#[test]
fn workloads_run_the_default_serial_path() {
    for w in &WORKLOADS {
        for cfg in lower(w, 5) {
            assert_eq!(cfg.seed, 5);
            assert_eq!(cfg.exec_threads, 0, "{}", w.name);
            assert_eq!(cfg.event_queue, simkit::QueueKind::default(), "{}", w.name);
            assert!(!cfg.trace.enabled, "{}", w.name);
        }
    }
}

/// `BENCHMARK.json` at the repository root names the same workloads and
/// result-line metrics, with the same units, as this crate.
#[test]
fn benchmark_json_matches_the_crate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, Option<String>)> {
        let field = |m: &serde_json::Value, k: &str| m.get(k)?.as_str().map(String::from);
        let items = json.get(key).and_then(|v| v.as_array()).expect(key);
        items
            .iter()
            .map(|m| (field(m, "name").expect("name"), field(m, "unit")))
            .collect()
    };
    let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    let expected: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, expected);

    let (e2e_metrics, layer_metrics) = both_metrics(&MIXED_20);
    let all: Vec<Metric> = e2e_metrics.iter().chain(&layer_metrics).cloned().collect();
    let unit_of = |n: &str| all.iter().find(|m| m.name == n).map(|m| m.unit.to_string());
    let e2e = list("end_to_end");
    let names: Vec<&str> = e2e.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(names, RESULT_END_TO_END);
    let layers = list("per_layer");
    let expected: Vec<String> = metrics::result_names(&layer_metrics, true);
    assert_eq!(
        layers.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
        expected
    );
    for (name, unit) in e2e.iter().chain(&layers) {
        assert_eq!(unit.clone(), unit_of(name), "unit of {name}");
    }
    assert!(OPTIONAL_PER_LAYER
        .iter()
        .all(|n| !expected.iter().any(|e| e == n)));
}
