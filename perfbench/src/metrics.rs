//! Metric derivation: end-to-end metrics from untraced passes, per-layer
//! metrics from a traced pass, and the JSON lines the benchmark prints.
//!
//! A metric whose sample set is empty (an idle work class, a latency
//! percentile over too few completions) is *absent*: it carries no value,
//! is printed as `absent`, and never reaches the result line as a number.

use crate::{median, profile_secs, PlainRun, TracedRun, EVENT_KINDS, SIM_PASSES};
use serde_json::Value;
use snsim::metrics::ClassSummary;
use snsim::Summary;

/// Fewest completions a per-run p95 is reported over.
pub const MIN_P95_SAMPLES: u64 = 200;

/// End-to-end metrics the result line carries: those that are present and
/// non-zero on every workload (`BENCHMARK.json` lists the same names).
pub const RESULT_END_TO_END: [&str; 5] = [
    "wall_s",
    "setup_s",
    "cpu_s",
    "peak_rss_mb",
    "completed_per_sim_s",
];

/// Per-layer metrics that can be absent, and so stay off the result line.
pub const OPTIONAL_PER_LAYER: [&str; 1] = ["engine.join_degree_avg"];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `host` (simulator cost), `sim` (model output) or a layer name.
    pub tag: &'static str,
    pub value: Option<f64>,
    /// Sample count behind a latency or a ratio.
    pub samples: Option<u64>,
}

fn metric(name: impl Into<String>, unit: &'static str, tag: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        tag,
        value: Some(value),
        samples: None,
    }
}

fn sampled(name: &str, unit: &'static str, value: Option<f64>, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        tag: "sim",
        value,
        samples: Some(samples),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Join,
    Oltp,
}

fn class_of(c: &ClassSummary) -> Option<Class> {
    if c.name.starts_with("join") {
        Some(Class::Join)
    } else if c.name.contains("debit") || c.name.contains("oltp") {
        Some(Class::Oltp)
    } else {
        None
    }
}

/// Every number the benchmark reads out of one run's summary (idle
/// classes contribute nothing), for the finiteness check.
pub fn run_values(s: &Summary) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = s
        .classes
        .iter()
        .filter(|c| c.completed > 0)
        .flat_map(|c| {
            [
                (format!("{}.mean_ms", c.name), c.mean_ms),
                (format!("{}.p95_ms", c.name), c.p95_ms),
            ]
        })
        .collect();
    v.extend([
        ("measured_seconds".to_string(), s.measured_seconds),
        ("queue_wait_ms_mean".to_string(), s.queue_wait_ms_mean),
        ("queue_wait_ms_p95".to_string(), s.queue_wait_ms_p95),
        ("stale_reads_p95_ms".to_string(), s.stale_reads_p95_ms),
        ("avg_join_degree".to_string(), s.avg_join_degree),
    ]);
    v
}

/// The simulated (model-output) end-to-end metrics over a workload's
/// summaries.
pub fn sim_metrics(summaries: &[Summary]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (class, prefix) in [(Class::Join, "join_resp_ms"), (Class::Oltp, "oltp_resp_ms")] {
        let cs: Vec<&ClassSummary> = summaries
            .iter()
            .flat_map(|s| &s.classes)
            .filter(|c| class_of(c) == Some(class))
            .collect();
        let total: u64 = cs.iter().map(|c| c.completed).sum();
        let mean = (total > 0).then(|| {
            cs.iter()
                .map(|c| c.completed as f64 * c.mean_ms)
                .sum::<f64>()
                / total as f64
        });
        out.push(sampled(&format!("{prefix}_mean"), "ms", mean, total));
        let worst = cs
            .iter()
            .filter(|c| c.completed >= MIN_P95_SAMPLES)
            .max_by(|a, b| a.p95_ms.total_cmp(&b.p95_ms));
        out.push(match worst {
            Some(c) => sampled(&format!("{prefix}_p95"), "ms", Some(c.p95_ms), c.completed),
            None => sampled(&format!("{prefix}_p95"), "ms", None, total),
        });
    }
    let completed: u64 = summaries
        .iter()
        .flat_map(|s| &s.classes)
        .map(|c| c.completed)
        .sum();
    let measured: f64 = summaries.iter().map(|s| s.measured_seconds).sum();
    out.push(sampled(
        "completed_per_sim_s",
        "1/s",
        Some(completed as f64 / measured),
        completed,
    ));
    let arrivals: u64 = summaries.iter().map(|s| s.arrivals).sum();
    let rejected: u64 = summaries.iter().map(|s| s.rejected).sum();
    out.push(sampled(
        "rejected_frac",
        "frac",
        (arrivals > 0).then(|| rejected as f64 / arrivals as f64),
        arrivals,
    ));
    let wait = summaries
        .iter()
        .map(|s| s.queue_wait_ms_p95)
        .fold(0.0, f64::max);
    out.push(sampled("queue_wait_ms_p95", "ms", Some(wait), arrivals));
    out
}

/// End-to-end metrics of repeated untraced passes: host metrics are the
/// medians over passes (`setup_s` over the dedicated set-up samples
/// `setups`), sim metrics pool the summaries of the first
/// [`SIM_PASSES`] passes.
pub fn end_to_end(passes: &[PlainRun], setups: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let host = |f: fn(&PlainRun) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut out = vec![
        metric("wall_s", "s", "host", host(|p| p.wall_s)),
        metric("setup_s", "s", "host", median(setups)),
        metric("cpu_s", "s", "host", host(|p| p.cpu_s)),
        metric("peak_rss_mb", "MB", "host", peak_rss_mb),
    ];
    let pooled: Vec<Summary> = passes[..SIM_PASSES.min(passes.len())]
        .iter()
        .flat_map(|p| p.summaries.iter().cloned())
        .collect();
    out.extend(sim_metrics(&pooled));
    out
}

/// Per-layer metrics of one traced pass.
pub fn per_layer(run: &TracedRun) -> Vec<Metric> {
    let s = &run.summaries;
    let sum = |f: fn(&Summary) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&Summary) -> f64| s.iter().map(f).fold(0.0, f64::max);
    let mean = |f: fn(&Summary) -> f64| s.iter().map(f).sum::<f64>() / s.len() as f64;
    let spans = &run.spans;
    let loop_s = spans.wall.as_secs_f64();

    let mut out = vec![
        metric("scenario.lower_s", "s", "workload", run.lower_s),
        metric("system.new_s", "s", "system", run.new_s),
        metric("simkit.events", "count", "simkit", spans.events as f64),
        metric("simkit.pop_s", "s", "simkit", spans.pop.as_secs_f64()),
        metric(
            "simkit.events_per_sec",
            "1/s",
            "simkit",
            spans.events as f64 / loop_s,
        ),
    ];
    for (k, kind) in EVENT_KINDS.iter().enumerate() {
        out.push(metric(
            format!("system.handle.{kind}_s"),
            "s",
            "system",
            spans.handle[k].as_secs_f64(),
        ));
        out.push(metric(
            format!("system.handle.{kind}.n"),
            "count",
            "system",
            spans.handled[k] as f64,
        ));
    }

    let joins_of = |x: &Summary| -> u64 {
        x.classes
            .iter()
            .filter(|c| class_of(c) == Some(Class::Join))
            .map(|c| c.completed)
            .sum()
    };
    let joins: u64 = s.iter().map(joins_of).sum();
    let join_degree = (joins > 0).then(|| {
        s.iter()
            .map(|x| joins_of(x) as f64 * x.avg_join_degree)
            .sum::<f64>()
            / joins as f64
    });
    let p = &run.profile;
    out.extend([
        metric("engine.drain_s", "s", "engine", spans.drain.as_secs_f64()),
        metric(
            "engine.handle_s",
            "s",
            "engine",
            profile_secs(p, "sub:engine_handle"),
        ),
        metric("engine.aborted", "count", "engine", sum(|x| x.aborted)),
        Metric {
            name: "engine.join_degree_avg".into(),
            unit: "PEs",
            tag: "engine",
            value: join_degree,
            samples: Some(joins),
        },
        metric(
            "hardware.exec_actions_s",
            "s",
            "hardware",
            profile_secs(p, "sub:exec_actions"),
        ),
        metric(
            "hardware.cpu_util_avg",
            "frac",
            "hardware",
            mean(|x| x.avg_cpu_util),
        ),
        metric(
            "hardware.cpu_util_p95",
            "frac",
            "hardware",
            max(|x| x.p95_cpu_util),
        ),
        metric(
            "hardware.disk_util_avg",
            "frac",
            "hardware",
            mean(|x| x.avg_disk_util),
        ),
        metric(
            "hardware.disk_util_p95",
            "frac",
            "hardware",
            max(|x| x.p95_disk_util),
        ),
        metric(
            "hardware.net_util_avg",
            "frac",
            "hardware",
            mean(|x| x.avg_net_util),
        ),
        metric(
            "hardware.net_util_p95",
            "frac",
            "hardware",
            max(|x| x.p95_net_util),
        ),
        metric(
            "hardware.messages",
            "count",
            "hardware",
            sum(|x| x.messages),
        ),
        metric(
            "dbmodel.mem_util_avg",
            "frac",
            "dbmodel",
            mean(|x| x.avg_mem_util),
        ),
        metric(
            "dbmodel.mem_util_p95",
            "frac",
            "dbmodel",
            max(|x| x.p95_mem_util),
        ),
        metric(
            "dbmodel.spill_pages",
            "count",
            "dbmodel",
            sum(|x| x.spill_pages),
        ),
        metric(
            "dbmodel.temp_reads",
            "count",
            "dbmodel",
            sum(|x| x.temp_reads),
        ),
        metric(
            "dbmodel.mem_waits",
            "count",
            "dbmodel",
            sum(|x| x.mem_waits),
        ),
        metric(
            "dbmodel.deadlock_victims",
            "count",
            "dbmodel",
            sum(|x| x.deadlock_victims),
        ),
        metric(
            "lb_core.broker_sample_s",
            "s",
            "lb_core",
            profile_secs(p, "sub:broker_sampling"),
        ),
        metric(
            "lb_core.broker_merge_s",
            "s",
            "lb_core",
            profile_secs(p, "sub:broker_merge"),
        ),
        metric(
            "lb_core.policy_switches",
            "count",
            "lb_core",
            sum(|x| x.policy_switches),
        ),
        metric(
            "lb_core.migrations",
            "count",
            "lb_core",
            sum(|x| x.migrations),
        ),
        metric(
            "lb_core.stale_reads_p95_ms",
            "ms",
            "lb_core",
            max(|x| x.stale_reads_p95_ms),
        ),
        metric(
            "lb_core.false_suspicions",
            "count",
            "lb_core",
            sum(|x| x.false_suspicions),
        ),
        metric(
            "sched.admission_pump_s",
            "s",
            "sched",
            profile_secs(p, "sub:admission_pump"),
        ),
        metric("sched.arrivals", "count", "sched", sum(|x| x.arrivals)),
        metric(
            "sched.peak_queue_depth",
            "count",
            "sched",
            max(|x| x.peak_queue_depth as f64),
        ),
        metric("sched.queue_wait_ms_mean", "ms", "sched", {
            let arrivals = sum(|x| x.arrivals);
            s.iter()
                .map(|x| x.arrivals as f64 * x.queue_wait_ms_mean)
                .sum::<f64>()
                / arrivals.max(1.0)
        }),
        metric(
            "sched.shrunk_admissions",
            "count",
            "sched",
            sum(|x| x.shrunk_admissions),
        ),
        metric("sched.rejected", "count", "sched", sum(|x| x.rejected)),
        metric("trace.loop_s", "s", "trace", loop_s),
        metric(
            "trace.unattributed_s",
            "s",
            "trace",
            spans.unattributed().as_secs_f64(),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            "trace",
            loop_s / run.untraced_s - 1.0,
        ),
    ]);
    out
}

/// The names the result line carries for a mode.
pub fn result_names(all: &[Metric], traced: bool) -> Vec<String> {
    if traced {
        all.iter()
            .map(|m| m.name.clone())
            .filter(|n| !OPTIONAL_PER_LAYER.contains(&n.as_str()))
            .collect()
    } else {
        RESULT_END_TO_END.iter().map(|n| n.to_string()).collect()
    }
}

pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and the named
/// metrics. A named metric that is absent or not finite is left out and
/// makes the line incorrect.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    all: &[Metric],
    names: &[String],
) -> String {
    let mut ok = correct;
    let mut entries = Vec::new();
    for name in names {
        match all
            .iter()
            .find(|m| &m.name == name)
            .and_then(|m| m.value.map(|v| (m, v)))
        {
            Some((m, v)) if v.is_finite() => entries.push((
                name.clone(),
                object(vec![
                    ("value", Value::F64(v)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )),
            _ => ok = false,
        }
    }
    serde_json::to_string(&object(vec![
        ("correct", Value::Bool(ok)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Object(entries)),
    ]))
    .expect("result serializes")
}

/// Every metric, absent ones as `null`, with unit, tag and sample count.
pub fn metrics_value(all: &[Metric]) -> Value {
    Value::Object(
        all.iter()
            .map(|m| {
                let mut e = vec![
                    (
                        "value",
                        m.value
                            .filter(|v| v.is_finite())
                            .map_or(Value::Null, Value::F64),
                    ),
                    ("unit", Value::Str(m.unit.into())),
                    ("tag", Value::Str(m.tag.into())),
                ];
                if let Some(n) = m.samples {
                    e.push(("samples", Value::U64(n)));
                }
                (m.name.clone(), object(e))
            })
            .collect(),
    )
}

/// One human-readable table row.
pub fn table_row(m: &Metric) -> String {
    let value = match m.value {
        Some(v) => format!("{v:.6}"),
        None => "absent".into(),
    };
    let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
    format!(
        "  {:<32} {:>18} {:<6} {}{}",
        m.name, value, m.unit, m.tag, samples
    )
}
