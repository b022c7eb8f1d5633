//! Benchmark runner. `run.py` builds this binary and forwards its
//! arguments; see `README.md` for the metrics and workloads.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --print-references
//! ```
//!
//! Standard output ends with one JSON result line (`correct`, `attempted`,
//! `failed`, `metrics`). Before it come a table and a `REPORT` line with
//! every metric, absent ones included, for `run.py --diff`.

use perfbench::metrics::{self, Metric};
use perfbench::{
    check_run, digest, lower, pass_seed, run_plain, run_traced, workload, Workload, DEFAULT_SEED,
    SIM_PASSES, WORKLOADS,
};
use serde_json::Value;
use std::time::Instant;

/// Set-ups (lowering plus every `System::new`) are timed before every
/// pass, at least this many and for at least `SETUP_SECONDS`; `setup_s`
/// is their median. Spreading them over the run, like the passes, keeps
/// a short fast or slow phase of the host from setting it.
const SETUP_SAMPLES: usize = 5;
const SETUP_SECONDS: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-references" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(args))
}

/// Verdicts of a set of runs: how many were attempted and which failed.
#[derive(Default)]
struct Verdicts {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdicts {
    fn run(&mut self, label: String, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }
}

/// Untraced passes until the time budget is spent; end-to-end metrics.
/// Pass `k` runs at `pass_seed(seed, k)`, so a run averages over several
/// seeds' worth of work instead of repeating one seed's.
fn plain(w: &Workload, args: &Args, v: &mut Verdicts) -> (Vec<Metric>, Value) {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(lower(w, args.seed).len());
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    // Read once the fixed-seed passes are done, so the high-water mark
    // does not depend on how many more passes the time budget allowed.
    let mut peak_rss_mb = 0.0;
    loop {
        let (sampled, t) = (setups.len(), Instant::now());
        while setups.len() < sampled + SETUP_SAMPLES || t.elapsed().as_secs_f64() < SETUP_SECONDS {
            setups.push(perfbench::time_setup(w, args.seed));
        }
        let seed = pass_seed(args.seed, passes.len());
        let pass = run_plain(w, seed, threads);
        let last = pass.wall_s;
        for (i, s) in pass.summaries.iter().enumerate() {
            v.run(
                format!("pass {} config {i}", passes.len()),
                check_run(w, seed, i, s),
            );
        }
        passes.push(pass);
        if passes.len() == SIM_PASSES {
            peak_rss_mb = perfbench::peak_rss_mb();
        }
        let spent = start.elapsed().as_secs_f64();
        if passes.len() >= SIM_PASSES && spent + SETUP_SECONDS + last > args.seconds {
            break;
        }
    }
    let all = metrics::end_to_end(&passes, &setups, peak_rss_mb);
    let detail = metrics::object(vec![
        ("threads", Value::U64(threads as u64)),
        ("passes", Value::U64(passes.len() as u64)),
        (
            "events",
            Value::U64(passes[0].summaries.iter().map(|s| s.events).sum()),
        ),
        (
            "pass_wall_s",
            Value::Array(passes.iter().map(|p| Value::F64(p.wall_s)).collect()),
        ),
        ("setup_samples", Value::U64(setups.len() as u64)),
    ]);
    (all, detail)
}

/// One traced pass; per-layer metrics.
fn traced(w: &Workload, args: &Args, v: &mut Verdicts) -> (Vec<Metric>, Value) {
    let run = run_traced(w, args.seed);
    for (i, s) in run.summaries.iter().enumerate() {
        let mut problems = check_run(w, args.seed, i, s);
        if run.traced_events[i] != s.events {
            problems.push(format!(
                "traced loop dispatched {} events, summary counts {}",
                run.traced_events[i], s.events
            ));
        }
        if digest(&run.traced[i]) != digest(s) {
            problems.push("outside-timed summary differs from the untraced one".into());
        }
        if digest(&run.profiled[i]) != digest(s) {
            problems.push("profiled summary differs from the untraced one".into());
        }
        v.run(format!("config {i}"), problems);
    }
    let detail = metrics::object(vec![("threads", Value::U64(1))]);
    (metrics::per_layer(&run), detail)
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            for w in &WORKLOADS {
                let digests: Vec<String> = lower(w, DEFAULT_SEED)
                    .into_iter()
                    .map(|cfg| format!("{:#018x}", digest(&snsim::run_one(cfg))))
                    .collect();
                println!("{}: [{}]", w.name, digests.join(", "));
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };

    let mut v = Verdicts::default();
    let (all, detail) = if args.trace {
        traced(w, &args, &mut v)
    } else {
        plain(w, &args, &mut v)
    };

    println!(
        "perfbench {} seed={} mode={} runs={} failed={}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        v.attempted,
        v.failed
    );
    for m in &all {
        println!("{}", metrics::table_row(m));
    }
    for p in v.problems.iter().take(20) {
        println!("  FAILED {p}");
    }
    let report = metrics::object(vec![
        ("workload", Value::Str(w.name.into())),
        ("seed", Value::U64(args.seed)),
        ("traced", Value::Bool(args.trace)),
        ("detail", detail),
        ("metrics", metrics::metrics_value(&all)),
        (
            "problems",
            Value::Array(v.problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
    ]);
    println!(
        "REPORT {}",
        serde_json::to_string(&report).expect("report serializes")
    );
    let names = metrics::result_names(&all, args.trace);
    println!(
        "{}",
        metrics::result_line(v.failed == 0, v.attempted, v.failed, &all, &names)
    );
}
