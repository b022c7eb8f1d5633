//! Shared infrastructure for the figure-regeneration harnesses and the
//! scenario lab.
//!
//! Every binary in `src/bin/fig*.rs` regenerates one figure of Rahm &
//! Marek, VLDB 1995 (see README.md, "Reproducing the paper's figures");
//! since the scenario lab landed they are thin wrappers over bundled specs in
//! `scenarios/` driven by the [`lab`] module, which is also the engine of
//! the general-purpose `lab` binary (`cargo run --release --bin lab`).
//! Output is a paper-style table on stdout plus machine-readable JSON/CSV
//! files under `results/`.

pub mod lab;

use snsim::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Write a JSON result file under `results/` (created on demand) in the
/// legacy figure format: an array of `{series, points}` groups. The
/// scenario lab's own writers ([`lab::write_lab_json`]) use a different,
/// per-run format and a `.runs.json` suffix so the two never collide.
pub fn write_results_json(name: &str, summaries: &[(String, Vec<Summary>)]) {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let payload: Vec<serde_json::Value> = summaries
        .iter()
        .map(|(series, sums)| {
            serde_json::json!({
                "series": series,
                "points": sums,
            })
        })
        .collect();
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("results written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

/// Shape claims that failed so far in this process.
static VIOLATIONS: AtomicUsize = AtomicUsize::new(0);

/// Check a qualitative claim of the paper: print it, and record it as a
/// violation if it fails. The harness keeps going, so one run reports
/// every claim; [`shape_verdict`] turns the record into the exit code.
pub fn check(claim: &str, ok: bool) {
    if ok {
        println!("  [shape OK] {claim}");
    } else {
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        println!("  [SHAPE VIOLATION] {claim}");
    }
}

fn violations() -> usize {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// The process exit code after all checks: failure if any claim failed.
pub fn shape_verdict() -> ExitCode {
    match violations() {
        0 => ExitCode::SUCCESS,
        n => {
            println!("{n} shape violation(s)");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_false_claim_is_reported_as_a_failure() {
        check("a true claim", true);
        assert_eq!(violations(), 0);
        assert_eq!(shape_verdict(), ExitCode::SUCCESS);
        check("a false claim", false);
        assert_eq!(violations(), 1);
        assert_eq!(shape_verdict(), ExitCode::FAILURE);
    }
}
