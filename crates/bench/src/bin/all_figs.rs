//! Regenerate every figure in sequence (`--full` for the long runs).
//! Every figure runs even if an earlier one fails; the process exits
//! non-zero if any figure reported a shape violation or crashed.
//!
//! Run: `cargo run --release -p bench --bin all_figs [--full]`

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failed = Vec::new();
    for fig in ["fig1", "fig5", "fig6", "fig7", "fig8", "fig9"] {
        println!("================ {fig} ================");
        let mut cmd = Command::new(exe_dir.join(fig));
        if full {
            cmd.arg("--full");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {fig} (build bench binaries first): {e}"));
        if !status.success() {
            failed.push(fig);
        }
    }
    println!("all figures regenerated; see results/*.json");
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("failed (shape violation or crash): {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
