//! Trace tooling: synthesize a workload trace, round-trip it through the
//! binary codec, and report its statistics — the stand-in for the paper's
//! "real-life database traces" input path.
//!
//! Run with: `cargo run --release --example trace_replay`

use simkit::SimRng;
use workload::trace::{decode, encode, synthesize};

fn main() {
    let mut rng = SimRng::new(2026);

    // Synthesize a mixed trace: joins at 20/s (class 0) and OLTP at
    // 1600/s (class 1) over 40 PEs.
    let mut records = synthesize(&mut rng, 2_000, 20.0, 0, 0, 40, 10_000);
    records.extend(synthesize(&mut rng, 20_000, 1_600.0, 1, 1, 40, 0));
    records.sort_by_key(|r| r.at);

    let bytes = encode(&records);
    println!(
        "trace: {} events, {} bytes ({:.1} B/event)",
        records.len(),
        bytes.len(),
        bytes.len() as f64 / records.len() as f64
    );

    let decoded = decode(&bytes).expect("codec round-trip");
    assert_eq!(decoded, records);

    // Basic statistics a replayer would sanity-check before a run.
    let span = decoded.last().unwrap().at.as_secs_f64();
    let joins = decoded.iter().filter(|r| r.kind == 0).count();
    let oltp = decoded.len() - joins;
    let mut per_pe = [0u32; 40];
    for r in &decoded {
        per_pe[r.coordinator as usize] += 1;
    }
    let max_pe = per_pe.iter().max().unwrap();
    let min_pe = per_pe.iter().min().unwrap();
    println!(
        "span: {span:.1}s  joins: {joins} ({:.1}/s)  oltp: {oltp}",
        joins as f64 / span
    );
    println!("coordinator spread: min {min_pe} / max {max_pe} events per PE");
    println!("codec round-trip OK");
}
