//! The repository benchmark: the simulator's default serial path, driven
//! only through public functions and timed from outside.
//!
//! A *workload* is a scenario spec the benchmark keeps its own copy of
//! (`specs/`), lowered with `snsim::scenario::configs` and re-seeded with
//! `SimConfig::with_seed`. Two kinds of measurement run it:
//!
//! * [`run_plain`] — untraced: `System::new` + `System::run` per config,
//!   spread over worker threads; the end-to-end metrics come from here.
//! * [`run_traced`] — one untraced reference pass, one outside-timed pass
//!   ([`run_outside_timed`]: `EventQueue::pop_next`, `Simulation::handle`
//!   bucketed by event kind, `Simulation::quiesce`) and one
//!   `snsim::run_one_profiled` pass for the sub-phases the simulator
//!   already records; the per-layer metrics come from here.
//!
//! Every run gets a correctness verdict ([`check_run`]), and at the
//! default seed each summary's digest must equal the recorded reference.

pub mod metrics;

use simkit::{EventQueue, SimTime, Simulation};
use snsim::system::Ev;
use snsim::{ProfileReport, SimConfig, Summary, System};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::scenario::ScenarioSpec;

/// The seed every reference digest was recorded at.
pub const DEFAULT_SEED: u64 = 3_735_928_559;

/// One benchmark workload: a frozen scenario spec plus the digests of
/// its summaries at [`DEFAULT_SEED`], one per lowered config.
pub struct Workload {
    pub name: &'static str,
    pub spec: &'static str,
    pub references: &'static [u64],
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oltp_soak",
        spec: include_str!("../specs/oltp_soak.json"),
        references: &[0x65d0624a45d19c38],
    },
    Workload {
        name: "join_soak",
        spec: include_str!("../specs/join_soak.json"),
        references: &[0x965c878b625ee8a1],
    },
    Workload {
        name: "admission_overload",
        spec: include_str!("../specs/admission_overload.json"),
        references: &[
            0x61b0f7b1cfb3e911,
            0x1873f4cbc31258e2,
            0x762808591fa93541,
            0x12aa70c8cade43e7,
            0x896bb54b504f3c27,
            0x61b0f7b1cfb3e911,
            0x20e75d44049da801,
            0xedc5bffee9df602d,
            0xf2805bf6e1c0fbbd,
            0xbda8af8f7a12e49b,
            0x7896299a2376694d,
            0xc1664fc67aac3902,
            0x62e9d6a7596cfefb,
            0x96ad629f38f99ee8,
            0xf1eabdf5233b145e,
        ],
    },
];

/// Untraced passes every run makes; the sim metrics come from exactly
/// these, so they repeat exactly at a fixed seed.
pub const SIM_PASSES: usize = 3;

/// Seed of untraced pass `k` (the replication stride of
/// `snsim::run_reps`); pass 0 runs the given seed itself.
pub fn pass_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64 * 7919)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Parse the frozen spec, lower every run point and apply `seed`.
pub fn lower(w: &Workload, seed: u64) -> Vec<SimConfig> {
    let spec: ScenarioSpec = serde_json::from_str(w.spec).expect("benchmark spec parses");
    snsim::scenario::configs(&spec)
        .into_iter()
        .map(|(_, cfg)| cfg.with_seed(seed))
        .collect()
}

/// FNV-1a over the serialized summary: equal digests mean byte-equal
/// summaries (up to hash collisions).
pub fn digest(s: &Summary) -> u64 {
    let json = serde_json::to_string(s).expect("summary serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One untraced pass over a workload.
pub struct PlainRun {
    /// First lowering to last `Summary` (the makespan for a sweep).
    pub wall_s: f64,
    /// Process CPU over the pass.
    pub cpu_s: f64,
    /// Summaries in config order.
    pub summaries: Vec<Summary>,
}

/// Run every config of `w` once, untraced, on up to `threads` workers.
pub fn run_plain(w: &Workload, seed: u64, threads: usize) -> PlainRun {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let cfgs = lower(w, seed);
    let n = cfgs.len();
    let work = Mutex::new(cfgs.into_iter().enumerate().rev().collect::<Vec<_>>());
    let done: Mutex<Vec<Option<(Summary, Instant)>>> = Mutex::new(vec![None; n]);
    let worker = || loop {
        let Some((i, cfg)) = work.lock().expect("work queue").pop() else {
            break;
        };
        let mut sys = System::new(cfg);
        let summary = sys.run();
        let end = Instant::now();
        drop(sys);
        done.lock().expect("results")[i] = Some((summary, end));
    };
    // A single worker runs on the calling thread: every pass then
    // allocates from the same malloc arena, so peak RSS does not depend on
    // which arena a fresh thread happened to get.
    if threads.min(n) <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(worker);
            }
        });
    }
    let cpu_s = process_cpu_s() - cpu0;
    let done: Vec<_> = done
        .into_inner()
        .expect("results")
        .into_iter()
        .map(|r| r.expect("every config ran"))
        .collect();
    let last = done.iter().map(|r| r.1).max().expect("at least one config");
    PlainRun {
        wall_s: (last - t0).as_secs_f64(),
        cpu_s,
        summaries: done.into_iter().map(|r| r.0).collect(),
    }
}

/// Seconds to lower `w` and build a `System` for every config, serially
/// (each system is dropped before the next is built).
pub fn time_setup(w: &Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    for cfg in lower(w, seed) {
        drop(System::new(cfg));
    }
    t0.elapsed().as_secs_f64()
}

/// Event kinds the outside-timed loop buckets `Simulation::handle` by
/// (the same grouping as the simulator's own dispatch profile).
pub const EVENT_KINDS: [&str; 7] = [
    "arrival",
    "cpu_done",
    "io_done",
    "log_done",
    "network",
    "control_tick",
    "other",
];

pub fn event_kind(ev: &Ev) -> usize {
    match ev {
        Ev::Arrival(_) | Ev::Retry(..) => 0,
        Ev::CpuDone { .. } => 1,
        Ev::IoDone { .. } => 2,
        Ev::LogDone { .. } => 3,
        Ev::Deliver(_) | Ev::LinkFree { .. } => 4,
        Ev::ControlTick => 5,
        Ev::DeadlockTick | Ev::WarmupMark | Ev::Alarm { .. } => 6,
    }
}

/// Outside-timed spans of the dispatch loop, summed over runs.
#[derive(Debug, Clone, Default)]
pub struct LoopSpans {
    /// `EventQueue::peek_time` + `pop_next`.
    pub pop: Duration,
    /// `Simulation::handle` per [`EVENT_KINDS`] entry.
    pub handle: [Duration; 7],
    pub handled: [u64; 7],
    /// `Simulation::quiesce` (the engine drain).
    pub drain: Duration,
    /// Loop start to `Summary`, including the closing `System::run`.
    pub wall: Duration,
    pub events: u64,
}

impl LoopSpans {
    /// Wall time no span covers (loop bookkeeping, the final peek and
    /// the summary's finalization).
    pub fn unattributed(&self) -> Duration {
        let covered = self.pop + self.handle.iter().sum::<Duration>() + self.drain;
        self.wall.saturating_sub(covered)
    }
}

/// Drive `sys` to its horizon with the same loop as
/// `simkit::Dispatcher::run_until`, timing each call from outside, then
/// let `System::run` (which finds no event left before the horizon)
/// finalize the summary.
pub fn run_outside_timed(sys: &mut System, spans: &mut LoopSpans) -> Summary {
    let end = SimTime::ZERO + sys.cfg.sim_time;
    let start = Instant::now();
    let mut t = start;
    loop {
        let queue: &mut EventQueue<Ev> = sys.queue_mut();
        match queue.peek_time() {
            Some(next) if next <= end => {}
            _ => break,
        }
        let (now, ev) = queue.pop_next().expect("peeked event");
        let kind = event_kind(&ev);
        let t1 = Instant::now();
        spans.pop += t1 - t;
        sys.handle(now, ev);
        let t2 = Instant::now();
        spans.handle[kind] += t2 - t1;
        spans.handled[kind] += 1;
        sys.quiesce();
        t = Instant::now();
        spans.drain += t - t2;
        spans.events += 1;
    }
    let summary = sys.run();
    spans.wall += start.elapsed();
    summary
}

/// One traced pass over a workload: every config runs serially three
/// times — untraced, outside-timed and profiled.
pub struct TracedRun {
    pub lower_s: f64,
    pub new_s: f64,
    /// Sum of untraced `System::run` calls.
    pub untraced_s: f64,
    pub spans: LoopSpans,
    pub profile: ProfileReport,
    /// Untraced summaries, config order.
    pub summaries: Vec<Summary>,
    /// Outside-timed summaries, config order.
    pub traced: Vec<Summary>,
    /// Events each outside-timed run dispatched, config order.
    pub traced_events: Vec<u64>,
    /// `run_one_profiled` summaries, config order.
    pub profiled: Vec<Summary>,
}

pub fn run_traced(w: &Workload, seed: u64) -> TracedRun {
    let t0 = Instant::now();
    let cfgs = lower(w, seed);
    let lower_s = t0.elapsed().as_secs_f64();
    let mut run = TracedRun {
        lower_s,
        new_s: 0.0,
        untraced_s: 0.0,
        spans: LoopSpans::default(),
        profile: ProfileReport::empty(),
        summaries: Vec::new(),
        traced: Vec::new(),
        traced_events: Vec::new(),
        profiled: Vec::new(),
    };
    for cfg in cfgs {
        let mut sys = System::new(cfg.clone());
        let t = Instant::now();
        run.summaries.push(sys.run());
        run.untraced_s += t.elapsed().as_secs_f64();
        drop(sys);

        let t = Instant::now();
        let mut sys = System::new(cfg.clone());
        run.new_s += t.elapsed().as_secs_f64();
        let before = run.spans.events;
        run.traced.push(run_outside_timed(&mut sys, &mut run.spans));
        run.traced_events.push(run.spans.events - before);
        drop(sys);

        let (summary, report) = snsim::run_one_profiled(cfg);
        run.profile.merge(&report);
        run.profiled.push(summary);
    }
    run
}

/// Seconds the profiled runs spent in the named `ProfileReport` row.
pub fn profile_secs(report: &ProfileReport, phase: &str) -> f64 {
    report
        .rows
        .iter()
        .find(|r| r.phase == phase)
        .map_or(0.0, |r| r.secs)
}

/// Problems with the summary of config `i` of `w` run at `seed`; empty
/// means the run is correct. At [`DEFAULT_SEED`] the summary must also
/// match the recorded reference digest.
pub fn check_run(w: &Workload, seed: u64, i: usize, s: &Summary) -> Vec<String> {
    let mut problems = Vec::new();
    if seed == DEFAULT_SEED {
        let (d, r) = (digest(s), w.references[i]);
        if d != r {
            problems.push(format!("digest {d:#018x} != reference {r:#018x}"));
        }
    }
    let completed: u64 = s.classes.iter().map(|c| c.completed).sum();
    if completed + s.rejected + s.aborted > s.arrivals {
        problems.push(format!(
            "completed {completed} + rejected {} + aborted {} exceeds arrivals {}",
            s.rejected, s.aborted, s.arrivals
        ));
    }
    let utils = [
        ("avg_cpu_util", s.avg_cpu_util),
        ("max_cpu_util", s.max_cpu_util),
        ("p95_cpu_util", s.p95_cpu_util),
        ("avg_disk_util", s.avg_disk_util),
        ("p95_disk_util", s.p95_disk_util),
        ("avg_mem_util", s.avg_mem_util),
        ("p95_mem_util", s.p95_mem_util),
        ("avg_net_util", s.avg_net_util),
        ("p95_net_util", s.p95_net_util),
    ];
    for (name, u) in utils {
        if !(0.0..=1.0).contains(&u) {
            problems.push(format!("{name} = {u} outside [0, 1]"));
        }
    }
    for (name, v) in metrics::run_values(s) {
        if !v.is_finite() {
            problems.push(format!("{name} = {v} is not finite"));
        }
    }
    problems
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
