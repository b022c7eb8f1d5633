//! Declarative experiment scenarios (the scenario lab).
//!
//! The paper's experiments — and this repository's `fig*` harnesses —
//! were originally hard-coded per figure. A [`ScenarioSpec`] replaces that
//! with data: one JSON file describes a *family* of runs as
//!
//! * a [`Knobs`] base point (workload shape, rates, skew, system size,
//!   memory budget, placement strategy, node heterogeneity, …), and
//! * a [`Sweep`] of axes, each a list of values; the lab expands the
//!   **cross-product** of all non-empty axes into concrete runs.
//!
//! Correlated parameters (e.g. Fig. 8's "larger joins arrive more
//! slowly") are expressed with the [`Patch`] axis: each patch overrides
//! several knobs *together* and counts as one axis value.
//!
//! The module is simulator-agnostic: expansion produces [`ScenarioRun`]s
//! (labelled [`Knobs`]); lowering a run to a full `snsim::SimConfig`
//! lives in `snsim::scenario`, and the CLI driving spec files lives in
//! the `bench` crate (`cargo run --release --bin lab`).
//!
//! ```
//! use workload::scenario::ScenarioSpec;
//!
//! let spec: ScenarioSpec = serde_json::from_str(
//!     r#"{
//!         "name": "demo",
//!         "base": { "selectivity": 0.01, "qps_per_pe": 0.25 },
//!         "sweep": {
//!             "strategy": ["MIN-IO", "pmu-cpu+LUM", "OPT-IO-CPU"],
//!             "n_pes": [10, 40, 80]
//!         }
//!     }"#,
//! )
//! .unwrap();
//! assert_eq!(spec.run_count(), 9);
//! ```

use crate::arrivals::Modulation;
use crate::mix::WorkloadSpec;
use crate::oltp::NodeFilter;
use dbmodel::RelationId;
use lb_core::{BrokerConfig, PolicyConfig, ReadMode, Strategy};
use obs::TraceConfig;
use sched::AdmissionConfig;
use serde::{Deserialize, Serialize};
use simkit::QueueKind;

/// A placement strategy in a scenario file.
///
/// Serializes as the compact report label (`"MIN-IO"`,
/// `"pmu-cpu+LUM"`, `"fixed(22)+RANDOM"`, …) whenever one exists and
/// accepts either that label or the full tagged enum encoding on input,
/// so specs stay hand-writable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategySpec(pub Strategy);

impl Default for StrategySpec {
    fn default() -> Self {
        StrategySpec(Strategy::OptIoCpu)
    }
}

impl Serialize for StrategySpec {
    fn to_value(&self) -> serde::Value {
        match self.0.spec_label() {
            Some(label) => serde::Value::Str(label),
            None => self.0.to_value(),
        }
    }
}

impl Deserialize for StrategySpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(label) = v.as_str() {
            return Strategy::parse(label).map(StrategySpec).map_err(|e| {
                serde::Error::custom(format!(
                    "{e} (try e.g. \"MIN-IO\", \"OPT-IO-CPU\", \"pmu-cpu+LUM\", \
                     \"fixed(8)+RANDOM\")"
                ))
            });
        }
        Strategy::from_value(v).map(StrategySpec)
    }
}

impl StrategySpec {
    /// Label used in run annotations and result series.
    pub fn label(&self) -> String {
        self.0
            .spec_label()
            .unwrap_or_else(|| self.0.name().to_string())
    }
}

/// Node heterogeneity: per-PE CPU speed factors relative to the paper's
/// 20-MIPS baseline.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum NodeSpeed {
    /// All PEs run at the nominal speed (the paper's setting).
    #[default]
    Uniform,
    /// The first `round(fraction · n)` PEs run at `factor` × nominal
    /// speed (factor < 1: a slow partition; > 1: a fast one).
    SlowFraction {
        /// Fraction of PEs affected, in `[0, 1]`.
        fraction: f64,
        /// Speed multiplier for the affected PEs.
        factor: f64,
    },
    /// Explicit per-PE factors; cycled if shorter than the system size.
    Explicit(Vec<f64>),
}

impl NodeSpeed {
    /// Per-PE speed factors for a system of `n` PEs. Empty means uniform.
    pub fn resolve(&self, n: u32) -> Vec<f64> {
        match self {
            NodeSpeed::Uniform => Vec::new(),
            NodeSpeed::SlowFraction { fraction, factor } => {
                let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
                (0..n as usize)
                    .map(|i| if i < k { *factor } else { 1.0 })
                    .collect()
            }
            NodeSpeed::Explicit(factors) => {
                if factors.is_empty() {
                    return Vec::new();
                }
                (0..n as usize)
                    .map(|i| factors[i % factors.len()])
                    .collect()
            }
        }
    }

    /// Compact label for run annotations.
    pub fn label(&self) -> String {
        match self {
            NodeSpeed::Uniform => "uniform".into(),
            NodeSpeed::SlowFraction { fraction, factor } => {
                format!("slow({fraction}x@{factor})")
            }
            NodeSpeed::Explicit(f) => format!("explicit({})", f.len()),
        }
    }
}

/// The shape of the workload; the numeric [`Knobs`] fill in rates and
/// selectivities so sweeps can vary them independently of the shape.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WorkloadShape {
    /// One closed-loop join query at a time (`single-user mode`).
    SingleUserJoin,
    /// Open multi-user join stream (§5.2), optionally skewed.
    #[default]
    HomogeneousJoin,
    /// Joins plus debit-credit OLTP on `oltp_nodes` (§5.3 / Fig. 9).
    Mixed,
}

/// One concrete run point: every knob the scenario lab can turn.
///
/// `Default` is the paper's Fig. 4 configuration at 40 PEs with the
/// OPT-IO-CPU strategy and CI-friendly run lengths; a spec's `base`
/// object only needs the knobs it changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct Knobs {
    /// System size (the paper varies 10–80).
    pub n_pes: u32,
    /// Join placement strategy.
    pub strategy: StrategySpec,
    /// Workload shape (which classes exist).
    pub workload: WorkloadShape,
    /// Scan selectivity of the join inputs (0.01 = the paper's 1%).
    pub selectivity: f64,
    /// Join arrivals per second per PE (open workloads).
    pub qps_per_pe: f64,
    /// Zipf theta of the join redistribution skew (0 = uniform).
    pub skew_theta: f64,
    /// Zipf theta of the *data placement* — fragment sizes of the join
    /// relations (0 = the paper's equal tuples per fragment).
    pub data_skew: f64,
    /// Fragments per join relation (0 = one per home PE).
    pub fragment_count: u32,
    /// Online fragment rebalancing (default controller parameters when
    /// `true`; `false` = the paper's static placement).
    pub rebalance: bool,
    /// OLTP transactions per second per OLTP node (`Mixed` shape).
    pub tps_per_node: f64,
    /// Which nodes run OLTP (`Mixed` shape).
    pub oltp_nodes: NodeFilter,
    /// Time-variation of the join arrival rate.
    pub query_modulation: Modulation,
    /// Time-variation of the OLTP arrival rate.
    pub oltp_modulation: Modulation,
    /// Buffer pages per PE (the paper's 50; Fig. 7 divides by 10).
    pub buffer_pages: u32,
    /// Data disks per PE (the paper varies 1 / 5 / 10).
    pub disks_per_pe: u32,
    /// Interconnect link-bandwidth factor (1.0 = the paper's ≈20 MB/s
    /// EDS links; 0.1 = a 10× slower fabric). Lowered through
    /// `SimConfig::with_net_speed` only when it differs from 1.0, so
    /// legacy specs stay byte-identical.
    pub net_speed: f64,
    /// Per-PE multiprogramming level (the paper's 64; admission
    /// experiments lower it to make MPL backpressure visible).
    pub mpl: u32,
    /// Admission layer between arrivals and launch: policy, budgets,
    /// queue bound, priority tiers. The default (`FcfsMpl`) reproduces
    /// the paper's MPL-only admission bit-for-bit.
    pub admission: AdmissionConfig,
    /// Per-PE CPU speed heterogeneity.
    pub node_speed: NodeSpeed,
    /// Per-work-class placement policies; `None` = paper defaults.
    pub policies: Option<PolicyConfig>,
    /// How the broker serves ranking reads (`SortPerCall` = legacy
    /// baseline for benchmarks; results are identical either way).
    pub broker_reads: ReadMode,
    /// Future-event-list implementation (only the 4-ary heap remains; the
    /// knob stays so specs that name it keep parsing).
    pub event_queue: QueueKind,
    /// Threads for the control tick's sampling phase (0/1 = serial;
    /// results are identical at any count).
    pub tick_threads: u32,
    /// Threads for the windowed lane-parallel executor (0 = the plain
    /// sequential dispatcher; ≥ 1 enables windowing, > 1 adds worker
    /// threads). Results are bit-identical at any count.
    pub exec_threads: u32,
    /// Control-plane implementation and fault model (report staleness,
    /// heartbeat loss, failure detection, rack aggregation). Absent in a
    /// spec = the clean central broker, byte-identical to pre-fault runs.
    pub broker: BrokerConfig,
    /// Observability layer: per-round time series, lifecycle JSONL, and
    /// the placement-explain digest. Absent in a spec = disabled, and the
    /// disabled layer is provably inert (bit-identical `Summary`).
    pub trace: TraceConfig,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Warm-up seconds discarded from statistics.
    pub warmup_secs: f64,
    /// Root RNG seed.
    pub seed: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            n_pes: 40,
            strategy: StrategySpec::default(),
            workload: WorkloadShape::HomogeneousJoin,
            selectivity: 0.01,
            qps_per_pe: 0.25,
            skew_theta: 0.0,
            data_skew: 0.0,
            fragment_count: 0,
            rebalance: false,
            tps_per_node: 100.0,
            oltp_nodes: NodeFilter::All,
            query_modulation: Modulation::None,
            oltp_modulation: Modulation::None,
            buffer_pages: 50,
            disks_per_pe: 10,
            net_speed: 1.0,
            mpl: 64,
            admission: AdmissionConfig::default(),
            node_speed: NodeSpeed::Uniform,
            policies: None,
            broker_reads: ReadMode::default(),
            event_queue: QueueKind::default(),
            tick_threads: 0,
            exec_threads: 0,
            broker: BrokerConfig::default(),
            trace: TraceConfig::default(),
            sim_secs: 40.0,
            warmup_secs: 8.0,
            seed: 0xC0FFEE,
        }
    }
}

impl Knobs {
    /// Lower the workload knobs to the concrete multi-class
    /// [`WorkloadSpec`] this point simulates.
    pub fn workload_spec(&self) -> WorkloadSpec {
        let mut wl = match self.workload {
            WorkloadShape::SingleUserJoin => WorkloadSpec::single_user_join(self.selectivity),
            WorkloadShape::HomogeneousJoin => {
                WorkloadSpec::homogeneous_join(self.selectivity, self.qps_per_pe)
            }
            WorkloadShape::Mixed => WorkloadSpec::mixed(
                self.selectivity,
                self.qps_per_pe,
                RelationId(2),
                self.tps_per_node,
                self.oltp_nodes,
            ),
        };
        for q in &mut wl.queries {
            q.redistribution_skew = self.skew_theta;
            q.modulation = self.query_modulation;
        }
        for o in &mut wl.oltp {
            o.modulation = self.oltp_modulation;
        }
        wl
    }
}

/// A correlated override: sets several knobs together, forming one value
/// of the `paired` sweep axis (Fig. 8 pairs selectivity with arrival
/// rate, bursty scenarios pair a modulation with a rate, …).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct Patch {
    /// Label used in run annotations; derived from the set fields if
    /// omitted.
    pub label: Option<String>,
    /// Override [`Knobs::n_pes`].
    pub n_pes: Option<u32>,
    /// Override [`Knobs::strategy`].
    pub strategy: Option<StrategySpec>,
    /// Override [`Knobs::workload`].
    pub workload: Option<WorkloadShape>,
    /// Override [`Knobs::selectivity`].
    pub selectivity: Option<f64>,
    /// Override [`Knobs::qps_per_pe`].
    pub qps_per_pe: Option<f64>,
    /// Override [`Knobs::skew_theta`].
    pub skew_theta: Option<f64>,
    /// Override [`Knobs::data_skew`].
    pub data_skew: Option<f64>,
    /// Override [`Knobs::fragment_count`].
    pub fragment_count: Option<u32>,
    /// Override [`Knobs::rebalance`].
    pub rebalance: Option<bool>,
    /// Override [`Knobs::tps_per_node`].
    pub tps_per_node: Option<f64>,
    /// Override [`Knobs::oltp_nodes`].
    pub oltp_nodes: Option<NodeFilter>,
    /// Override [`Knobs::query_modulation`].
    pub query_modulation: Option<Modulation>,
    /// Override [`Knobs::oltp_modulation`].
    pub oltp_modulation: Option<Modulation>,
    /// Override [`Knobs::buffer_pages`].
    pub buffer_pages: Option<u32>,
    /// Override [`Knobs::disks_per_pe`].
    pub disks_per_pe: Option<u32>,
    /// Override [`Knobs::net_speed`].
    pub net_speed: Option<f64>,
    /// Override [`Knobs::mpl`].
    pub mpl: Option<u32>,
    /// Override [`Knobs::admission`].
    pub admission: Option<AdmissionConfig>,
    /// Override [`Knobs::node_speed`].
    pub node_speed: Option<NodeSpeed>,
    /// Override [`Knobs::broker_reads`].
    pub broker_reads: Option<ReadMode>,
    /// Override [`Knobs::event_queue`].
    pub event_queue: Option<QueueKind>,
    /// Override [`Knobs::tick_threads`].
    pub tick_threads: Option<u32>,
    /// Override [`Knobs::exec_threads`].
    pub exec_threads: Option<u32>,
    /// Override [`Knobs::broker`].
    pub broker: Option<BrokerConfig>,
    /// Override [`Knobs::trace`].
    pub trace: Option<TraceConfig>,
    /// Override [`Knobs::sim_secs`].
    pub sim_secs: Option<f64>,
    /// Override [`Knobs::warmup_secs`].
    pub warmup_secs: Option<f64>,
    /// Override [`Knobs::seed`].
    pub seed: Option<u64>,
}

impl Patch {
    /// Apply every set field to `knobs`.
    pub fn apply(&self, knobs: &mut Knobs) {
        macro_rules! set {
            ($($f:ident),*) => {$(
                if let Some(v) = &self.$f {
                    knobs.$f = v.clone();
                }
            )*};
        }
        set!(
            n_pes,
            strategy,
            workload,
            selectivity,
            qps_per_pe,
            skew_theta,
            data_skew,
            fragment_count,
            rebalance,
            tps_per_node,
            oltp_nodes,
            query_modulation,
            oltp_modulation,
            buffer_pages,
            disks_per_pe,
            net_speed,
            mpl,
            admission,
            node_speed,
            broker_reads,
            event_queue,
            tick_threads,
            exec_threads,
            broker,
            trace,
            sim_secs,
            warmup_secs,
            seed
        );
    }

    /// Annotation label: explicit `label` or `field=value` pairs. Every
    /// overridable field contributes, so two distinct unlabelled patches
    /// never collapse to the same axis value (which would merge their
    /// result rows).
    pub fn label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let mut parts = Vec::new();
        if let Some(v) = &self.strategy {
            parts.push(format!("strategy={}", v.label()));
        }
        if let Some(v) = &self.workload {
            parts.push(format!("workload={v:?}"));
        }
        if let Some(v) = self.n_pes {
            parts.push(format!("n_pes={v}"));
        }
        if let Some(v) = self.selectivity {
            parts.push(format!("sel={v}"));
        }
        if let Some(v) = self.qps_per_pe {
            parts.push(format!("qps={v}"));
        }
        if let Some(v) = self.skew_theta {
            parts.push(format!("theta={v}"));
        }
        if let Some(v) = self.data_skew {
            parts.push(format!("dskew={v}"));
        }
        if let Some(v) = self.fragment_count {
            parts.push(format!("frags={v}"));
        }
        if let Some(v) = self.rebalance {
            parts.push(format!("rebalance={v}"));
        }
        if let Some(v) = self.tps_per_node {
            parts.push(format!("tps={v}"));
        }
        if let Some(v) = &self.oltp_nodes {
            parts.push(format!("oltp_nodes={v:?}"));
        }
        if let Some(v) = &self.query_modulation {
            parts.push(format!("qmod={}", modulation_label(v)));
        }
        if let Some(v) = &self.oltp_modulation {
            parts.push(format!("omod={}", modulation_label(v)));
        }
        if let Some(v) = self.buffer_pages {
            parts.push(format!("buf={v}"));
        }
        if let Some(v) = self.disks_per_pe {
            parts.push(format!("disks={v}"));
        }
        if let Some(v) = self.net_speed {
            parts.push(format!("net={v}"));
        }
        if let Some(v) = self.mpl {
            parts.push(format!("mpl={v}"));
        }
        if let Some(v) = &self.admission {
            parts.push(format!("admission={}", v.label()));
        }
        if let Some(v) = &self.node_speed {
            parts.push(format!("speed={}", v.label()));
        }
        if let Some(v) = &self.broker_reads {
            parts.push(format!("reads={v:?}"));
        }
        if let Some(v) = &self.event_queue {
            parts.push(format!("queue={v:?}"));
        }
        if let Some(v) = self.tick_threads {
            parts.push(format!("tick_threads={v}"));
        }
        if let Some(v) = self.exec_threads {
            parts.push(format!("exec_threads={v}"));
        }
        if let Some(v) = &self.broker {
            parts.push(format!("broker={}", v.label()));
        }
        if let Some(v) = &self.trace {
            parts.push(format!("trace={}", v.label()));
        }
        if let Some(v) = self.sim_secs {
            parts.push(format!("sim={v}"));
        }
        if let Some(v) = self.warmup_secs {
            parts.push(format!("warmup={v}"));
        }
        if let Some(v) = self.seed {
            parts.push(format!("seed={v}"));
        }
        if parts.is_empty() {
            "patch".into()
        } else {
            parts.join(",")
        }
    }
}

/// Compact modulation rendering for run labels.
fn modulation_label(m: &Modulation) -> String {
    match m {
        Modulation::None => "none".into(),
        Modulation::Burst {
            factor,
            period_secs,
            duty,
        } => format!("burst({factor}x/{period_secs}s@{duty})"),
        Modulation::Shift { factor, at_secs } => format!("shift({factor}x@{at_secs}s)"),
    }
}

/// Sweep axes. Every non-empty axis contributes one dimension to the
/// cross-product; an empty axis keeps the base value.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct Sweep {
    /// Strategies to compare (one result series each).
    pub strategy: Vec<StrategySpec>,
    /// Admission policies to compare (a series dimension, like
    /// `strategy`).
    pub admission: Vec<AdmissionConfig>,
    /// Correlated multi-knob overrides (one axis, applied together).
    pub paired: Vec<Patch>,
    /// System sizes.
    pub n_pes: Vec<u32>,
    /// Scan selectivities.
    pub selectivity: Vec<f64>,
    /// Join arrival rates per PE.
    pub qps_per_pe: Vec<f64>,
    /// Redistribution skew thetas.
    pub skew_theta: Vec<f64>,
    /// Data-placement skew thetas (fragment sizes).
    pub data_skew: Vec<f64>,
    /// Fragments per join relation.
    pub fragment_count: Vec<u32>,
    /// Online rebalancing on/off.
    pub rebalance: Vec<bool>,
    /// OLTP rates per node.
    pub tps_per_node: Vec<f64>,
    /// Buffer sizes.
    pub buffer_pages: Vec<u32>,
    /// Disks per PE.
    pub disks_per_pe: Vec<u32>,
    /// Interconnect link-bandwidth factors.
    pub net_speed: Vec<f64>,
    /// Multiprogramming levels.
    pub mpl: Vec<u32>,
    /// Node-speed profiles.
    pub node_speed: Vec<NodeSpeed>,
    /// Windowed-executor thread counts (0 = sequential dispatcher).
    /// Sweeping this axis is a determinism check: every value must
    /// produce the same results.
    pub exec_threads: Vec<u32>,
    /// Control-plane configurations (broker kind + fault model) to
    /// compare.
    pub broker: Vec<BrokerConfig>,
    /// Observability configurations. Sweeping trace on/off is an
    /// inertness check: every value must produce the same `Summary`.
    pub trace: Vec<TraceConfig>,
    /// Replication seeds.
    pub seed: Vec<u64>,
}

/// One expanded run: the axis values that produced it plus the final
/// knob settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// `(axis, value-label)` pairs in expansion order.
    pub axes: Vec<(String, String)>,
    /// Fully resolved knobs for this run.
    pub knobs: Knobs,
}

impl ScenarioRun {
    /// Value label of one axis, if it was swept.
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|(a, _)| a == name)
            .map(|(_, v)| v.as_str())
    }

    /// Compact one-line label of all swept axes.
    pub fn label(&self) -> String {
        if self.axes.is_empty() {
            return "base".into();
        }
        self.axes
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A complete declarative scenario: metadata, base point, sweep.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct ScenarioSpec {
    /// Scenario name; also names the result files under `results/`.
    pub name: String,
    /// Free-form description shown by `lab --dry-run`.
    pub description: String,
    /// Base knob settings (missing knobs = paper defaults).
    pub base: Knobs,
    /// Axes expanded into the cross-product of runs.
    pub sweep: Sweep,
}

impl ScenarioSpec {
    /// Number of runs the sweep expands to (product of non-empty axes).
    pub fn run_count(&self) -> usize {
        let s = &self.sweep;
        [
            s.strategy.len(),
            s.admission.len(),
            s.paired.len(),
            s.n_pes.len(),
            s.selectivity.len(),
            s.qps_per_pe.len(),
            s.skew_theta.len(),
            s.data_skew.len(),
            s.fragment_count.len(),
            s.rebalance.len(),
            s.tps_per_node.len(),
            s.buffer_pages.len(),
            s.disks_per_pe.len(),
            s.net_speed.len(),
            s.mpl.len(),
            s.node_speed.len(),
            s.exec_threads.len(),
            s.broker.len(),
            s.trace.len(),
            s.seed.len(),
        ]
        .iter()
        .filter(|&&n| n > 0)
        .product::<usize>()
        .max(1)
    }

    /// Expand the sweep into concrete runs (cross-product of all
    /// non-empty axes, in deterministic axis order: strategy, paired,
    /// then the scalar axes).
    pub fn runs(&self) -> Vec<ScenarioRun> {
        fn expand<T: Clone>(
            runs: Vec<ScenarioRun>,
            axis: &str,
            values: &[T],
            label: impl Fn(&T) -> String,
            apply: impl Fn(&mut Knobs, &T),
        ) -> Vec<ScenarioRun> {
            if values.is_empty() {
                return runs;
            }
            let mut out = Vec::with_capacity(runs.len() * values.len());
            for run in &runs {
                for v in values {
                    let mut next = run.clone();
                    next.axes.push((axis.to_string(), label(v)));
                    apply(&mut next.knobs, v);
                    out.push(next);
                }
            }
            out
        }

        let mut runs = vec![ScenarioRun {
            axes: Vec::new(),
            knobs: self.base.clone(),
        }];
        let s = &self.sweep;
        runs = expand(
            runs,
            "strategy",
            &s.strategy,
            StrategySpec::label,
            |k, v| k.strategy = *v,
        );
        runs = expand(
            runs,
            "admission",
            &s.admission,
            AdmissionConfig::label,
            |k, v| k.admission = v.clone(),
        );
        runs = expand(runs, "paired", &s.paired, Patch::label, |k, v| v.apply(k));
        runs = expand(runs, "n_pes", &s.n_pes, u32::to_string, |k, v| k.n_pes = *v);
        runs = expand(
            runs,
            "selectivity",
            &s.selectivity,
            f64::to_string,
            |k, v| k.selectivity = *v,
        );
        runs = expand(runs, "qps_per_pe", &s.qps_per_pe, f64::to_string, |k, v| {
            k.qps_per_pe = *v
        });
        runs = expand(runs, "skew_theta", &s.skew_theta, f64::to_string, |k, v| {
            k.skew_theta = *v
        });
        runs = expand(runs, "data_skew", &s.data_skew, f64::to_string, |k, v| {
            k.data_skew = *v
        });
        runs = expand(
            runs,
            "fragment_count",
            &s.fragment_count,
            u32::to_string,
            |k, v| k.fragment_count = *v,
        );
        runs = expand(runs, "rebalance", &s.rebalance, bool::to_string, |k, v| {
            k.rebalance = *v
        });
        runs = expand(
            runs,
            "tps_per_node",
            &s.tps_per_node,
            f64::to_string,
            |k, v| k.tps_per_node = *v,
        );
        runs = expand(
            runs,
            "buffer_pages",
            &s.buffer_pages,
            u32::to_string,
            |k, v| k.buffer_pages = *v,
        );
        runs = expand(
            runs,
            "disks_per_pe",
            &s.disks_per_pe,
            u32::to_string,
            |k, v| k.disks_per_pe = *v,
        );
        runs = expand(runs, "net_speed", &s.net_speed, f64::to_string, |k, v| {
            k.net_speed = *v
        });
        runs = expand(runs, "mpl", &s.mpl, u32::to_string, |k, v| k.mpl = *v);
        runs = expand(
            runs,
            "node_speed",
            &s.node_speed,
            NodeSpeed::label,
            |k, v| k.node_speed = v.clone(),
        );
        runs = expand(
            runs,
            "exec_threads",
            &s.exec_threads,
            u32::to_string,
            |k, v| k.exec_threads = *v,
        );
        runs = expand(runs, "broker", &s.broker, BrokerConfig::label, |k, v| {
            k.broker = *v
        });
        runs = expand(runs, "trace", &s.trace, TraceConfig::label, |k, v| {
            k.trace = *v
        });
        runs = expand(runs, "seed", &s.seed, u64::to_string, |k, v| k.seed = *v);
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::{DegreePolicy, SelectPolicy};

    #[test]
    fn empty_spec_is_one_base_run() {
        let spec = ScenarioSpec {
            name: "x".into(),
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.run_count(), 1);
        let runs = spec.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].knobs, Knobs::default());
        assert_eq!(runs[0].label(), "base");
    }

    #[test]
    fn cross_product_expansion() {
        let spec = ScenarioSpec {
            name: "xp".into(),
            sweep: Sweep {
                strategy: vec![
                    StrategySpec(Strategy::MinIo),
                    StrategySpec(Strategy::OptIoCpu),
                ],
                n_pes: vec![10, 20, 40],
                seed: vec![1, 2],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.run_count(), 12);
        let runs = spec.runs();
        assert_eq!(runs.len(), 12);
        // Deterministic order: strategy outermost, seed innermost.
        assert_eq!(runs[0].axis("strategy"), Some("MIN-IO"));
        assert_eq!(runs[0].axis("n_pes"), Some("10"));
        assert_eq!(runs[0].axis("seed"), Some("1"));
        assert_eq!(runs[1].axis("seed"), Some("2"));
        assert_eq!(runs[11].axis("strategy"), Some("OPT-IO-CPU"));
        assert_eq!(runs[11].knobs.n_pes, 40);
        assert_eq!(runs[11].knobs.seed, 2);
        // Every combination appears exactly once.
        let mut labels: Vec<String> = runs.iter().map(ScenarioRun::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn admission_axis_expands_like_strategy() {
        use sched::AdmissionPolicyKind;
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{
                "name": "adm",
                "base": { "mpl": 8 },
                "sweep": {
                    "admission": [
                        { "policy": "FcfsMpl" },
                        { "policy": "MemoryReservation", "mem_budget_frac": 0.8 },
                        { "policy": "Malleable", "priorities": [ { "class": "debit-credit", "weight": 8.0 } ] }
                    ],
                    "qps_per_pe": [0.1, 0.5]
                }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.run_count(), 6);
        let runs = spec.runs();
        assert_eq!(runs[0].axis("admission"), Some("fcfs"));
        assert_eq!(runs[2].axis("admission"), Some("mem-resv(0.8)"));
        assert_eq!(runs[4].axis("admission"), Some("malleable(1.5)+prio"));
        assert_eq!(
            runs[4].knobs.admission.policy,
            AdmissionPolicyKind::Malleable
        );
        assert_eq!(runs[4].knobs.admission.weight_for("debit-credit"), 8.0);
        assert_eq!(runs[0].knobs.mpl, 8, "base mpl survives expansion");
        // Patch-level override composes too.
        let p = Patch {
            admission: Some(AdmissionConfig {
                policy: AdmissionPolicyKind::MemoryReservation,
                ..AdmissionConfig::default()
            }),
            mpl: Some(2),
            ..Patch::default()
        };
        assert_eq!(p.label(), "mpl=2,admission=mem-resv");
        let mut k = Knobs::default();
        p.apply(&mut k);
        assert_eq!(k.mpl, 2);
        assert_eq!(k.admission.policy, AdmissionPolicyKind::MemoryReservation);
    }

    #[test]
    fn paired_axis_applies_overrides_together() {
        let spec = ScenarioSpec {
            name: "pairs".into(),
            sweep: Sweep {
                paired: vec![
                    Patch {
                        selectivity: Some(0.001),
                        qps_per_pe: Some(1.0),
                        ..Patch::default()
                    },
                    Patch {
                        label: Some("big".into()),
                        selectivity: Some(0.05),
                        qps_per_pe: Some(0.035),
                        ..Patch::default()
                    },
                ],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        };
        let runs = spec.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].knobs.selectivity, 0.001);
        assert_eq!(runs[0].knobs.qps_per_pe, 1.0);
        assert_eq!(runs[0].axis("paired"), Some("sel=0.001,qps=1"));
        assert_eq!(runs[1].axis("paired"), Some("big"));
        assert_eq!(runs[1].knobs.qps_per_pe, 0.035);
    }

    #[test]
    fn strategy_spec_accepts_labels_and_tagged_values() {
        let s: StrategySpec = serde_json::from_str("\"pmu-cpu+LUM\"").unwrap();
        assert_eq!(
            s.0,
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            }
        );
        let via_label = serde_json::to_string(&s).unwrap();
        assert_eq!(via_label, "\"pmu-cpu+LUM\"");
        let tagged: StrategySpec = serde_json::from_str("\"MIN-IO-SUOPT\"").unwrap();
        assert_eq!(tagged.0, Strategy::MinIoSuopt);
        assert!(serde_json::from_str::<StrategySpec>("\"nope\"").is_err());
    }

    #[test]
    fn knobs_default_via_serde_default() {
        // A spec that only names what it changes: everything else is the
        // paper default (this is the vendored #[serde(default)] path).
        let k: Knobs = serde_json::from_str(r#"{ "n_pes": 80, "qps_per_pe": 0.075 }"#).unwrap();
        assert_eq!(k.n_pes, 80);
        assert_eq!(k.qps_per_pe, 0.075);
        assert_eq!(k.buffer_pages, 50);
        assert_eq!(k.strategy, StrategySpec(Strategy::OptIoCpu));
        assert_eq!(k.seed, 0xC0FFEE);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            name: "rt".into(),
            description: "round trip".into(),
            base: Knobs {
                workload: WorkloadShape::Mixed,
                oltp_nodes: NodeFilter::BNodes,
                oltp_modulation: Modulation::Burst {
                    factor: 4.0,
                    period_secs: 10.0,
                    duty: 0.25,
                },
                node_speed: NodeSpeed::SlowFraction {
                    fraction: 0.25,
                    factor: 0.5,
                },
                ..Knobs::default()
            },
            sweep: Sweep {
                strategy: vec![StrategySpec(Strategy::Adaptive)],
                n_pes: vec![20, 40],
                ..Sweep::default()
            },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.run_count(), 2);
    }

    #[test]
    fn workload_lowering_applies_skew_and_modulation() {
        let k = Knobs {
            workload: WorkloadShape::Mixed,
            skew_theta: 0.5,
            query_modulation: Modulation::Shift {
                factor: 2.0,
                at_secs: 15.0,
            },
            oltp_modulation: Modulation::Burst {
                factor: 3.0,
                period_secs: 8.0,
                duty: 0.5,
            },
            ..Knobs::default()
        };
        let wl = k.workload_spec();
        assert_eq!(wl.queries.len(), 1);
        assert_eq!(wl.oltp.len(), 1);
        assert_eq!(wl.queries[0].redistribution_skew, 0.5);
        assert!(matches!(wl.queries[0].modulation, Modulation::Shift { .. }));
        assert!(matches!(wl.oltp[0].modulation, Modulation::Burst { .. }));
    }

    #[test]
    fn node_speed_resolution() {
        assert!(NodeSpeed::Uniform.resolve(8).is_empty());
        let hetero = NodeSpeed::SlowFraction {
            fraction: 0.25,
            factor: 0.5,
        };
        let f = hetero.resolve(8);
        assert_eq!(f, vec![0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let explicit = NodeSpeed::Explicit(vec![1.0, 2.0]);
        assert_eq!(explicit.resolve(5), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
        assert!(NodeSpeed::Explicit(Vec::new()).resolve(4).is_empty());
    }
}
