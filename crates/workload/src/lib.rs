//! # workload — multi-class workload model
//!
//! "We support heterogeneous (multi-class) workloads consisting of several
//! query and transaction types. […] Currently we support the following
//! query types: relation scan, clustered index scan, non-clustered index
//! scan, two-way join queries, multi-way join queries, and update
//! statements […] We also support the debit-credit benchmark workload
//! (TPC-B) and the use of real-life database traces. The simulation system
//! is an open queuing model and allows definition of an individual arrival
//! rate for each transaction and query type." (§4)
//!
//! * [`arrivals`] — open Poisson / deterministic arrival processes, plus a
//!   closed single-user mode (one client, zero think time) used for the
//!   paper's single-user baselines;
//! * [`queries`] — query class definitions (all six query types);
//! * [`oltp`] — debit-credit style OLTP classes with affinity routing;
//! * [`mix`] — ready-made workloads for each experiment of §5;
//! * [`scenario`] — declarative experiment scenarios: a serializable
//!   [`scenario::ScenarioSpec`] describing a base point plus
//!   parameter sweeps, expanded into labelled runs by the scenario lab;
//! * [`trace`] — a compact binary trace format (writer/reader/synthesizer)
//!   standing in for the real-life traces of \[18\].

pub mod arrivals;
pub mod mix;
pub mod oltp;
pub mod queries;
pub mod scenario;
pub mod trace;

pub use arrivals::{ArrivalProcess, ArrivalSpec, Modulation};
pub use mix::WorkloadSpec;
pub use oltp::{NodeFilter, OltpClass};
pub use queries::{CoordinatorPlacement, QueryClass, QueryKind};
pub use scenario::{Knobs, NodeSpeed, ScenarioRun, ScenarioSpec, StrategySpec, WorkloadShape};
