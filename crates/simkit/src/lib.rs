//! # simkit — deterministic discrete-event simulation kernel
//!
//! Building blocks for the Shared Nothing database simulator used in the
//! reproduction of *Rahm & Marek, "Dynamic Multi-Resource Load Balancing in
//! Parallel Database Systems", VLDB 1995*:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution simulated clock,
//! * [`EventHeap`] — the future event list, a 4-ary heap with
//!   deterministic FIFO tie-breaking,
//! * [`FcfsServer`] — queueing resources (CPUs, disks, NICs) with busy-time
//!   accounting and optional two-level priorities,
//! * [`SimRng`] — a seedable random source with the variates the workload
//!   model needs (exponential, uniform, Zipf, sampling without replacement),
//! * [`stats`] — online statistics (Welford mean/variance, time-weighted
//!   integrals, histograms, batch means for confidence intervals),
//! * [`Slab`] — a tiny generational id allocator for live jobs,
//! * [`alloc_audit`] — a per-thread counting allocator for allocation-audit
//!   tests.
//!
//! All components are allocation-conscious and deterministic: the simulator
//! built on top is single-threaded, and two runs with equal seeds produce
//! bit-identical results.

pub mod alloc_audit;
pub mod dispatch;
pub mod fxhash;
pub mod heap;
pub mod lanes;
pub mod lru;
pub mod rng;
pub mod server;
pub mod slab;
pub mod stats;
pub mod time;

pub use dispatch::{Dispatcher, EventQueue, QueueKind, Simulation};
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use heap::EventHeap;
pub use lanes::{merge_commit, ItemKey, LaneLog, MergeCursor, MergeStep};
pub use lru::LruMap;
pub use rng::SimRng;
pub use server::{FcfsServer, Priority};
pub use slab::Slab;
pub use time::{SimDur, SimTime};
