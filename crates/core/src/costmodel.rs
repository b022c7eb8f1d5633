//! Analytic cost model for the single-user optimum `p_su-opt` and the
//! no-I/O degree `p_su-noIO`.
//!
//! "In single-user mode … the optimal number of join processors can be
//! determined fairly easily by means of an analytical model. As outlined in
//! [34, 17], this can be achieved by developing an analytic formula for
//! calculating the average join response time for a given number of join
//! processors … The optimal degree of join parallelism in single-user mode,
//! `p_su-opt`, is obtained by setting the derivative of the response time
//! formula to zero." (§2)
//!
//! Reference \[17\] (German BTW'95 paper) is unavailable; we reconstruct the
//! formula from the same Fig. 4 cost parameters. The model decomposes
//! single-user response time as
//!
//! ```text
//! RT(p) = T_fixed  +  p · t_coord  +  W_join / p  +  T_io(p)
//! ```
//!
//! * `T_fixed` — BOT/EOT, the parallel scan phase on the (fixed) data
//!   nodes, and the coordinator's result merge;
//! * `p · t_coord` — the coordinator-resident per-join-processor overhead
//!   (starting the subquery and the commit round are serialized at the
//!   coordinator);
//! * `W_join / p` — the perfectly parallelizable join work: receiving the
//!   redistributed inputs (full 8 KB messages, the planner's optimistic
//!   assumption), building and probing the hash table, producing and
//!   shipping the result;
//! * `T_io(p)` — temporary-file I/O when `p` join processors cannot hold
//!   the inner table (`b_i · F > p · m`).
//!
//! Instead of differentiating we evaluate `RT(p)` for `p = 1..n` and take
//! the argmin — exact, monotonicity-free, and microseconds of work.
//!
//! With the paper's parameters this reproduces the published optima:
//! `p_su-opt` ≈ 30 at 1% scan selectivity, ≈ 10 at 0.1% and ≈ 70 at 5%
//! (the paper reports 30 / 10 / 70), and eq. 3.1 yields `p_su-noIO` =
//! 3 / 1 / 14 exactly as in §5.2 — see the unit tests.

use serde::{Deserialize, Serialize};

/// Per-operation instruction costs (Fig. 4, "avg. no. of instructions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrCosts {
    /// Start a transaction / query (BOT).
    pub init_txn: u64,
    /// Terminate a transaction / query (EOT).
    pub term_txn: u64,
    /// Initiate one disk I/O.
    pub io: u64,
    /// Send one message.
    pub send_msg: u64,
    /// Receive one message.
    pub recv_msg: u64,
    /// Copy one 8 KB page/message buffer.
    pub copy_8k: u64,
    /// Read one tuple from a page.
    pub read_tuple: u64,
    /// Hash one tuple (partitioning / build).
    pub hash_tuple: u64,
    /// Insert one tuple into the hash table.
    pub insert_ht: u64,
    /// Write one tuple to the output buffer.
    pub write_out: u64,
    /// Probe the hash table with one tuple.
    pub probe_ht: u64,
}

impl Default for InstrCosts {
    fn default() -> Self {
        InstrCosts {
            init_txn: 25_000,
            term_txn: 25_000,
            io: 3_000,
            send_msg: 5_000,
            recv_msg: 10_000,
            copy_8k: 5_000,
            read_tuple: 500,
            hash_tuple: 500,
            insert_ht: 100,
            write_out: 100,
            probe_ht: 200,
        }
    }
}

/// Cost-model parameters shared by all queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Per-operation instruction costs.
    pub instr: InstrCosts,
    /// CPU speed in MIPS.
    pub mips: u32,
    /// Buffer pages available per PE for join working space (`m`).
    pub mem_pages_per_pe: u32,
    /// Hash-table fudge factor (`F`).
    pub fudge: f64,
    /// Tuples per 8 KB message/page.
    pub tuples_per_page: u32,
    /// Effective sequential I/O time per page (ms) for temporary files
    /// (prefetching amortized: (15 + 4·1)/4 + 1 + 0.4 ≈ 6.15 ms).
    pub seq_io_ms_per_page: f64,
    /// Coordinator-serialized instructions per join processor (subquery
    /// start + commit round). Calibration documented in the module docs.
    pub coord_per_p_instr: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            instr: InstrCosts::default(),
            mips: 20,
            mem_pages_per_pe: 50,
            fudge: 1.05,
            tuples_per_page: 20,
            seq_io_ms_per_page: 6.15,
            coord_per_p_instr: 15_000,
        }
    }
}

/// Static profile of one join query, as known to the planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinProfile {
    /// Tuples of the smaller (inner) input *after* the selection.
    pub inner_tuples: u64,
    /// Tuples of the outer input after the selection.
    pub outer_tuples: u64,
    /// Result tuples.
    pub result_tuples: u64,
    /// Data nodes scanning the inner input.
    pub inner_scan_nodes: u32,
    /// Data nodes scanning the outer input.
    pub outer_scan_nodes: u32,
    /// Sequential data pages read per inner scan node.
    pub inner_scan_pages_per_node: u64,
    /// Sequential data pages read per outer scan node.
    pub outer_scan_pages_per_node: u64,
}

impl JoinProfile {
    /// Pages of the inner join input (`b_i`): the hash-table build input.
    pub fn inner_pages(&self, tuples_per_page: u32) -> u64 {
        self.inner_tuples.div_ceil(tuples_per_page as u64).max(1)
    }
}

/// The analytic model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// The parameters the model evaluates under.
    pub params: CostParams,
}

impl CostModel {
    /// Build the model for one parameter set.
    pub fn new(params: CostParams) -> Self {
        CostModel { params }
    }

    #[inline]
    fn ms(&self, instr: u64) -> f64 {
        instr as f64 / (self.params.mips as f64 * 1_000.0)
    }

    /// Hash-table pages needed for the inner input (`b_i · F`).
    pub fn table_pages(&self, q: &JoinProfile) -> f64 {
        q.inner_pages(self.params.tuples_per_page) as f64 * self.params.fudge
    }

    /// Eq. 3.1: `p_su-noIO = MIN(n, ⌈(b_i·F) / m⌉)`.
    pub fn psu_noio(&self, n: u32, q: &JoinProfile) -> u32 {
        let need = self.table_pages(q) / self.params.mem_pages_per_pe as f64;
        (need.ceil() as u32).clamp(1, n)
    }

    /// Single-user response time estimate (ms) with `p` join processors.
    pub fn rt_single_user(&self, p: u32, q: &JoinProfile) -> f64 {
        assert!(p >= 1);
        let c = &self.params.instr;
        let tpp = self.params.tuples_per_page as u64;
        let p_f = p as f64;

        // --- fixed part -------------------------------------------------
        let bot_eot = self.ms(c.init_txn + c.term_txn);
        // Scan phase per data node: I/O + tuple CPU + redistribution send,
        // inner and outer phases run one after the other.
        let scan_phase = |tuples: u64, nodes: u32, pages_per_node: u64| -> f64 {
            let per_node_tuples = tuples.div_ceil(nodes as u64);
            let msgs = per_node_tuples.div_ceil(tpp);
            let cpu = per_node_tuples * (c.read_tuple + c.hash_tuple + c.write_out)
                + msgs * (c.send_msg + c.copy_8k)
                + pages_per_node.div_ceil(4) * c.io;
            // Sequential I/O overlaps CPU poorly on one node: add both.
            self.ms(cpu) + pages_per_node as f64 * self.params.seq_io_ms_per_page
        };
        let t_scan = scan_phase(
            q.inner_tuples,
            q.inner_scan_nodes,
            q.inner_scan_pages_per_node,
        ) + scan_phase(
            q.outer_tuples,
            q.outer_scan_nodes,
            q.outer_scan_pages_per_node,
        );
        // Coordinator merges the result stream.
        let result_msgs = q.result_tuples.div_ceil(tpp);
        let t_merge = self.ms(result_msgs * (c.recv_msg + c.copy_8k));
        let t_fixed = bot_eot + t_scan + t_merge;

        // --- per-processor coordinator overhead --------------------------
        let t_coord = self.ms(self.params.coord_per_p_instr);

        // --- parallelizable join work ------------------------------------
        let in_msgs = q.inner_tuples.div_ceil(tpp) + q.outer_tuples.div_ceil(tpp);
        let w_join_instr = in_msgs * (c.recv_msg + c.copy_8k)
            + q.inner_tuples * c.insert_ht
            + q.outer_tuples * c.probe_ht
            + q.result_tuples * c.write_out
            + q.result_tuples.div_ceil(tpp) * (c.send_msg + c.copy_8k);
        let w_join = self.ms(w_join_instr);

        // --- temporary-file overflow I/O ---------------------------------
        let t_io = self.overflow_io_ms(p, q);

        t_fixed + p_f * t_coord + w_join / p_f + t_io
    }

    /// Overflow I/O time (ms) on the critical join processor: overflowing
    /// fractions of both inputs are written and later read back.
    fn overflow_io_ms(&self, p: u32, q: &JoinProfile) -> f64 {
        let table = self.table_pages(q);
        let have = (p * self.params.mem_pages_per_pe) as f64;
        if have >= table {
            return 0.0;
        }
        let spill_frac = (table - have) / table;
        let inner_pages = q.inner_pages(self.params.tuples_per_page) as f64;
        let outer_pages = (q.outer_tuples.div_ceil(self.params.tuples_per_page as u64)) as f64;
        // Spilled inner and matching outer pages: write + read, split over
        // the p processors' disks.
        let pages = spill_frac * (inner_pages + outer_pages) * 2.0;
        let io_cpu = self.ms((pages / 4.0).ceil() as u64 * self.params.instr.io);
        pages / p as f64 * self.params.seq_io_ms_per_page + io_cpu
    }

    /// `p_su-opt`: argmin of [`CostModel::rt_single_user`] over `1..=n`.
    pub fn psu_opt(&self, n: u32, q: &JoinProfile) -> u32 {
        assert!(n >= 1);
        let mut best = (1u32, f64::INFINITY);
        for p in 1..=n {
            let rt = self.rt_single_user(p, q);
            if rt < best.1 {
                best = (p, rt);
            }
        }
        best.0
    }

    /// Eq. 3.2: `p_mu-cpu = p_su-opt · (1 − u_cpu³)`, at least 1.
    pub fn pmu_cpu(psu_opt: u32, ucpu: f64) -> u32 {
        let u = ucpu.clamp(0.0, 1.0);
        let p = (psu_opt as f64 * (1.0 - u * u * u)).round() as u32;
        p.max(1)
    }

    /// Everything the admission layer needs to know about one query
    /// class, derived from the same hash-join model that feeds the
    /// placement strategies: its cluster-wide working-space demand, its
    /// estimated single-user work, the degree the placement layer would
    /// pick unconstrained, and the malleability floor below which
    /// shrinking starts costing temporary-file I/O.
    pub fn admission_estimate(&self, n: u32, q: &JoinProfile) -> AdmissionEstimate {
        let degree = self.psu_opt(n, q);
        AdmissionEstimate {
            mem_pages: self.table_pages(q),
            cpu_work_ms: self.rt_single_user(degree, q),
            degree,
            degree_floor: self.psu_noio(n, q),
        }
    }
}

/// Cost estimate backing one admission ticket (see
/// [`CostModel::admission_estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionEstimate {
    /// Hash-table working-space pages (`b_i · F`), the memory the query
    /// will claim across its join processors.
    pub mem_pages: f64,
    /// Estimated single-user response time (ms) at the unconstrained
    /// degree — a proxy for the query's CPU work.
    pub cpu_work_ms: f64,
    /// `p_su-opt` clamped to the system size.
    pub degree: u32,
    /// `p_su-noIO` (eq. 3.1): the smallest degree avoiding temporary
    /// I/O.
    pub degree_floor: u32,
}

impl AdmissionEstimate {
    /// A trivial estimate for work the admission layer never throttles
    /// on its own (OLTP transactions, scans, updates): degree-1, a
    /// handful of buffer pages, `cpu_work_ms` as given.
    pub fn trivial(mem_pages: f64, cpu_work_ms: f64) -> AdmissionEstimate {
        AdmissionEstimate {
            mem_pages,
            cpu_work_ms,
            degree: 1,
            degree_floor: 1,
        }
    }
}

/// Build the paper's standard two-way join profile for `n` PEs and a scan
/// selectivity (both inputs filtered with the same selectivity; the result
/// has the size of the inner scan output — §5.1).
pub fn paper_join_profile(n: u32, selectivity: f64) -> JoinProfile {
    let a_nodes = ((n as f64) * 0.2).round().max(1.0) as u32;
    let b_nodes = (n - a_nodes).max(1);
    let a_tuples = 250_000u64;
    let b_tuples = 1_000_000u64;
    let inner_tuples = ((a_tuples as f64) * selectivity).round() as u64;
    let outer_tuples = ((b_tuples as f64) * selectivity).round() as u64;
    // Clustered index scan: qualifying fraction of each fragment's pages.
    let a_frag_pages = (a_tuples / 20).div_ceil(a_nodes as u64);
    let b_frag_pages = (b_tuples / 20).div_ceil(b_nodes as u64);
    JoinProfile {
        inner_tuples,
        outer_tuples,
        result_tuples: inner_tuples,
        inner_scan_nodes: a_nodes,
        outer_scan_nodes: b_nodes,
        inner_scan_pages_per_node: ((a_frag_pages as f64) * selectivity).ceil() as u64,
        outer_scan_pages_per_node: ((b_frag_pages as f64) * selectivity).ceil() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(CostParams::default())
    }

    #[test]
    fn psu_noio_matches_paper_for_all_selectivities() {
        // §5.2: p_su-noIO = 3 at 1%; §5.2 "influence of join complexity":
        // grows from 1 (0.1%) to 14 (5%).
        let m = model();
        assert_eq!(m.psu_noio(80, &paper_join_profile(80, 0.01)), 3);
        assert_eq!(m.psu_noio(60, &paper_join_profile(60, 0.001)), 1);
        assert_eq!(m.psu_noio(60, &paper_join_profile(60, 0.05)), 14);
    }

    #[test]
    fn psu_opt_close_to_paper_at_one_percent() {
        // Paper: p_su-opt = 30 at 1% selectivity.
        let m = model();
        let p = m.psu_opt(80, &paper_join_profile(80, 0.01));
        assert!((25..=35).contains(&p), "p_su-opt = {p}, expected ≈30");
    }

    #[test]
    fn psu_opt_scales_with_join_complexity() {
        // Paper: 10 at 0.1%, 70 (> n) at 5% — capped at n = 60 here.
        let m = model();
        let p_small = m.psu_opt(60, &paper_join_profile(60, 0.001));
        assert!((7..=13).contains(&p_small), "0.1%: {p_small}, expected ≈10");
        let p_large = m.psu_opt(60, &paper_join_profile(60, 0.05));
        assert!(p_large >= 55, "5%: {p_large}, expected to saturate near n");
    }

    #[test]
    fn rt_curve_is_convexish() {
        // Fig. 1a: response time falls, bottoms out, then rises.
        let m = model();
        let q = paper_join_profile(80, 0.01);
        let popt = m.psu_opt(80, &q);
        let rt_opt = m.rt_single_user(popt, &q);
        assert!(m.rt_single_user(1, &q) > rt_opt * 1.5);
        assert!(m.rt_single_user(80, &q) > rt_opt);
    }

    #[test]
    fn overflow_io_vanishes_with_enough_memory() {
        let m = model();
        let q = paper_join_profile(80, 0.01);
        // 131.25 pages needed; 3 × 50 suffices.
        assert_eq!(m.overflow_io_ms(3, &q), 0.0);
        assert!(m.overflow_io_ms(1, &q) > 0.0);
        assert!(m.overflow_io_ms(2, &q) > m.overflow_io_ms(3, &q) - 1e-12);
    }

    #[test]
    fn pmu_cpu_formula() {
        // Eq. 3.2 with p_su-opt = 30.
        assert_eq!(CostModel::pmu_cpu(30, 0.0), 30);
        assert_eq!(CostModel::pmu_cpu(30, 0.5), 26); // 30·(1−0.125)=26.25
        assert_eq!(CostModel::pmu_cpu(30, 0.8), 15); // 30·0.488=14.6→15
        assert_eq!(CostModel::pmu_cpu(30, 1.0), 1);
        assert_eq!(CostModel::pmu_cpu(1, 0.99), 1, "never below 1");
    }

    #[test]
    fn pmu_cpu_reduces_mostly_at_high_utilization() {
        // "a reduction takes place primarily for higher utilization levels
        // (u_cpu > 0.5)".
        let lost_low = 30 - CostModel::pmu_cpu(30, 0.3);
        let lost_high = 30 - CostModel::pmu_cpu(30, 0.8);
        assert!(lost_low <= 2);
        assert!(lost_high >= 10);
    }

    #[test]
    fn profile_geometry() {
        let q = paper_join_profile(80, 0.01);
        assert_eq!(q.inner_tuples, 2_500);
        assert_eq!(q.outer_tuples, 10_000);
        assert_eq!(q.inner_scan_nodes, 16);
        assert_eq!(q.outer_scan_nodes, 64);
        assert_eq!(q.inner_pages(20), 125);
    }

    #[test]
    fn admission_estimate_reuses_the_join_model() {
        let m = model();
        let q = paper_join_profile(80, 0.01);
        let e = m.admission_estimate(80, &q);
        assert_eq!(e.mem_pages, m.table_pages(&q));
        assert_eq!(e.degree, m.psu_opt(80, &q));
        assert_eq!(e.degree_floor, 3);
        assert!(e.degree_floor <= e.degree);
        assert!(
            (e.cpu_work_ms - m.rt_single_user(e.degree, &q)).abs() < 1e-9,
            "work estimate is the optimum-degree response time"
        );
        let t = AdmissionEstimate::trivial(4.0, 1.5);
        assert_eq!((t.degree, t.degree_floor), (1, 1));
    }

    #[test]
    fn psu_opt_capped_by_system_size() {
        let m = model();
        let p = m.psu_opt(10, &paper_join_profile(10, 0.05));
        assert!(p <= 10);
    }
}
