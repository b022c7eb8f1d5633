//! Hardware parameters with the defaults of the paper's Fig. 4.

use serde::{Deserialize, Serialize};
use simkit::SimDur;

/// CPU configuration of one PE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuParams {
    /// Number of CPUs per PE.
    pub cpus_per_pe: u32,
    /// CPU speed in MIPS (million instructions per second).
    pub mips: u32,
    /// Give OLTP transactions non-preemptive priority over query work at
    /// the CPU (local priority scheduling, §1 of the paper). Disabled by
    /// default: the paper's base experiments use plain FCFS.
    pub oltp_priority: bool,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            cpus_per_pe: 1,
            mips: 20,
            oltp_priority: false,
        }
    }
}

impl CpuParams {
    /// Service time for `instr` instructions on one CPU.
    #[inline]
    pub fn service(&self, instr: u64) -> SimDur {
        // instr / (mips * 1e6) seconds = instr * 1000 / mips nanoseconds.
        SimDur::from_nanos(instr * 1_000 / self.mips as u64)
    }
}

/// Disk subsystem configuration of one PE (Fig. 4 "disk devices").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskParams {
    /// Number of disk servers per PE.
    pub disks_per_pe: u32,
    /// Controller service time per page.
    pub controller_per_page: SimDur,
    /// Transmission time per page (controller → memory).
    pub transmission_per_page: SimDur,
    /// Base disk access time per I/O (seek + rotation).
    pub base_access: SimDur,
    /// Additional delay per page transferred from the platter.
    pub per_page_delay: SimDur,
    /// LRU disk cache capacity (pages) per controller; 0 disables caching.
    pub cache_pages: usize,
    /// Pages fetched per prefetch I/O for sequential access; 1 disables
    /// prefetching.
    pub prefetch_pages: u32,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            disks_per_pe: 10,
            controller_per_page: SimDur::from_millis(1),
            transmission_per_page: SimDur::from_micros(400),
            base_access: SimDur::from_millis(15),
            per_page_delay: SimDur::from_millis(1),
            cache_pages: 200,
            prefetch_pages: 4,
        }
    }
}

/// Interconnection network configuration, calibrated to the EDS prototype
/// (packet-switched, scalable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetParams {
    /// Fixed packet payload size in bytes.
    pub packet_bytes: u32,
    /// Wire time per packet on a link.
    pub per_packet: SimDur,
    /// Propagation + switching latency per message.
    pub latency: SimDur,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            packet_bytes: 128,
            // ≈ 20 MB/s per link: 128 B / 20 MB/s = 6.4 us.
            per_packet: SimDur::from_nanos(6_400),
            latency: SimDur::from_micros(50),
        }
    }
}

impl NetParams {
    /// Number of packets for a message of `bytes` (at least one).
    #[inline]
    pub fn packets(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.packet_bytes).max(1)
    }

    /// Pure wire time for a message of `bytes`.
    #[inline]
    pub fn wire_time(&self, bytes: u32) -> SimDur {
        SimDur::from_nanos(self.per_packet.as_nanos() * self.packets(bytes) as u64)
    }
}

/// All hardware parameters of the modelled system.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HardwareParams {
    pub cpu: CpuParams,
    pub disk: DiskParams,
    pub net: NetParams,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = HardwareParams::default();
        assert_eq!(p.cpu.mips, 20);
        assert_eq!(p.cpu.cpus_per_pe, 1);
        assert_eq!(p.disk.disks_per_pe, 10);
        assert_eq!(p.disk.base_access, SimDur::from_millis(15));
        assert_eq!(p.disk.cache_pages, 200);
        assert_eq!(p.disk.prefetch_pages, 4);
    }

    #[test]
    fn cpu_service_time() {
        let p = CpuParams::default();
        // 25000 instructions at 20 MIPS = 1.25 ms (query initialization).
        assert_eq!(p.service(25_000), SimDur::from_micros(1_250));
        // 500 instructions = 25 us (read a tuple).
        assert_eq!(p.service(500), SimDur::from_micros(25));
    }

    #[test]
    fn prefetch_access_time_matches_paper() {
        // "For a prefetching of 4 pages, the average disk access time is
        // 19 ms" — base 15 ms + 4 × 1 ms.
        let d = DiskParams::default();
        let access = d.base_access + d.per_page_delay * d.prefetch_pages as u64;
        assert_eq!(access, SimDur::from_millis(19));
    }

    #[test]
    fn packetization() {
        let n = NetParams::default();
        assert_eq!(n.packets(1), 1);
        assert_eq!(n.packets(128), 1);
        assert_eq!(n.packets(129), 2);
        assert_eq!(n.packets(8192), 64);
        assert_eq!(n.wire_time(8192), SimDur::from_nanos(64 * 6400));
    }
}
