//! Trace records: a compact binary format for workload traces.
//!
//! The paper mentions "the use of real-life database traces \[18\]" as a
//! supported workload source. Those traces are not available; this module
//! provides the equivalent machinery — a trace format with writer/reader
//! and a synthesizer producing statistically similar traces — so trace
//! replay exercises the same code path.
//!
//! Format: little-endian records
//! `[at_ns: u64][class: u16][kind: u8][coordinator: u16][payload: u32]`
//! where `kind` distinguishes query (0) / OLTP (1) records, `coordinator`
//! is the arrival PE and `payload` carries class-specific data (e.g.
//! scaled selectivity).

use simkit::{SimDur, SimRng, SimTime};

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time.
    pub at: SimTime,
    /// Workload class index (into the owning [`crate::WorkloadSpec`]'s classes,
    /// queries first, then OLTP).
    pub class: u16,
    /// 0 = query, 1 = OLTP.
    pub kind: u8,
    /// Arrival PE.
    pub coordinator: u16,
    /// Class-specific payload (e.g. selectivity in millionths).
    pub payload: u32,
}

const RECORD_BYTES: usize = 8 + 2 + 1 + 2 + 4;

/// Serialize records to the binary trace format.
pub fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * RECORD_BYTES);
    for r in records {
        buf.extend_from_slice(&r.at.as_nanos().to_le_bytes());
        buf.extend_from_slice(&r.class.to_le_bytes());
        buf.push(r.kind);
        buf.extend_from_slice(&r.coordinator.to_le_bytes());
        buf.extend_from_slice(&r.payload.to_le_bytes());
    }
    buf
}

/// Decode a binary trace. Returns `None` on truncated input.
pub fn decode(data: &[u8]) -> Option<Vec<TraceRecord>> {
    if !data.len().is_multiple_of(RECORD_BYTES) {
        return None;
    }
    let records = data.chunks_exact(RECORD_BYTES).map(|r| TraceRecord {
        at: SimTime(u64::from_le_bytes(r[0..8].try_into().expect("8 bytes"))),
        class: u16::from_le_bytes([r[8], r[9]]),
        kind: r[10],
        coordinator: u16::from_le_bytes([r[11], r[12]]),
        payload: u32::from_le_bytes(r[13..17].try_into().expect("4 bytes")),
    });
    Some(records.collect())
}

/// Synthesize a Poisson trace of `count` events at `rate` per second for a
/// class, spreading coordinators uniformly over `n` PEs.
pub fn synthesize(
    rng: &mut SimRng,
    count: usize,
    rate_per_sec: f64,
    class: u16,
    kind: u8,
    n: u16,
    payload: u32,
) -> Vec<TraceRecord> {
    let mut at = SimTime::ZERO;
    (0..count)
        .map(|_| {
            at += SimDur::from_secs_f64(rng.exp(1.0 / rate_per_sec));
            TraceRecord {
                at,
                class,
                kind,
                coordinator: rng.below(n as u64) as u16,
                payload,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let records = vec![
            TraceRecord {
                at: SimTime(12345),
                class: 1,
                kind: 0,
                coordinator: 7,
                payload: 10_000,
            },
            TraceRecord {
                at: SimTime(99999),
                class: 0,
                kind: 1,
                coordinator: 0,
                payload: 0,
            },
        ];
        let bytes = encode(&records);
        assert_eq!(bytes.len(), 2 * RECORD_BYTES);
        assert_eq!(decode(&bytes).unwrap(), records);
    }

    /// Pins the on-disk format byte for byte: little-endian fields in
    /// declaration order, no padding, no header.
    #[test]
    fn encoding_matches_golden_bytes() {
        let records = [
            TraceRecord {
                at: SimTime(0x0102_0304_0506_0708),
                class: 0x1112,
                kind: 0x21,
                coordinator: 0x3132,
                payload: 0x4142_4344,
            },
            TraceRecord {
                at: SimTime(12345),
                class: 1,
                kind: 1,
                coordinator: 7,
                payload: 10_000,
            },
        ];
        let golden: [u8; 2 * RECORD_BYTES] = [
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // at
            0x12, 0x11, // class
            0x21, // kind
            0x32, 0x31, // coordinator
            0x44, 0x43, 0x42, 0x41, // payload
            0x39, 0x30, 0, 0, 0, 0, 0, 0, // at = 12345
            0x01, 0x00, // class
            0x01, // kind
            0x07, 0x00, // coordinator
            0x10, 0x27, 0x00, 0x00, // payload = 10000
        ];
        assert_eq!(encode(&records), golden);
        assert_eq!(decode(&golden).unwrap(), records);
    }

    #[test]
    fn truncated_input_rejected() {
        let records = vec![TraceRecord {
            at: SimTime(1),
            class: 0,
            kind: 0,
            coordinator: 0,
            payload: 0,
        }];
        let bytes = encode(&records);
        assert!(decode(&bytes[..RECORD_BYTES - 1]).is_none());
    }

    #[test]
    fn synthesized_trace_is_ordered_and_plausible() {
        let mut rng = SimRng::new(42);
        let t = synthesize(&mut rng, 1000, 100.0, 3, 0, 16, 10_000);
        assert_eq!(t.len(), 1000);
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(t.iter().all(|r| r.coordinator < 16));
        // mean inter-arrival ≈ 10 ms → 1000 events ≈ 10 s
        let span = t.last().unwrap().at.as_secs_f64();
        assert!((span - 10.0).abs() < 1.5, "span {span}");
    }

    proptest! {
        #[test]
        fn prop_codec_round_trip(
            raw in proptest::collection::vec((0u64..1u64<<40, 0u16..100, 0u8..2, 0u16..512, 0u32..2_000_000), 0..200)
        ) {
            let records: Vec<TraceRecord> = raw
                .into_iter()
                .map(|(at, class, kind, coordinator, payload)| TraceRecord {
                    at: SimTime(at), class, kind, coordinator, payload,
                })
                .collect();
            let bytes = encode(&records);
            prop_assert_eq!(decode(&bytes).unwrap(), records);
        }
    }
}
