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

use bytes::{Buf, BufMut, Bytes, BytesMut};
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
pub fn encode(records: &[TraceRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(records.len() * RECORD_BYTES);
    for r in records {
        buf.put_u64_le(r.at.as_nanos());
        buf.put_u16_le(r.class);
        buf.put_u8(r.kind);
        buf.put_u16_le(r.coordinator);
        buf.put_u32_le(r.payload);
    }
    buf.freeze()
}

/// Decode a binary trace. Returns `None` on truncated input.
pub fn decode(mut data: Bytes) -> Option<Vec<TraceRecord>> {
    if !data.len().is_multiple_of(RECORD_BYTES) {
        return None;
    }
    let mut out = Vec::with_capacity(data.len() / RECORD_BYTES);
    while data.remaining() >= RECORD_BYTES {
        out.push(TraceRecord {
            at: SimTime(data.get_u64_le()),
            class: data.get_u16_le(),
            kind: data.get_u8(),
            coordinator: data.get_u16_le(),
            payload: data.get_u32_le(),
        });
    }
    Some(out)
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
        assert_eq!(decode(bytes).unwrap(), records);
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
        assert!(decode(bytes.slice(0..RECORD_BYTES - 1)).is_none());
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
            prop_assert_eq!(decode(bytes).unwrap(), records);
        }
    }
}
