//! Component benchmarks: buffer manager, lock manager, deadlock detector,
//! B+-tree planning, disk subsystem, trace codec.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dbmodel::btree::{BTreeModel, ScanPlan};
use dbmodel::buffer::{BufferManager, JobMemKey};
use dbmodel::catalog::PageAddr;
use dbmodel::deadlock::find_victims;
use dbmodel::lock::{LockManager, LockMode, TxnToken};
use hardware::{DiskId, DiskParams, DiskSubsystem, IoKind, IoRequest};
use simkit::{SimRng, SimTime};
use workload::trace::{decode, encode, synthesize};

fn bench_buffer(c: &mut Criterion) {
    c.bench_function("buffer/fix_1k_with_working_space", |b| {
        let mut rng = SimRng::new(5);
        let pages: Vec<u64> = (0..1_000).map(|_| rng.below(200)).collect();
        b.iter(|| {
            let mut buf = BufferManager::new(50, 1);
            buf.reserve(JobMemKey(1), 4, 20);
            let mut misses = 0u32;
            for &p in &pages {
                if !matches!(
                    buf.fix(PageAddr::new(1, p), p % 7 == 0, p % 3 == 0),
                    dbmodel::buffer::FixOutcome::Hit
                ) {
                    misses += 1;
                }
            }
            buf.release_all(JobMemKey(1));
            black_box(misses)
        })
    });
}

fn bench_locks(c: &mut Criterion) {
    c.bench_function("locks/grant_release_200_txns", |b| {
        b.iter(|| {
            let mut lm = LockManager::new();
            for id in 0..200u64 {
                let t = TxnToken {
                    id,
                    birth: SimTime(id),
                };
                for k in 0..4 {
                    lm.lock(t, (id * 7 + k) % 251, LockMode::Exclusive);
                }
            }
            let mut grants = 0;
            for id in 0..200u64 {
                let t = TxnToken {
                    id,
                    birth: SimTime(id),
                };
                grants += lm.release_all(t).len();
            }
            black_box(grants)
        })
    });
}

fn bench_deadlock(c: &mut Criterion) {
    let mut rng = SimRng::new(6);
    let edges: Vec<(u64, u64)> = (0..500).map(|_| (rng.below(100), rng.below(100))).collect();
    let births: Vec<TxnToken> = (0..100)
        .map(|id| TxnToken {
            id,
            birth: SimTime(id),
        })
        .collect();
    c.bench_function("deadlock/detect_100_nodes_500_edges", |b| {
        b.iter(|| black_box(find_victims(&edges, &births)))
    });
}

fn bench_btree(c: &mut Criterion) {
    c.bench_function("btree/plan_scans", |b| {
        b.iter(|| {
            let tree = BTreeModel::new(400, 1_000_000);
            let a = ScanPlan::clustered_index_scan(tree, 50_000, 1_000_000, 0.01);
            let b2 = ScanPlan::non_clustered_index_scan(tree, 1_000_000, 0.0001);
            black_box((a.total_pages(), b2.total_pages()))
        })
    });
}

fn bench_disk(c: &mut Criterion) {
    c.bench_function("disk/sequential_scan_256_pages", |b| {
        b.iter(|| {
            let mut d: DiskSubsystem<u32> = DiskSubsystem::new(DiskParams::default());
            let mut now = SimTime::ZERO;
            for p in 0..256u64 {
                let req = IoRequest {
                    object: 1,
                    page: p,
                    kind: IoKind::SeqRead {
                        run_remaining: (256 - p) as u32,
                    },
                };
                if let Some(g) = d.request(now, DiskId(0), req, p as u32) {
                    now = g.done;
                    d.complete(now, DiskId(0));
                }
            }
            black_box(d.stats().cache_hits)
        })
    });
}

fn bench_trace_codec(c: &mut Criterion) {
    let mut rng = SimRng::new(7);
    let records = synthesize(&mut rng, 10_000, 1_000.0, 0, 0, 64, 42);
    c.bench_function("trace/encode_decode_10k", |b| {
        b.iter(|| {
            let bytes = encode(&records);
            black_box(decode(&bytes).expect("round trip").len())
        })
    });
}

/// Placement dispatch overhead: direct enum dispatch (`Strategy::place`)
/// vs the broker's trait-object path (`dyn PlacementPolicy` behind
/// `dyn ResourceBroker`). Confirms the Scheduler/ResourceBroker refactor
/// does not regress the placement hot path: the decision logic itself
/// (sorting AVAIL-MEMORY, eq. 3.3 scans) dominates the virtual calls.
fn bench_placement_dispatch(c: &mut Criterion) {
    use lb_core::control::ControlNode;
    use lb_core::{
        CentralBroker, JoinRequest, PlacementRequest, PolicyConfig, ResourceBroker, ResourceVector,
        Strategy,
    };

    const N: usize = 64;
    let req = JoinRequest {
        table_pages: 131.25,
        psu_opt: 30,
        psu_noio: 3,
        outer_scan_nodes: 32,
        inner_rel: 0,
        degree_cap: 0,
    };
    let fresh_ctl = || {
        let mut ctl = ControlNode::new(N);
        for i in 0..N {
            ctl.report(
                i as u32,
                ResourceVector {
                    cpu: 0.3,
                    free_pages: 40,
                    ..ResourceVector::default()
                },
            );
        }
        ctl
    };

    c.bench_function("placement/enum_dispatch_1k", |b| {
        let mut ctl = fresh_ctl();
        let strategy = Strategy::OptIoCpu;
        let mut rng = SimRng::new(11);
        b.iter(|| {
            let mut degrees = 0u64;
            for _ in 0..1_000 {
                degrees += strategy.place(&req, &mut ctl, &mut rng).degree() as u64;
            }
            black_box(degrees)
        })
    });

    c.bench_function("placement/trait_object_broker_1k", |b| {
        let mut broker: Box<dyn ResourceBroker> = Box::new(CentralBroker::from_config(
            N,
            0.05,
            40,
            Strategy::OptIoCpu,
            &PolicyConfig::default(),
        ));
        for i in 0..N as u32 {
            broker.report(
                i,
                ResourceVector {
                    cpu: 0.3,
                    free_pages: 40,
                    ..ResourceVector::default()
                },
            );
        }
        let preq = PlacementRequest::join(0, req, N as u32);
        let mut rng = SimRng::new(11);
        b.iter(|| {
            let mut degrees = 0u64;
            for _ in 0..1_000 {
                degrees += broker.place(&preq, &mut rng).degree() as u64;
            }
            black_box(degrees)
        })
    });
}

criterion_group!(
    benches,
    bench_buffer,
    bench_locks,
    bench_deadlock,
    bench_btree,
    bench_disk,
    bench_trace_codec,
    bench_placement_dispatch
);
criterion_main!(benches);
