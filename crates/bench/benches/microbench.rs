//! Criterion microbenchmarks for the hot paths of the simulator:
//!
//! * event-queue push/pop throughput (every simulated action goes
//!   through it), and the periodic-timer steady state (10k heartbeat-like
//!   timers) on the heap alone vs on the queue's FIFO lanes;
//! * fluid-network rate recomputation (runs on every flow-set change);
//! * placement-policy target selection (every block allocation and
//!   replication order);
//! * namenode death-detection + replication-dispatch tick, small and at
//!   10k datanodes;
//! * a full small end-to-end workload run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hog_core::driver::run_workload;
use hog_core::ClusterConfig;
use hog_hdfs::placement::{CandidateIndex, PlacementPolicy, SiteAwarePolicy};
use hog_net::{FluidNet, NetParams, NodeId, SiteId};
use hog_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use hog_workload::facebook::Bin;
use hog_workload::SubmissionSchedule;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let mut sum = 0usize;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

/// The pool_10k heartbeat shape: 10k timers re-arming every 3 s,
/// staggered across the period, plus a sparse one-off event every 100
/// pops. Each sample pops and re-arms 100k events; the heap case re-arms
/// with `push`, the lane case with `push_every`. Same pop order in both.
fn bench_periodic_timers(c: &mut Criterion) {
    const TIMERS: u64 = 10_000;
    const POPS: usize = 100_000;
    let period = SimDuration::from_secs(3);
    let setup = || {
        let mut q = EventQueue::with_capacity(TIMERS as usize);
        for i in 0..TIMERS {
            q.push(SimTime::from_millis(i.wrapping_mul(5741) % 3000 + 1), i);
        }
        (q, SimRng::seed_from_u64(2))
    };
    let mut group = c.benchmark_group("periodic_timers_10k");
    for (name, lanes) in [("heap", false), ("lane", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                setup,
                |(mut q, mut rng)| {
                    let mut sum = 0u64;
                    for k in 0..POPS {
                        let (now, ev) = q.pop().expect("timers never drain");
                        sum = sum.wrapping_add(ev);
                        if ev < TIMERS {
                            if lanes {
                                q.push_every(now, period, ev);
                            } else {
                                q.push(now + period, ev);
                            }
                        }
                        if k % 100 == 0 {
                            let d = SimDuration::from_millis(rng.uniform_u64(0, 60_000));
                            q.push(now + d, TIMERS + k as u64);
                        }
                    }
                    black_box(sum)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_fluid_recompute(c: &mut Criterion) {
    c.bench_function("fluid_recompute_200_flows", |b| {
        b.iter_batched(
            || {
                let mut net = FluidNet::new(NetParams::grid_default());
                for s in 0..5u16 {
                    for n in 0..40u32 {
                        net.register_node(NodeId(s as u32 * 40 + n), SiteId(s));
                    }
                }
                net
            },
            |mut net| {
                // 200 flows; each start triggers one recompute over the
                // growing flow set.
                for i in 0..200u32 {
                    let src = NodeId(i % 200);
                    let dst = NodeId((i * 37 + 1) % 200);
                    net.start_flow(SimTime::ZERO, src, dst, 64 << 20, i as u64);
                }
                black_box(net.active_flows())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_placement(c: &mut Criterion) {
    for n_nodes in [1000u32, 10_000] {
        c.bench_function(&format!("site_aware_choose_10_of_{n_nodes}"), |b| {
            let mut index = CandidateIndex::new();
            for i in 0..n_nodes {
                let free = 1_000_000_000 - (i as u64) * 1000;
                index.refile(NodeId(i), Some((SiteId((i % 5) as u16), free)));
            }
            let mut rng = SimRng::seed_from_u64(2);
            b.iter(|| {
                let chosen = SiteAwarePolicy.choose(None, 10, &[], &index.view(0), &mut rng);
                black_box(chosen.len())
            })
        });
    }
}

fn bench_namenode_tick(c: &mut Criterion) {
    use hog_hdfs::{HdfsConfig, Namenode};
    use hog_net::Topology;
    c.bench_function("namenode_tick_after_node_death", |b| {
        b.iter_batched(
            || {
                let mut topo = Topology::new();
                let mut nodes = Vec::new();
                for s in 0..5 {
                    let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
                    for _ in 0..20 {
                        nodes.push(topo.add_node(site));
                    }
                }
                let mut nn = Namenode::new(
                    HdfsConfig::hog().with_replication(5),
                    Box::new(SiteAwarePolicy),
                    SimRng::seed_from_u64(3),
                );
                for &n in &nodes {
                    nn.register_datanode(SimTime::ZERO, n, topo.site_of(n));
                }
                let f = nn.create_file_default("/in");
                for _ in 0..200 {
                    let (blk, t) = nn.allocate_block(f, 64 << 20, None).unwrap();
                    nn.commit_block(blk, &t);
                }
                nn.mark_silent(SimTime::from_secs(1), nodes[0]);
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(60), &topo);
                black_box(out.orders.len())
            },
            BatchSize::SmallInput,
        )
    });
}

/// The pool_10k repair shape: 10k datanodes on 25 sites, replication
/// 10, and one monitor tick that declares 80 replica holders dead and
/// issues a full budget of 64 repair orders.
fn bench_namenode_repair_tick(c: &mut Criterion) {
    use hog_hdfs::{HdfsConfig, Namenode};
    use hog_net::Topology;
    c.bench_function("namenode_repair_tick_10k", |b| {
        b.iter_batched(
            || {
                let mut topo = Topology::new();
                let mut nodes = Vec::new();
                for s in 0..25 {
                    let site = topo.add_site(format!("S{s}"), format!("s{s}.edu"));
                    for _ in 0..400 {
                        nodes.push(topo.add_node(site));
                    }
                }
                let mut nn = Namenode::new(
                    HdfsConfig::hog().with_replication(10),
                    Box::new(SiteAwarePolicy),
                    SimRng::seed_from_u64(4),
                );
                for &n in &nodes {
                    nn.register_datanode(SimTime::ZERO, n, topo.site_of(n));
                }
                let f = nn.create_file_default("/in");
                let mut holders = Vec::new();
                for _ in 0..200 {
                    let (blk, t) = nn.allocate_block(f, 64 << 20, None).unwrap();
                    nn.commit_block(blk, &t);
                    holders.push(t[0]);
                }
                for &n in &holders[..80] {
                    nn.mark_silent(SimTime::from_secs(1), n);
                }
                (nn, topo)
            },
            |(mut nn, topo)| {
                let out = nn.tick(SimTime::from_secs(60), &topo);
                assert_eq!(out.orders.len(), 64);
                black_box(out.orders.len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("small_workload_dedicated", |b| {
        let bin = Bin {
            number: 3,
            maps_at_facebook: (10, 10),
            fraction_at_facebook: 1.0,
            maps: 10,
            jobs_in_benchmark: 4,
            reduces: 3,
        };
        let schedule = SubmissionSchedule::from_bins(&[bin], 5);
        b.iter(|| {
            let r = run_workload(
                ClusterConfig::dedicated(1),
                &schedule,
                SimDuration::from_secs(12 * 3600),
            );
            black_box(r.events)
        })
    });
    group.bench_function("small_workload_hog30", |b| {
        let bin = Bin {
            number: 3,
            maps_at_facebook: (10, 10),
            fraction_at_facebook: 1.0,
            maps: 10,
            jobs_in_benchmark: 4,
            reduces: 3,
        };
        let schedule = SubmissionSchedule::from_bins(&[bin], 5);
        b.iter(|| {
            let r = run_workload(
                ClusterConfig::hog(30, 2),
                &schedule,
                SimDuration::from_secs(12 * 3600),
            );
            black_box(r.events)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_periodic_timers,
    bench_fluid_recompute,
    bench_placement,
    bench_namenode_tick,
    bench_namenode_repair_tick,
    bench_end_to_end
);
criterion_main!(benches);
