//! Cluster cost: (a) routed ingest throughput through [`ClusterClient`]
//! with 1, 2, or 3 hash-partitioned primaries (what partitioning the
//! stream per node and pipelining the frames costs vs a single server),
//! and (b) scatter-gather query throughput (mode / median / top-k /
//! count-at-least merged across all nodes per call).
//!
//! Nodes run without a WAL so the numbers isolate routing and merge
//! cost from durability noise.
//!
//! Besides the criterion group, `record_json` re-times the matrix with a
//! best-of-N wall clock and writes `BENCH_cluster.json` at the workspace
//! root so CI uploads it next to the other summaries.

use std::net::TcpListener;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::Tuple;
use sprofile_cluster::ClusterClient;
use sprofile_server::{BackendKind, ClusterConfig, Server, ServerConfig};

/// Universe size (hot-entity regime: stream dwarfs the universe).
const M: u32 = 4_096;
/// Tuples per measured ingest run.
const EVENTS: usize = 65_536;
/// Tuples handed to the router per `batch` call.
const BATCH: usize = 512;
/// Hash slices in the partition map.
const SLICES: u32 = 12;
/// Node counts swept in the ingest matrix.
const NODE_COUNTS: [usize; 3] = [1, 2, 3];
/// Scatter-gather query rounds per measured query run.
const QUERY_ROUNDS: usize = 256;

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn start_cluster(nodes: usize) -> (Vec<Server>, Vec<String>) {
    let addrs = reserve_addrs(nodes);
    let servers = (0..nodes as u32)
        .map(|node| {
            Server::start(
                ServerConfig {
                    m: M,
                    // A multiple of SLICES: the count every node
                    // rounds its shards up to anyway.
                    backend: BackendKind::Sharded { shards: 12 },
                    workers: 3,
                    cluster: Some(ClusterConfig {
                        slices: SLICES,
                        node,
                        nodes: addrs.clone(),
                    }),
                    ..ServerConfig::default()
                },
                &addrs[node as usize],
            )
            .expect("bind cluster node")
        })
        .collect();
    (servers, addrs)
}

fn preload(router: &mut ClusterClient, rng: &mut StdRng, events: usize) {
    let mut sent = 0;
    while sent < events {
        let chunk = BATCH.min(events - sent);
        let tuples: Vec<Tuple> = (0..chunk)
            .map(|_| Tuple {
                object: rng.gen_range(0..M),
                is_add: rng.gen_bool(0.8),
            })
            .collect();
        let acked = router.batch(&tuples).expect("routed batch");
        assert_eq!(acked, chunk as u64);
        sent += chunk;
    }
}

/// One routed ingestion run against `nodes` primaries; returns
/// router-side tuples/second.
fn ingest_run(nodes: usize) -> f64 {
    let (servers, addrs) = start_cluster(nodes);
    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    let mut rng = StdRng::seed_from_u64(0xC1B5);
    let start = Instant::now();
    preload(&mut router, &mut rng, EVENTS);
    let elapsed = start.elapsed();
    router.close().expect("close");
    for s in servers {
        s.shutdown();
    }
    EVENTS as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Preloads a 3-node cluster, then times scatter-gather query rounds
/// (mode + least + median + top-8 + count-at-least per round); returns
/// merged queries/second.
fn query_run() -> f64 {
    let (servers, addrs) = start_cluster(3);
    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    preload(&mut router, &mut rng, EVENTS / 2);
    let start = Instant::now();
    for _ in 0..QUERY_ROUNDS {
        router.mode().expect("mode");
        router.least().expect("least");
        router.median().expect("median");
        router.top_k(8).expect("topk");
        router.count_at_least(2).expect("cal");
    }
    let elapsed = start.elapsed();
    router.close().expect("close");
    for s in servers {
        s.shutdown();
    }
    (QUERY_ROUNDS * 5) as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(10);
    for nodes in NODE_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("routed_ingest", nodes),
            &nodes,
            |b, &nodes| {
                b.iter(|| ingest_run(nodes));
            },
        );
    }
    group.bench_function("scatter_gather_queries", |b| {
        b.iter(query_run);
    });
    group.finish();
}

/// Times the matrix (best of N) and writes `BENCH_cluster.json` (path
/// overridable with `BENCH_CLUSTER_OUT`).
fn record_json(_c: &mut Criterion) {
    const REPEATS: usize = 3;
    let cells: Vec<String> = NODE_COUNTS
        .iter()
        .map(|&nodes| {
            let best = (0..REPEATS)
                .map(|_| ingest_run(nodes))
                .fold(0.0f64, f64::max);
            format!("\"{nodes}\": {best:.0}")
        })
        .collect();
    let query_best = (0..REPEATS).map(|_| query_run()).fold(0.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"m\": {M},\n  \"events\": {EVENTS},\n  \
         \"batch\": {BATCH},\n  \"slices\": {SLICES},\n  \
         \"backend\": \"sharded12\",\n  \
         \"routed_tuples_per_sec_by_nodes\": {{{}}},\n  \
         \"scatter_gather_queries_per_sec\": {query_best:.0}\n}}\n",
        cells.join(", "),
    );
    let path = std::env::var("BENCH_CLUSTER_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json").into()
    });
    std::fs::write(&path, &json).expect("write BENCH_cluster.json");
    println!("bench cluster summary written to {path}");
    println!("{json}");
}

criterion_group!(benches, bench_cluster, record_json);
criterion_main!(benches);
