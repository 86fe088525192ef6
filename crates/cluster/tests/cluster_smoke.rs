//! End-to-end cluster smoke: a 3-node hash-partitioned cluster driven
//! through [`ClusterClient`] agrees exactly with a single-profile
//! oracle — before and after a live `MIGRATE` — and a stale-map client
//! converges through the `ERR moved` retry path.

use std::net::TcpListener;
use std::path::PathBuf;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::{SProfile, Tuple};
use sprofile_cluster::ClusterClient;
use sprofile_server::{BackendKind, Client, ClusterConfig, DurabilityConfig, Server, ServerConfig};

fn temp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sprofile-cluster-smoke-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserves `n` distinct loopback addresses. The listeners are dropped
/// before the servers bind — a tiny race, acceptable in tests.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn start_node(
    m: u32,
    slices: u32,
    node: u32,
    addrs: &[String],
    dir: PathBuf,
    backend: BackendKind,
) -> Server {
    Server::start(
        ServerConfig {
            m,
            backend,
            workers: 2,
            flush_every: 1, // rebalance requires per-write durability
            snapshot_dir: std::env::temp_dir(),
            wal: Some(DurabilityConfig::new(dir)),
            cluster: Some(ClusterConfig {
                slices,
                node,
                nodes: addrs.to_vec(),
            }),
            ..ServerConfig::default()
        },
        &addrs[node as usize],
    )
    .expect("start cluster node")
}

fn drive(rng: &mut StdRng, router: &mut ClusterClient, oracle: &mut SProfile, m: u32, ops: usize) {
    let mut sent = 0;
    while sent < ops {
        let chunk = rng.gen_range(1usize..=32).min(ops - sent);
        let tuples: Vec<Tuple> = (0..chunk)
            .map(|_| Tuple {
                object: rng.gen_range(0..m),
                is_add: rng.gen_bool(0.7),
            })
            .collect();
        let acked = router.batch(&tuples).expect("routed batch");
        assert_eq!(acked, chunk as u64, "every tuple acked");
        oracle.apply_batch(&tuples);
        sent += chunk;
    }
}

fn assert_agrees(router: &mut ClusterClient, oracle: &SProfile, m: u32, ctx: &str) {
    for x in 0..m {
        assert_eq!(
            router.freq(x).expect("freq"),
            oracle.frequency(x),
            "{ctx}: object {x}"
        );
    }
    let oracle_mode = oracle.mode().map(|e| {
        let obj = oracle.mode_objects().iter().copied().min().unwrap();
        (obj, e.frequency)
    });
    assert_eq!(router.mode().expect("mode"), oracle_mode, "{ctx}: mode");
    let oracle_least = oracle.least().map(|e| {
        let obj = oracle.least_objects().iter().copied().min().unwrap();
        (obj, e.frequency)
    });
    assert_eq!(router.least().expect("least"), oracle_least, "{ctx}: least");
    assert_eq!(
        router.median().expect("median"),
        oracle.median(),
        "{ctx}: median"
    );
    for k in [1u32, 3, 8, m] {
        assert_eq!(
            router.top_k(k).expect("topk"),
            oracle.top_k(k),
            "{ctx}: top_k({k})"
        );
    }
    for f in [-2i64, 0, 1, 2, 5] {
        assert_eq!(
            router.count_at_least(f).expect("cal"),
            oracle.count_at_least(f),
            "{ctx}: cal({f})"
        );
    }
}

#[test]
fn a_three_node_cluster_agrees_with_the_oracle_through_a_live_migrate() {
    let mut rng = StdRng::seed_from_u64(0xC1_0517E5);
    let m = 96u32;
    let slices = 8u32;
    let base = temp_base("migrate");
    let addrs = reserve_addrs(3);
    let kinds = [
        BackendKind::Sharded { shards: 2 },
        BackendKind::Sharded { shards: 1 },
        BackendKind::Sharded { shards: 3 },
    ];
    let servers: Vec<Server> = (0..3u32)
        .map(|i| {
            start_node(
                m,
                slices,
                i,
                &addrs,
                base.join(format!("node{i}")),
                kinds[i as usize],
            )
        })
        .collect();

    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    assert_eq!(router.map().version, 1, "bootstrap map");
    assert_eq!(router.m(), m);
    let mut oracle = SProfile::new(m);

    drive(&mut rng, &mut router, &mut oracle, m, 600);
    assert_agrees(&mut router, &oracle, m, "pre-migrate");

    // Live rebalance: hand slice 3 from its round-robin owner (node 0)
    // to node 2, via the admin plane of the owning node.
    let mut admin = Client::connect(&addrs[0]).expect("admin");
    let new_version = admin.migrate(3, 2).expect("migrate");
    assert_eq!(new_version, 2, "migrate bumps the map version");
    admin.quit().expect("quit admin");

    // The router still routes with the stale map: its next writes into
    // slice 3 bounce with `ERR moved`, refresh the map, and land on the
    // new owner — no tuple is lost or double-applied.
    drive(&mut rng, &mut router, &mut oracle, m, 400);
    assert_eq!(router.map().version, 2, "router adopted the bumped map");
    assert_eq!(router.map().owners[3], 2, "slice 3 moved to node 2");
    assert_agrees(&mut router, &oracle, m, "post-migrate");

    // The hand-off is visible in STATS on both ends.
    let src = router.node_stats(0).expect("stats");
    assert_eq!(Client::stats_field(&src, "migrations"), Some(1), "{src}");
    assert_eq!(Client::stats_field(&src, "map_version"), Some(2), "{src}");
    assert!(
        Client::stats_field(&src, "moved_rejects").unwrap_or(0) >= 1,
        "stale-map writes were rejected: {src}"
    );
    let dst = router.node_stats(2).expect("stats");
    assert_eq!(
        Client::stats_field(&dst, "cluster_slices"),
        Some(u64::from(slices)),
        "{dst}"
    );

    // A restarted node recovers both its WAL and the bumped map.
    router.close().expect("close router");
    for s in servers {
        s.shutdown();
    }
    let node0 = start_node(m, slices, 0, &addrs, base.join("node0"), kinds[0]);
    let mut c = Client::connect(&addrs[0]).expect("reconnect");
    let map = c.map().expect("map after restart");
    assert_eq!(map.version, 2, "partition map survived the restart");
    assert_eq!(map.owners[3], 2);
    c.quit().expect("quit");
    node0.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
